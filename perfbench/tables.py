"""Seeded point tables for the benchmark, built without pgtool.

The arithmetic, the Veronese map and the collineations here are a
second, deliberately small implementation.  pgtool only ever sees the
finished map dicts, in the format `pgtool gen` writes, and the ground
truth that comes with each table (its label and, for accepted tables,
the Frobenius exponent of the generating collineation) never passes
through pgtool code.
"""

from __future__ import annotations

import random
from itertools import product


def _poly_divides(divisor, poly, p):
    """True iff the monic divisor divides poly over GF(p) (ascending coefficients)."""
    rem = list(poly)
    d = len(divisor) - 1
    while len(rem) - 1 >= d and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < d:
            break
        lead, shift = rem[-1], len(rem) - 1 - d
        for i, c in enumerate(divisor):
            rem[shift + i] = (rem[shift + i] - lead * c) % p
    return not any(rem)


def canonical_modulus(p: int, k: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree k, comparing ascending coefficient tuples."""
    for tail in product(range(p), repeat=k):
        poly = list(tail) + [1]
        if not any(
            _poly_divides(list(dtail) + [1], poly, p)
            for d in range(1, k // 2 + 1)
            for dtail in product(range(p), repeat=d)
        ):
            return tuple(poly)
    raise ValueError(f"no irreducible polynomial of degree {k} over GF({p})")


class Field:
    """GF(p^k) on integer codes whose base-p digits are polynomial coefficients."""

    def __init__(self, p: int, k: int):
        self.p, self.k, self.q = p, k, p**k
        self.modulus = canonical_modulus(p, k)
        q = self.q
        digits = [self._digits(a) for a in range(q)]
        self.add = [
            [self._code([(x + y) % p for x, y in zip(digits[a], digits[b])]) for b in range(q)]
            for a in range(q)
        ]
        self.mul = [[self._code(self._polymul(digits[a], digits[b])) for b in range(q)] for a in range(q)]
        self.neg = [next(b for b in range(q) if self.add[a][b] == 0) for a in range(q)]
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[a] = next(b for b in range(1, q) if self.mul[a][b] == 1)

    def _digits(self, a: int) -> list[int]:
        return [(a // self.p**i) % self.p for i in range(self.k)]

    def _code(self, digits) -> int:
        return sum(d * self.p**i for i, d in enumerate(digits))

    def _polymul(self, a, b) -> list[int]:
        p, k, m = self.p, self.k, self.modulus
        out = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        for top in range(len(out) - 1, k - 1, -1):
            lead = out[top]
            if lead:
                for i in range(k + 1):
                    out[top - k + i] = (out[top - k + i] - lead * m[i]) % p
        return out[:k]

    def frobenius(self, a: int, alpha: int) -> int:
        out = a
        for _ in range(self.p**alpha - 1):
            out = self.mul[out][a]
        return out

    def descriptor(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}


def normalize(field: Field, vec) -> tuple[int, ...]:
    lead = next(x for x in vec if x)
    f = field.inv[lead]
    return tuple(field.mul[f][x] for x in vec)


def points(field: Field, n: int) -> list[tuple[int, ...]]:
    """Canonical representatives of PG(n, q): first nonzero coordinate 1."""
    out = []
    for lead in range(n + 1):
        for tail in product(range(field.q), repeat=n - lead):
            out.append((0,) * lead + (1,) + tail)
    return out


def rank(field: Field, rows) -> int:
    mat = [list(r) for r in rows]
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        f = field.inv[mat[r][c]]
        mat[r] = [field.mul[f][x] for x in mat[r]]
        for i in range(len(mat)):
            g = mat[i][c]
            if i != r and g:
                ng = field.neg[g]
                mat[i] = [field.add[x][field.mul[ng][y]] for x, y in zip(mat[i], mat[r])]
        r += 1
    return r


def veronese(field: Field, x) -> tuple[int, ...]:
    """Degree-2 monomials in the pair order (0,0), (0,1), ..., (n,n)."""
    n1 = len(x)
    return tuple(field.mul[x[i]][x[j]] for i in range(n1) for j in range(i, n1))


def apply_semilinear(field: Field, matrix, alpha: int, vec) -> tuple[int, ...]:
    twisted = [field.frobenius(x, alpha) for x in vec]
    out = []
    for row in matrix:
        acc = 0
        for a, x in zip(row, twisted):
            acc = field.add[acc][field.mul[a][x]]
        out.append(acc)
    return normalize(field, out)


class Op:
    """One table to decide, with its ground truth."""

    __slots__ = ("label", "space", "data", "alpha", "n", "field")

    def __init__(self, label, space, data, alpha, n, field):
        self.label = label  # "accept" or "reject"
        self.space = space  # e.g. "PG(2,3)"
        self.data = data  # the map dict pgtool loads
        self.alpha = alpha  # Frobenius exponent of the generating collineation
        self.n = n
        self.field = field

    @property
    def kind(self) -> str:
        return f"{self.label} {self.space}"


_FIELDS: dict[int, Field] = {}


def field_for(q: int) -> Field:
    if q not in _FIELDS:
        p = next(d for d in range(2, q + 1) if q % d == 0)
        k = 0
        while p**k < q:
            k += 1
        _FIELDS[q] = Field(p, k)
    return _FIELDS[q]


def make_table(label: str, n: int, q: int, rng: random.Random) -> Op:
    """Veronese map followed by a random collineation; a reject also moves one
    entry to a target point off the image, so the table stays injective."""
    field = field_for(q)
    n_prime = (n + 1) * (n + 2) // 2 - 1
    size = n_prime + 1
    while True:
        matrix = [[rng.randrange(q) for _ in range(size)] for _ in range(size)]
        if rank(field, matrix) == size:
            break
    alpha = rng.randrange(field.k)
    src = points(field, n)
    table = {x: apply_semilinear(field, matrix, alpha, veronese(field, x)) for x in src}
    if label == "reject":
        image = set(table.values())
        victim = src[rng.randrange(len(src))]
        while True:
            vec = [rng.randrange(q) for _ in range(size)]
            if any(vec):
                replacement = normalize(field, vec)
                if replacement not in image:
                    break
        table[victim] = replacement
    data = {
        "field": field.descriptor(),
        "n": n,
        "n_prime": n_prime,
        "pairs": [[list(x), list(y)] for x, y in table.items()],
    }
    return Op(label, f"PG({n},{q})", data, alpha, n, field)


# The mix of one round, as (label, n, q, copies).  Each round is shuffled.
ROUNDS = {
    "verify": (("accept", 2, 3, 1), ("reject", 2, 3, 8), ("reject", 3, 2, 1)),
    "regular": (
        ("accept", 2, 5, 2),
        ("accept", 3, 3, 2),
        ("accept", 2, 7, 1),
        ("accept", 2, 8, 2),
        ("reject", None, None, 1),  # broken table on the spaces in turn
    ),
}
_REJECT_CYCLE = {"regular": ((2, 5), (2, 7), (2, 8), (3, 3))}


def _round(workload: str, index: int, rng: random.Random) -> list[Op]:
    ops = []
    for label, n, q, copies in ROUNDS[workload]:
        if n is None:
            n, q = _REJECT_CYCLE[workload][index % len(_REJECT_CYCLE[workload])]
        ops.extend(make_table(label, n, q, rng) for _ in range(copies))
    rng.shuffle(ops)
    return ops


def warmup_ops(workload: str) -> list[Op]:
    """One table on every space the stream uses, accepted where the mix has
    accepted tables on it.  The tables do not depend on the workload seed,
    so set-up does the same work in every run."""
    rng = random.Random(f"{workload}-warmup")
    spaces: dict[tuple[int, int], str] = {}
    for label, n, q, _copies in ROUNDS[workload]:
        for space in _REJECT_CYCLE[workload] if n is None else ((n, q),):
            if spaces.get(space) != "accept":
                spaces[space] = label
    return [make_table(label, n, q, rng) for (n, q), label in spaces.items()]


def stream(workload: str, seed: int):
    """Endless sequence of ops: shuffled rounds of the workload's mix."""
    rng = random.Random(f"{workload}-{seed}")
    index = 0
    while True:
        yield from _round(workload, index, rng)
        index += 1
