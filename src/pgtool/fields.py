"""Exact arithmetic in GF(p^k).

Elements are integer codes in ``[0, p^k)``; the base-p digits of a code
are the coefficients of a polynomial over GF(p), constant term first.
Every field is built on a canonical modulus: the lexicographically
smallest monic irreducible polynomial of degree k over GF(p), where
moduli are compared as ascending-coefficient tuples.  This makes field
descriptors reproducible bit for bit across runs and machines.  Orders
go up to ``SIZE_CAP``, and every operation is a dense-table lookup.
"""

from __future__ import annotations

import functools
import types
from itertools import product

from .errors import (
    DegreeZero,
    FieldMismatch,
    NonPrimeP,
    SizeCapExceeded,
    ZeroInverse,
)

SIZE_CAP = 256  # every field is served by dense op tables up to this order


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_rem(a: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial m, over GF(p)."""
    a = _poly_trim([x % p for x in a])
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i in range(dm + 1):
                a[shift + i] = (a[shift + i] - lead * m[i]) % p
        a.pop()
        _poly_trim(a)
    return a


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(poly)/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            divisor = list(tail) + [1]
            if not _poly_rem(poly, divisor, p):
                return False
    return True


def canonical_modulus(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over GF(p)."""
    for tail in product(range(p), repeat=k):
        poly = list(tail) + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError("no irreducible polynomial found")  # cannot happen


class GaloisField:
    """GF(p^k) with integer-coded elements and canonical modulus.

    Instances are immutable; all operations are pure functions of their
    arguments, so a field can be shared freely between threads.
    """

    def __init__(self, p: int, k: int):
        if p > SIZE_CAP or k > SIZE_CAP:  # first, so no huge p is tested for primality
            raise SizeCapExceeded(f"field order exceeds cap {SIZE_CAP}: p or k is larger")
        if not is_prime(p):
            raise NonPrimeP(f"p = {p} is not prime")
        if k < 1:
            raise DegreeZero(f"extension degree must be >= 1, got {k}")
        q = p**k
        if q > SIZE_CAP:
            raise SizeCapExceeded(f"field order {q} exceeds cap {SIZE_CAP}")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = canonical_modulus(p, k)
        self._hash = hash((p, k, self.modulus))  # once: spaces and subspaces hash through it
        self._install_ops()

    # -- construction of the arithmetic tables ---------------------------

    def _install_ops(self):
        """Dense operation tables, one construction for every field.

        Addition is digitwise mod p.  The nonzero elements form a cyclic
        group: with exp[i] = g^i for a primitive element g, products,
        inverses and Frobenius images are exponent arithmetic mod q - 1.
        The addition, negation and multiplication tables are also kept,
        read-only, as ``add_table``, ``neg_table`` and ``mul_table`` for
        inner loops that index them directly, and ``frobenius_table[m]``
        lists x -> x^(p^m) for each m in [0, k).
        """
        p, k, q = self.p, self.k, self.q
        weights = [p**i for i in range(k)]
        digits = [[a // w % p for w in weights] for a in range(q)]
        add_t = tuple(
            tuple(sum((x + y) % p * w for x, y, w in zip(da, db, weights)) for db in digits)
            for da in digits
        )
        neg_t = tuple(row.index(0) for row in add_t)
        modulus = list(self.modulus)

        def poly_mul(a, b):
            c = _poly_rem(_poly_mul(digits[a], digits[b], p), modulus, p)
            return sum(x * w for x, w in zip(c, weights))

        order = q - 1
        for g in range(1, q):  # the first element whose powers reach all q - 1
            exp, x = [1], g
            while x != 1:
                exp.append(x)
                x = poly_mul(x, g)
            if len(exp) == order:
                break
        log = [0] * q
        for i, x in enumerate(exp):
            log[x] = i
        mul_t = [[0] * q for _ in range(q)]
        for i, a in enumerate(exp):
            row = mul_t[a]
            for j, b in enumerate(exp):
                row[b] = exp[(i + j) % order]
        mul_t = tuple(map(tuple, mul_t))
        inv_t = [0] + [exp[-log[a] % order] for a in range(1, q)]
        frob_t = tuple(
            (0,) + tuple(exp[log[a] * p**m % order] for a in range(1, q)) for m in range(k)
        )
        self.add_table, self.neg_table, self.mul_table = add_t, neg_t, mul_t
        self.frobenius_table = frob_t
        self.add = lambda a, b: add_t[a][b]
        self.sub = lambda a, b: add_t[a][neg_t[b]]
        self.neg = lambda a: neg_t[a]
        self.mul = lambda a, b: mul_t[a][b]

        def inv(a):
            if a == 0:
                raise ZeroInverse("0 has no multiplicative inverse")
            return inv_t[a]

        self.inv = inv
        self.frobenius = lambda a, m=1: frob_t[m % k][a]

    @staticmethod
    def _pow_with(mul, a: int, e: int) -> int:
        r = 1
        while e > 0:
            e, bit = divmod(e, 2)
            if bit:
                r = mul(r, a)
            if e:
                a = mul(a, a)
        return r

    @functools.cached_property
    def byte_tables(self) -> types.SimpleNamespace:
        """Tables for `bytes.translate`, built on first use from the op
        tables, for `linalg.canonical_products`, which holds one element
        code per byte.  Each has 256 entries; the bytes q to 255 are no
        codes and map to 0 in the product and Frobenius tables.

        - ``digits[j][a]``: x -> digit j of a x.  Addition is digitwise
          mod p in base p, so the digits are added apart; over
          characteristic 2 it is XOR on the whole code, which is then the
          one digit (``digits[0][a]``: x -> a x);
        - ``unscale[a]``: x -> x / a (None at 0);
        - ``frobenius[m]``: x -> x^(p^m);
        - ``residue``: v -> v mod p, for every byte v;
        - ``nonzero``: x -> 255 if x != 0 else 0, and ``equal[a]``:
          x -> 255 if x == a else 0.
        """
        p, k, q = self.p, self.k, self.q
        pad = bytes(256 - q)
        mul = tuple(bytes(row) + pad for row in self.mul_table)
        if p == 2:
            digits = (mul,)
        else:
            planes = [bytes(v // p**j % p for v in range(256)) for j in range(k)]
            digits = tuple(tuple(t.translate(plane) for t in mul) for plane in planes)
        return types.SimpleNamespace(
            unscale=(None,) + tuple(mul[self.inv(a)] for a in range(1, q)),
            frobenius=tuple(bytes(t) + pad for t in self.frobenius_table),
            digits=digits,
            residue=bytes(v % p for v in range(256)),
            nonzero=bytes([0] + [255] * 255),
            equal=tuple(bytes(a) + b"\xff" + bytes(255 - a) for a in range(q)),
        )

    # -- public API ------------------------------------------------------

    def elements(self) -> range:
        return range(self.q)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self._pow_with(self.mul, self.inv(a), -e)
        return self._pow_with(self.mul, a, e)

    def automorphism_exponents(self) -> range:
        """Exponents m of the k Frobenius automorphisms x -> x^(p^m)."""
        return range(self.k)

    def descriptor(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}

    def __repr__(self):
        return f"GF({self.q})"

    def __eq__(self, other):
        return (
            isinstance(other, GaloisField)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return self._hash


@functools.lru_cache(maxsize=None)
def create_field(p: int, k: int) -> GaloisField:
    """Build (or fetch the cached) GF(p^k) with the canonical modulus."""
    return GaloisField(p, k)


def field_from_descriptor(d: dict) -> GaloisField:
    """Rebuild a field from its serialized descriptor, validating the modulus.

    The descriptor comes from outside, so p, k and the modulus entries
    must be ints as they stand: no float, string or bool is coerced.
    """
    p, k, recorded = d["p"], d["k"], tuple(d["modulus"])
    if any(type(x) is not int for x in (p, k, *recorded)):
        raise FieldMismatch(f"descriptor entries must be integers, got {d!r}")
    field = create_field(p, k)
    if recorded != field.modulus:
        raise FieldMismatch(
            f"descriptor modulus {list(recorded)} differs from canonical "
            f"{list(field.modulus)}"
        )
    return field


def prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, k) with p prime, or raise; an order over SIZE_CAP
    is refused before the search for p."""
    if q > SIZE_CAP:
        raise SizeCapExceeded(f"field order {q} exceeds cap {SIZE_CAP}")
    if q < 2:
        raise NonPrimeP(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise NonPrimeP(f"{q} is not a prime power")
            return p, k
    raise NonPrimeP(f"{q} is not a prime power")


def element_ops(field: GaloisField, kind: str, a: int, b: int | None = None) -> int:
    """Checked single-operation entry point used by the CLI.

    ``kind`` is one of add, mul, inv, pow; for pow, b is an integer
    exponent rather than an element code.  Codes and exponents must be
    of type int exactly, so a bool is refused.
    """
    if type(a) is not int or not 0 <= a < field.q:
        raise FieldMismatch(f"code {a} outside [0, {field.q})")
    if kind in ("add", "mul") and (type(b) is not int or not 0 <= b < field.q):
        raise FieldMismatch(f"code {b} outside [0, {field.q})")
    if kind == "add":
        return field.add(a, b)
    if kind == "mul":
        return field.mul(a, b)
    if kind == "inv":
        return field.inv(a)
    if kind == "pow":
        if type(b) is not int:
            raise FieldMismatch("pow requires an integer exponent")
        return field.pow(a, b)
    raise FieldMismatch(f"unknown operation {kind!r}")
