"""Points, subspaces, frames, and semilinear collineations of PG(n, q).

Points are canonical homogeneous coordinate tuples: the first nonzero
coordinate is scaled to 1, which gives one hashable representative per
projective point.  Subspaces carry a reduced-row-echelon basis, so
subspace equality is tuple equality.  The empty subspace has dimension
-1 by convention.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations, product

from . import linalg
from .errors import (
    DimensionMismatch,
    PointNotInSubspace,
    SingularMatrix,
    SizeCapExceeded,
    SpaceMismatch,
)
from .fields import GaloisField

POINT_ENUM_CAP = 10**6


@dataclass(frozen=True)
class ProjectiveSpace:
    """PG(n, q): a value compared and hashed by (field, n), with exact
    geometry operations.

    Equal spaces share one point table and one line table, built on
    first use (`_point_table`, `_lines_cached`), so a space rebuilt from
    a map file enumerates nothing that an equal space has enumerated.
    """

    field: GaloisField
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch(f"projective dimension must be >= 1, got {self.n}")

    # -- points ----------------------------------------------------------

    @functools.cached_property
    def point_count(self) -> int:
        """(q^(n+1) - 1) / (q - 1), built on first use: the power alone
        takes seconds once n is in the millions."""
        q = self.field.q
        return (q ** (self.n + 1) - 1) // (q - 1)

    def normalize(self, vec) -> tuple[int, ...]:
        """Canonical representative: first nonzero coordinate scaled to 1.

        The boundary validator for points from outside: it checks length,
        type and range and rejects the zero vector (see `linalg.canonical`).
        """
        vec = tuple(vec)
        if len(vec) != self.n + 1:
            raise DimensionMismatch(
                f"expected {self.n + 1} coordinates, got {len(vec)}"
            )
        if not self.field.are_codes(vec):
            raise SpaceMismatch(f"coordinate codes must lie in [0, {self.field.q})")
        out = linalg.canonical(self.field, vec)
        if out is None:
            raise SpaceMismatch("the zero vector is not a projective point")
        return out

    def points(self) -> list[tuple[int, ...]]:
        """All points in lexicographic order of their coordinate codes:
        the list shared by every equal space, not to be mutated."""
        return _point_table(self)[0]

    def point_index(self, pt: tuple[int, ...]) -> int:
        return _point_table(self)[1][pt]

    def point_at(self, i: int) -> tuple[int, ...]:
        """The point at position i of `points()`, without enumerating them.

        `points()` holds the points leading in column n - k, k = 0, ...,
        n, in blocks of q^k: a 1 followed by every k-tuple of codes in
        lex order.  So i is found in its block, and its offset there,
        written in base q, is the tail.
        """
        if not 0 <= i < self.point_count:
            raise SpaceMismatch(f"point index {i} outside [0, {self.point_count})")
        q = self.field.q
        k, block = 0, 1
        while i >= block:
            i -= block
            k, block = k + 1, block * q
        tail = []
        for _ in range(k):
            i, code = divmod(i, q)
            tail.append(code)
        return (0,) * (self.n - k) + (1,) + tuple(reversed(tail))

    # -- subspaces ---------------------------------------------------------

    def subspace(self, rows) -> "Subspace":
        """Subspace spanned by any set of coordinate vectors (reduced on load).

        A boundary validator like `normalize`, except that zero vectors
        are allowed: they span nothing.
        """
        for r in rows:
            if len(r) != self.n + 1:
                raise DimensionMismatch("spanning vector of wrong length")
            if not self.field.are_codes(r):
                raise SpaceMismatch(f"coordinate codes must lie in [0, {self.field.q})")
        pivots, rrows = linalg.rref(self.field, rows)
        return Subspace(self, pivots, rrows)

    def span(self, points) -> "Subspace":
        return self.subspace(list(points))

    def full_subspace(self) -> "Subspace":
        n1 = self.n + 1
        rows = tuple(tuple(1 if j == i else 0 for j in range(n1)) for i in range(n1))
        return Subspace(self, tuple(range(n1)), rows)

    def meet(self, a: "Subspace", b: "Subspace") -> "Subspace":
        """Intersection, in one elimination (Zassenhaus).

        The rows (u | u) for u in a's basis and (v | 0) for v in b's
        span the vectors (u + v | u) with u in a and v in b.  Such a
        vector has left half 0 exactly when v = -u, so its right half u
        lies in a and b; and each w in both gives (0 | w) = (w | w) -
        (w | 0).  In the reduced row echelon form these vectors are
        spanned by the rows whose pivot lies in the right half, which
        come last, and the right halves of those rows have pivots 1
        with zeros above and below them.  So they are the reduced basis
        of the meet, the one `subspace` would compute from any basis of
        it, and need no further reduction.
        """
        self._check_sub(a)
        self._check_sub(b)
        n1 = self.n + 1
        zero = (0,) * n1
        pivots, rows = linalg.rref(self.field, [u + u for u in a.rows] + [v + zero for v in b.rows])
        k = next((i for i, c in enumerate(pivots) if c >= n1), len(pivots))
        return Subspace(self, tuple(c - n1 for c in pivots[k:]), tuple(row[n1:] for row in rows[k:]))

    def _check_sub(self, s: "Subspace"):
        if s.space != self:
            raise SpaceMismatch("subspace belongs to a different space")

    def hyperplanes(self) -> list["Subspace"]:
        """All hyperplanes, ordered by their dual coordinate vectors."""
        n1 = self.n + 1
        out = []
        for dual in _coefficient_reps(self.field, n1):
            rows = linalg.nullspace(self.field, (dual,), n1)
            out.append(self.subspace(rows))
        return out

    def lines(self) -> list["Subspace"]:
        """All 1-dimensional subspaces, sorted by their reduced bases.

        They are built once per (field, n), as the points are, and each
        call returns a fresh list of them.
        """
        return list(_lines_cached(self))

    def lines_through(self, point, inside: "Subspace | None" = None) -> list["Subspace"]:
        """The pencil of lines through a point within a subspace, sorted by
        their reduced bases.

        With j the point's leading column (where it has entry 1), each
        line of the pencil meets the section {x in inside : x[j] = 0} in
        exactly one point: the line is not inside that hyperplane, since
        the point is not.  So each section point x gives one line, whose
        reduced basis is written down: with k the leading column of x,
        the rows x and rest = point - point[k] x lead with 1 in columns
        k and j, and each is 0 in the other's leading column (x[j] = 0,
        rest[k] = 0).  Ordered by those columns they are the reduced
        basis; rest is the point itself when k < j.  No line is
        eliminated.  The section comes from `points()` when no subspace
        is given.
        """
        point = self.normalize(point)
        if inside is not None:
            self._check_sub(inside)
            # the point is normalized already, so test membership directly
            if not linalg.in_rowspace(self.field, inside.pivots, inside.rows, point):
                raise PointNotInSubspace(f"{point} not in the given subspace")
            if inside.dim < 1:
                raise DimensionMismatch("pencil needs a subspace of dimension >= 1")
        section = self.points() if inside is None else inside.points()
        j = point.index(1)
        pencil = []
        for x in section:
            if not x[j]:
                k = x.index(1)
                rest = linalg.residual(self.field, (k,), (x,), point)
                pivots, rows = ((k, j), (x, rest)) if k < j else ((j, k), (rest, x))
                pencil.append(Subspace(self, pivots, rows))
        return sorted(pencil, key=lambda line: line.rows)

    def __repr__(self):
        return f"PG({self.n},{self.field.q})"


@functools.lru_cache(maxsize=None)
def _point_table(space: ProjectiveSpace) -> tuple[list, dict]:
    """The points of `space` and their positions, once per (field, n)."""
    # q^n >= 2^n, so the count is not needed to refuse a large n
    if space.n >= POINT_ENUM_CAP.bit_length() or space.point_count > POINT_ENUM_CAP:
        raise SizeCapExceeded(f"{space} has more points than the cap {POINT_ENUM_CAP}")
    points = list(_coefficient_reps(space.field, space.n + 1))
    return points, {pt: i for i, pt in enumerate(points)}


@functools.lru_cache(maxsize=None)
def _coefficient_reps(field: GaloisField, length: int) -> tuple[tuple[int, ...], ...]:
    """Canonical nonzero coefficient tuples (first nonzero = 1), lex order."""
    reps = []
    for lead in range(length - 1, -1, -1):
        prefix = (0,) * lead
        for tail in product(field.elements(), repeat=length - lead - 1):
            reps.append(prefix + (1,) + tail)
    return tuple(reps)


@functools.lru_cache(maxsize=None)
def _lines_cached(space: ProjectiveSpace) -> tuple["Subspace", ...]:
    """The lines of `space`, each built once from its reduced basis:
    pivot columns c1 < c2, the first row free after c1 except at c2, the
    second row free after c2."""
    n1 = space.n + 1
    elems = space.field.elements()
    bases = []
    for c1, c2 in combinations(range(n1), 2):
        k = c2 - c1 - 1
        for a in product(elems, repeat=n1 - c1 - 2):
            row1 = (0,) * c1 + (1,) + a[:k] + (0,) + a[k:]
            for b in product(elems, repeat=n1 - c2 - 1):
                bases.append(((row1, (0,) * c2 + (1,) + b), (c1, c2)))
    bases.sort()
    return tuple(Subspace(space, pivots, rows) for rows, pivots in bases)


@dataclass(frozen=True)
class Subspace:
    """A subspace held as its reduced-row-echelon basis. dim = rank - 1."""

    space: ProjectiveSpace
    pivots: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rows) - 1

    def contains(self, vec) -> bool:
        vec = self.space.normalize(vec)
        return linalg.in_rowspace(self.space.field, self.pivots, self.rows, vec)

    def point_from_coords(self, coeffs) -> tuple[int, ...]:
        """The point with the given coefficients (not all 0) on the basis."""
        field = self.space.field
        # computed by field operations, so it needs no validation
        return linalg.canonical(field, linalg.mat_vec(field, linalg.transpose(self.rows), coeffs))

    def points(self) -> tuple[tuple[int, ...], ...]:
        return _subspace_points(self)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, rows={self.rows})"


@functools.lru_cache(maxsize=None)
def _subspace_points(sub: Subspace) -> tuple[tuple[int, ...], ...]:
    if not sub.rows:
        return ()
    reps = _coefficient_reps(sub.space.field, len(sub.rows))
    return tuple(sorted(sub.point_from_coords(c) for c in reps))


# -- frames ----------------------------------------------------------------


def standard_frame(space: ProjectiveSpace) -> tuple[tuple[int, ...], ...]:
    """Unit points followed by the all-ones point."""
    n1 = space.n + 1
    units = tuple(tuple(1 if j == i else 0 for j in range(n1)) for i in range(n1))
    return units + (tuple(1 for _ in range(n1)),)


def scale_frame(space: ProjectiveSpace, frame_points) -> list[tuple[int, ...]] | None:
    """Representatives of the first n+1 frame points, scaled to sum to the last.

    The scaled vectors are the columns of the matrix that sends the
    standard frame to the given one, so they are a basis.  Returns None
    exactly when the points do not form a frame, that is n+2 points any
    n+1 of which are independent; `build_Q_frame` relies on this to
    raise FrameCheckFailed.  Write the last point as
    u = s_0 c_0 + ... + s_n c_n.  Dependent c_i leave a free scale at 0
    or no solution.  For independent c_i, s_i = 0 puts u in the span of
    the other n, a dependent set of n+1 points; and when every s_i is
    nonzero, s_i c_i = u - (the other terms), so dropping any c_i for u
    keeps the span and any n+1 points are independent.  Repeated points
    are cases of the first two: two equal c_i, or u equal to c_j with
    every other scale 0.
    """
    if len(frame_points) != space.n + 2:
        return None
    cols, unit = frame_points[:-1], frame_points[-1]
    scales = linalg.solve_columns(space.field, cols, unit)
    if scales is None or not all(scales):
        return None
    mul = space.field.mul
    return [tuple(mul(s, x) for x in col) for s, col in zip(scales, cols)]


# -- semilinear maps ---------------------------------------------------------


def checked_alpha(field: GaloisField, alpha) -> int:
    """A Frobenius exponent reduced mod k; one that is not an int, such
    as True or 1.0, raises SpaceMismatch."""
    if type(alpha) is not int:
        raise SpaceMismatch(f"alpha must be an integer, got {alpha!r}")
    return alpha % field.k


@dataclass(frozen=True)
class SemilinearMap:
    """x -> matrix . (x with the Frobenius power alpha applied entrywise)."""

    space: ProjectiveSpace
    matrix: tuple[tuple[int, ...], ...]
    alpha: int = 0

    def __post_init__(self):
        n1 = self.space.n + 1
        mat = tuple(tuple(row) for row in self.matrix)
        if len(mat) != n1 or any(len(r) != n1 for r in mat):
            raise DimensionMismatch(f"matrix must be {n1}x{n1}")
        field = self.space.field
        if not all(map(field.are_codes, mat)):
            raise SpaceMismatch(f"matrix entries must be integer codes in [0, {field.q})")
        alpha = checked_alpha(field, self.alpha)
        if linalg.rank(field, mat) != n1:
            raise SingularMatrix("matrix is not invertible")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "alpha", alpha)

    @classmethod
    def from_basis(cls, space: ProjectiveSpace, columns, alpha: int) -> "SemilinearMap":
        """The map whose matrix has the given columns, without the
        constructor's checks.

        Only for columns known to be a basis of field codes and an alpha
        in [0, k), where the code checks and the rank test would find
        nothing.  The callers:

        - `embeddings._fit_semilinear`: the columns come from
          `scale_frame`, which returns a basis or None, and alpha from
          `_probe_exponent`, one of `automorphism_exponents`;
        - `embeddings._fit_kappa`: the columns are K = b diag(c) T with
          b a basis (its pivot test), no c zero and T invertible, and
          alpha 0 or from `_frobenius_exponent`;
        - `generate.random_semilinear`: the columns are `randbelow(q)`
          codes that passed the constructor's own `linalg.rank` test, and
          alpha went through `checked_alpha`.
        """
        kappa = object.__new__(cls)
        object.__setattr__(kappa, "space", space)
        object.__setattr__(kappa, "matrix", linalg.transpose(columns))
        object.__setattr__(kappa, "alpha", alpha)
        return kappa

    def apply(self, point) -> tuple[int, ...]:
        (image,) = self.images((self.space.normalize(point),))
        return image

    def images(self, rows):
        """Lazy images of canonical rows: `apply` without its validation.

        The Frobenius power goes through the field's lookup table when
        alpha != 0, then each row through `linalg.mat_vec` and
        `linalg.canonical`.
        """
        field, matrix = self.space.field, self.matrix
        if self.alpha:
            frob = field.frobenius_table[self.alpha]
            rows = ([frob[a] for a in row] for row in rows)
        return (linalg.canonical(field, linalg.mat_vec(field, matrix, row)) for row in rows)
