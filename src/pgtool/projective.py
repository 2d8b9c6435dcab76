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
    PointInBase,
    PointNotInSubspace,
    SingularMatrix,
    SizeCapExceeded,
    SpaceMismatch,
)
from .fields import GaloisField

POINT_ENUM_CAP = 10**6


class ProjectiveSpace:
    """PG(n, q): immutable descriptor plus exact geometry operations."""

    def __init__(self, field: GaloisField, n: int):
        if n < 1:
            raise DimensionMismatch(f"projective dimension must be >= 1, got {n}")
        self.field = field
        self.n = n
        self.point_count = (field.q ** (n + 1) - 1) // (field.q - 1)
        self._points: list[tuple[int, ...]] | None = None
        self._index: dict[tuple[int, ...], int] | None = None

    # -- points ----------------------------------------------------------

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
        q = self.field.q
        if any(not isinstance(x, int) or not 0 <= x < q for x in vec):
            raise SpaceMismatch(f"coordinate codes must lie in [0, {q})")
        out = linalg.canonical(self.field, vec)
        if out is None:
            raise SpaceMismatch("the zero vector is not a projective point")
        return out

    def points(self) -> list[tuple[int, ...]]:
        """All points in lexicographic order of their coordinate codes."""
        if self._points is None:
            if self.point_count > POINT_ENUM_CAP:
                raise SizeCapExceeded(
                    f"{self.point_count} points exceed cap {POINT_ENUM_CAP}"
                )
            self._points = _coefficient_reps(self.field, self.n + 1)
            self._index = {pt: i for i, pt in enumerate(self._points)}
        return self._points

    def point_index(self, pt: tuple[int, ...]) -> int:
        self.points()
        return self._index[pt]

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
        n1, q = self.n + 1, self.field.q
        for r in rows:
            if len(r) != n1:
                raise DimensionMismatch("spanning vector of wrong length")
            for x in r:
                if type(x) is not int or not 0 <= x < q:
                    raise SpaceMismatch(f"coordinate codes must lie in [0, {q})")
        pivots, rrows = linalg.rref(self.field, rows)
        return Subspace(self, pivots, rrows)

    def span(self, points) -> "Subspace":
        return self.subspace(list(points))

    def full_subspace(self) -> "Subspace":
        n1 = self.n + 1
        rows = tuple(tuple(1 if j == i else 0 for j in range(n1)) for i in range(n1))
        return Subspace(self, tuple(range(n1)), rows)

    def meet(self, a: "Subspace", b: "Subspace") -> "Subspace":
        """Intersection, computed through orthogonal complements."""
        self._check_sub(a)
        self._check_sub(b)
        n1 = self.n + 1
        pa = linalg.nullspace(self.field, a.rows, n1)
        pb = linalg.nullspace(self.field, b.rows, n1)
        rows = linalg.nullspace(self.field, pa + pb, n1)
        return self.subspace(rows)

    def join(self, a: "Subspace", b: "Subspace") -> "Subspace":
        self._check_sub(a)
        self._check_sub(b)
        return self.subspace(a.rows + b.rows)

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

        Each line is built once from its reduced basis: pivot columns
        c1 < c2, the first row free after c1 except at c2, the second
        row free after c2.
        """
        n1 = self.n + 1
        elems = self.field.elements()
        bases = []
        for c1, c2 in combinations(range(n1), 2):
            k = c2 - c1 - 1
            for a in product(elems, repeat=n1 - c1 - 2):
                row1 = (0,) * c1 + (1,) + a[:k] + (0,) + a[k:]
                for b in product(elems, repeat=n1 - c2 - 1):
                    bases.append(((row1, (0,) * c2 + (1,) + b), (c1, c2)))
        bases.sort()
        return [Subspace(self, pivots, rows) for rows, pivots in bases]

    def lines_through(self, point, inside: "Subspace | None" = None) -> list["Subspace"]:
        """The pencil of lines through a point within a subspace, sorted by
        their reduced bases.

        With j the point's leading column (where it has entry 1), each
        line of the pencil meets the section {x in inside : x[j] = 0} in
        exactly one point: the line is not inside that hyperplane, since
        the point is not.  So spanning the point with each point of the
        section gives every line once, with one elimination per line.
        """
        point = self.normalize(point)
        if inside is None:
            inside = self.full_subspace()
        self._check_sub(inside)
        # the point is normalized already, so test membership directly
        if not linalg.in_rowspace(self.field, inside.pivots, inside.rows, point):
            raise PointNotInSubspace(f"{point} not in the given subspace")
        if inside.dim < 1:
            raise DimensionMismatch("pencil needs a subspace of dimension >= 1")
        j = point.index(1)
        pencil = [self.span((point, x)) for x in inside.points() if not x[j]]
        return sorted(pencil, key=lambda line: line.rows)

    def quotient_point(self, base: "Subspace", point) -> "Subspace":
        """The subspace spanned by base and one extra point.

        Two calls give equal results exactly when the extensions agree,
        so these subspaces serve as the points of the quotient modulo
        base, from which the quotient embedding is built.  PointInBase
        refuses a point of the base, which has no quotient point.
        """
        self._check_sub(base)
        point = self.normalize(point)
        # the point is normalized already, so test membership directly
        if linalg.in_rowspace(self.field, base.pivots, base.rows, point):
            raise PointInBase(f"{point} lies in the base subspace")
        return self.subspace(base.rows + (point,))

    def __repr__(self):
        return f"PG({self.n},{self.field.q})"

    def __eq__(self, other):
        return (
            isinstance(other, ProjectiveSpace)
            and self.field == other.field
            and self.n == other.n
        )

    def __hash__(self):
        return hash((self.field, self.n))


@functools.lru_cache(maxsize=None)
def _coeff_reps_cached(field: GaloisField, length: int) -> tuple[tuple[int, ...], ...]:
    reps = []
    for lead in range(length - 1, -1, -1):
        prefix = (0,) * lead
        for tail in _all_tuples(field, length - lead - 1):
            reps.append(prefix + (1,) + tail)
    return tuple(reps)


def _all_tuples(field: GaloisField, length: int) -> list[tuple[int, ...]]:
    out = [()]
    for _ in range(length):
        out = [t + (x,) for t in out for x in field.elements()]
    return out


def _coefficient_reps(field: GaloisField, length: int) -> list[tuple[int, ...]]:
    """Canonical nonzero coefficient tuples (first nonzero = 1), lex order."""
    return list(_coeff_reps_cached(field, length))


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

    def coords_of(self, vec) -> tuple[int, ...]:
        """Coefficients of a member point against the reduced basis."""
        vec = self.space.normalize(vec)
        if not linalg.in_rowspace(self.space.field, self.pivots, self.rows, vec):
            raise PointNotInSubspace(f"{vec} is not in the subspace")
        return tuple(vec[c] for c in self.pivots)

    def point_from_coords(self, coeffs) -> tuple[int, ...]:
        """The point with the given coefficients (not all 0) on the basis."""
        field = self.space.field
        add, mul = field.add, field.mul
        acc = [0] * (self.space.n + 1)
        for c, row in zip(coeffs, self.rows):
            if c:
                for j, x in enumerate(row):
                    if x:
                        acc[j] = add(acc[j], mul(c, x))
        # computed by field operations, so it needs no validation
        return linalg.canonical(field, acc)

    def points(self) -> tuple[tuple[int, ...], ...]:
        return _subspace_points(self)

    def is_subspace_of(self, other: "Subspace") -> bool:
        return all(
            linalg.in_rowspace(self.space.field, other.pivots, other.rows, r)
            for r in self.rows
        )

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
        q = self.space.field.q
        if any(type(x) is not int or not 0 <= x < q for r in mat for x in r):
            raise SpaceMismatch(f"matrix entries must be integer codes in [0, {q})")
        if type(self.alpha) is not int:
            raise SpaceMismatch(f"alpha must be an integer, got {self.alpha!r}")
        if linalg.rank(self.space.field, mat) != n1:
            raise SingularMatrix("matrix is not invertible")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "alpha", self.alpha % self.space.field.k)

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
