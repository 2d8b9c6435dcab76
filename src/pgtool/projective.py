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
from itertools import combinations

from . import linalg
from .errors import (
    DimensionMismatch,
    NotAFrame,
    NotALine,
    PointInBase,
    PointNotInSubspace,
    SingularMatrix,
    SingularSystem,
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
        """Canonical representative: first nonzero coordinate scaled to 1."""
        vec = tuple(vec)
        if len(vec) != self.n + 1:
            raise DimensionMismatch(
                f"expected {self.n + 1} coordinates, got {len(vec)}"
            )
        q = self.field.q
        if any(not isinstance(x, int) or not 0 <= x < q for x in vec):
            raise SpaceMismatch(f"coordinate codes must lie in [0, {q})")
        lead = next((x for x in vec if x), None)
        if lead is None:
            raise SpaceMismatch("the zero vector is not a projective point")
        if lead == 1:
            return vec
        f = self.field.inv(lead)
        mul = self.field.mul
        return tuple(mul(f, x) for x in vec)

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

    # -- subspaces ---------------------------------------------------------

    def subspace(self, rows) -> "Subspace":
        """Subspace spanned by any set of coordinate vectors (reduced on load)."""
        for r in rows:
            if len(r) != self.n + 1:
                raise DimensionMismatch("spanning vector of wrong length")
        pivots, rrows = linalg.rref(self.field, rows)
        return Subspace(self, pivots, rrows)

    def span(self, points) -> "Subspace":
        return self.subspace(list(points))

    def empty_subspace(self) -> "Subspace":
        return Subspace(self, (), ())

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
        """All 1-dimensional subspaces."""
        seen = {}
        pts = self.points()
        for p, q in combinations(pts, 2):
            line = self.span((p, q))
            seen.setdefault(line.rows, line)
        return [seen[k] for k in sorted(seen)]

    def lines_through(self, point, inside: "Subspace | None" = None) -> list["Subspace"]:
        """The pencil of lines through a point within a subspace."""
        point = self.normalize(point)
        if inside is None:
            inside = self.full_subspace()
        self._check_sub(inside)
        if not inside.contains(point):
            raise PointNotInSubspace(f"{point} not in the given subspace")
        if inside.dim < 1:
            raise DimensionMismatch("pencil needs a subspace of dimension >= 1")
        seen = {}
        for q in inside.points():
            if q == point:
                continue
            line = self.span((point, q))
            seen.setdefault(line.rows, line)
        return [seen[k] for k in sorted(seen)]

    def line_points(self, line: "Subspace") -> list[tuple[int, ...]]:
        self._check_sub(line)
        if line.dim != 1:
            raise NotALine(f"subspace of dimension {line.dim} is not a line")
        return list(line.points())

    def quotient_point(self, base: "Subspace", point) -> "Subspace":
        """The subspace spanned by base and one extra point.

        Two calls give equal results exactly when the extensions agree,
        so these subspaces serve as the points of the quotient modulo
        base.
        """
        self._check_sub(base)
        point = self.normalize(point)
        if base.contains(point):
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
        field = self.space.field
        add, mul = field.add, field.mul
        acc = [0] * (self.space.n + 1)
        for c, row in zip(coeffs, self.rows):
            if c:
                for j, x in enumerate(row):
                    if x:
                        acc[j] = add(acc[j], mul(c, x))
        return self.space.normalize(acc)

    def points(self) -> tuple[tuple[int, ...], ...]:
        return _subspace_points(self)

    def is_subspace_of(self, other: "Subspace") -> bool:
        return all(
            linalg.in_rowspace(self.space.field, other.pivots, other.rows, r)
            for r in self.rows
        )

    def __le__(self, other):
        return self.is_subspace_of(other)

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


def is_frame(space: ProjectiveSpace, points) -> bool:
    """True iff the ordered list is dim+2 points, any dim+1 independent."""
    pts = [space.normalize(p) for p in points]
    if len(pts) != space.n + 2:
        return False
    if len(set(pts)) != len(pts):
        return False
    # With n+2 spanning points there is one dependency up to scalar; the
    # points form a frame iff all its coefficients are nonzero.
    left_null = linalg.nullspace(space.field, linalg.transpose(pts), len(pts))
    if len(left_null) != 1:
        return False
    return all(left_null[0])


def scale_frame(field: GaloisField, frame_points) -> list[tuple[int, ...]] | None:
    """Representatives of the first n+1 frame points, scaled to sum to the last.

    The scaled vectors are the columns of the matrix that sends the
    standard frame to the given one.  Returns None when the scaling
    system is singular, which for n+2 points of PG(n) happens exactly
    when they do not form a frame.
    """
    cols, unit = frame_points[:-1], frame_points[-1]
    scales = linalg.solve_columns(field, cols, unit)
    if scales is None or not all(scales):
        return None
    mul = field.mul
    return [tuple(mul(s, x) for x in col) for s, col in zip(scales, cols)]


def frame_coordinates(space: ProjectiveSpace, frame_points, point) -> tuple[int, ...]:
    """Coordinates of a point in the system where the frame is standard.

    Representatives of the first n+1 frame points are rescaled so that
    their sum represents the last one; the returned tuple solves the
    point against that basis, normalized like any other point.
    """
    pts = [space.normalize(p) for p in frame_points]
    if not is_frame(space, pts):
        raise NotAFrame("the given points do not form a frame")
    scaled = scale_frame(space.field, pts)
    if scaled is None:
        raise SingularSystem("frame scaling system is singular")
    coords = linalg.solve_columns(space.field, scaled, space.normalize(point))
    if coords is None:
        raise SingularSystem("point cannot be expressed in the frame basis")
    return space.normalize(coords)


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
        if linalg.rank(self.space.field, mat) != n1:
            raise SingularMatrix("matrix is not invertible")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "alpha", self.alpha % self.space.field.k)

    @property
    def is_projective(self) -> bool:
        return self.alpha == 0

    def apply(self, point) -> tuple[int, ...]:
        field = self.space.field
        vec = self.space.normalize(point)
        if self.alpha:
            frob = field.frobenius
            vec = tuple(frob(x, self.alpha) for x in vec)
        return self.space.normalize(linalg.mat_vec(field, self.matrix, vec))

    def then(self, other: "SemilinearMap") -> "SemilinearMap":
        """Composite map: apply self first, then other."""
        if self.space != other.space:
            raise SpaceMismatch("composition requires a common space")
        field = self.space.field
        frob = field.frobenius
        twisted = tuple(
            tuple(frob(x, other.alpha) for x in row) for row in self.matrix
        )
        return SemilinearMap(
            self.space,
            linalg.mat_mul(field, other.matrix, twisted),
            self.alpha + other.alpha,
        )

    def inverse(self) -> "SemilinearMap":
        field = self.space.field
        minv = linalg.mat_inv(field, self.matrix)
        if minv is None:
            raise SingularMatrix("matrix is not invertible")
        back = (field.k - self.alpha) % field.k
        frob = field.frobenius
        twisted = tuple(tuple(frob(x, back) for x in row) for row in minv)
        return SemilinearMap(self.space, twisted, back)

    def proj_equal(self, other: "SemilinearMap") -> bool:
        """Equality as point transformations (matrices up to a scalar)."""
        if self.space != other.space or self.alpha != other.alpha:
            return False
        return _scale_matrix(self.space.field, self.matrix) == _scale_matrix(
            other.space.field, other.matrix
        )


def _scale_matrix(field: GaloisField, matrix):
    flat = [x for row in matrix for x in row]
    lead = next(x for x in flat if x)
    f = field.inv(lead)
    return tuple(tuple(field.mul(f, x) for x in row) for row in matrix)


def apply_semilinear(kappa: SemilinearMap, point) -> tuple[int, ...]:
    return kappa.apply(point)


def enumerate_points(space: ProjectiveSpace) -> list[tuple[int, ...]]:
    return space.points()
