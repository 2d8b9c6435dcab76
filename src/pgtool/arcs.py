"""Arc, oval, and conic machinery in projective planes.

A tangent (unisecant) of an arc is defined combinatorially as a line
meeting the arc in exactly one point; this matches even characteristic,
where the polarized bilinear form degenerates.  Plane computations are
coordinatized by the three reduced-basis vectors of the carrying plane,
so results do not depend on how the plane was presented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from . import linalg
from .errors import (
    DimensionMismatch,
    NoUniqueUnisecant,
    PointNotOnArc,
    PointOutsidePlane,
    SigmaFixesLine,
    SigmaFixesP0,
    SizeCapExceeded,
)
from .fields import create_field, prime_power
from .projective import ProjectiveSpace, SemilinearMap, Subspace, _coefficient_reps
from .veronese import monomial_pairs


@dataclass(frozen=True)
class PlaneArc:
    """A point set inside a dim-2 subspace of some PG(n, q)."""

    plane: Subspace
    points: frozenset

    def __post_init__(self):
        if self.plane.dim != 2:
            raise DimensionMismatch(f"carrier has dim {self.plane.dim}, expected 2")
        space, pivots, rows = self.plane.space, self.plane.pivots, self.plane.rows
        pts = frozenset(space.normalize(p) for p in self.points)
        for p in pts:  # normalized already, so test membership directly
            if not linalg.in_rowspace(space.field, pivots, rows, p):
                raise PointOutsidePlane(f"{p} is outside the plane")
        object.__setattr__(self, "points", pts)


def is_arc(space: ProjectiveSpace, points, plane: Subspace) -> bool:
    """True iff no 3 of the points are collinear (all inside the plane).

    Seen from a point P, every other point lies on exactly one line of
    the pencil at P (see `_pencil`), and a later point Z is on the line
    P Y exactly when it gets the same pencil parameter as Y.  A collinear
    triple is seen that way from its first point, so the points form an
    arc iff from each point the later ones get distinct parameters:
    O(m^2) field operations in plane coordinates, no elimination.
    """
    pts = {space.normalize(p) for p in points}
    for p in pts:  # normalized already, so test membership directly
        if not linalg.in_rowspace(space.field, plane.pivots, plane.rows, p):
            raise PointOutsidePlane(f"{p} is outside the plane")
    if plane.dim != 2:
        raise DimensionMismatch(f"carrier has dim {plane.dim}, expected 2")
    coords = list(_plane_coords(plane, pts).values())
    for i, c in enumerate(coords):
        ts = _pencil(space.field, c, coords[i + 1 :])[2]
        if len(set(ts)) != len(ts):
            return False
    return True


def unisecants_at(arc: PlaneArc, point) -> list[Subspace]:
    """All lines of the carrying plane meeting the arc only in `point`.

    The literal unisecant count, kept as an oracle: `tangent_meet`,
    which finds the unisecant without spanning the pencil, and the
    tangent count in `is_regular` are checked against it.  The
    benchmark tracer wraps it by name.
    """
    space = arc.plane.space
    point = space.normalize(point)
    if point not in arc.points:
        raise PointNotOnArc(f"{point} is not on the arc")
    out = []
    for line in space.lines_through(point, arc.plane):
        hits = sum(1 for p in line.points() if p in arc.points)
        if hits == 1:
            out.append(line)
    return out


def _plane_coords(plane: Subspace, points) -> dict[tuple, tuple[int, int, int]]:
    """Points of the plane, in sorted order, mapped to coordinates against
    the plane's reduced basis.

    A vector of a reduced-basis row space is the combination of the rows
    with its own pivot entries; callers have checked membership.
    """
    return {p: tuple(p[c] for c in plane.pivots) for p in sorted(points)}


def is_regular_conic(arc: PlaneArc) -> tuple[bool, tuple[int, ...] | None]:
    """Decide whether the arc is the full zero set of a plane quadratic form.

    Requires exactly q+1 points with no 3 collinear.  The witness is a
    6-coefficient form over the plane's basis coordinates.  A rank test
    stands in for the arc test: q+1 common zeros of a nonzero ternary
    form are either a conic, which is an arc, or a repeated line, so
    among the sets that equal such a zero set "not collinear" and "arc"
    agree; any other set fails the search below either way.
    """
    field = arc.plane.space.field
    if len(arc.points) != field.q + 1:
        return False, None
    coords = list(_plane_coords(arc.plane, arc.points).values())
    if linalg.rank(field, coords) != 3:
        return False, None
    pairs = monomial_pairs(2)
    rows = [tuple(field.mul(c[i], c[j]) for i, j in pairs) for c in coords]
    basis = linalg.nullspace(field, rows, 6)
    if not basis:
        return False, None
    want = set(coords)
    plane_points = _coefficient_reps(field, 3)
    add, mul = field.add, field.mul
    for coeff_rep in _coefficient_reps(field, len(basis)):
        form = [0] * 6
        for c, b in zip(coeff_rep, basis):
            if c:
                for idx, x in enumerate(b):
                    form[idx] = add(form[idx], mul(c, x))
        zeros = set()
        for pt in plane_points:
            acc = 0
            for (i, j), c in zip(pairs, form):
                if c:
                    t = mul(pt[i], pt[j])
                    if t:
                        acc = add(acc, mul(c, t))
            if not acc:
                zeros.add(pt)
        if zeros == want:
            return True, tuple(form)
    return False, None


def _pencil(field, point, others) -> tuple[tuple, tuple, list]:
    """The pencil at a point and the line of it that each other point is on.

    Works in the plane's basis coordinates.  With u, v spanning the
    dual vectors through `point`, the pencil lines are u - t v (t in
    GF(q)) and v (t = None).  Another point Y lies on the one with
    t = (u.Y)/(v.Y), or on v when v.Y = 0; u.Y and v.Y vanish together
    only at `point` itself.  Returns u, v and the t of each of `others`.

    `point` is normalized (plane coordinates of a normalized point are),
    so with j its leading column, u and v are e_f - point[f] e_j for the
    two columns f != j: the canonical basis `linalg.nullspace` returns.
    """
    j = point.index(1)
    u, v = (
        tuple(1 if k == f else field.neg(point[f]) if k == j else 0 for k in range(3))
        for f in range(3)
        if f != j
    )
    add, mul, div = field.add, field.mul, field.div

    def dot(a, b):
        return add(add(mul(a[0], b[0]), mul(a[1], b[1])), mul(a[2], b[2]))

    ts = []
    for c in others:
        dv = dot(v, c)
        ts.append(div(dot(u, c), dv) if dv else None)
    return u, v, ts


def _tangent_line(field, coords: dict, point) -> tuple[int, int, int]:
    """Dual coordinates of the unique unisecant at an arc point.

    The unisecants are the pencil lines (see `_pencil`) that no other
    arc point picks.  ``coords`` maps every arc point to its plane
    coordinates.
    """
    if point not in coords:
        raise PointNotOnArc(f"{point} is not on the arc")
    others = [c for y, c in coords.items() if y != point]
    u, v, ts = _pencil(field, coords[point], others)
    secants = set(ts)
    free = [t for t in (*field.elements(), None) if t not in secants]
    if len(free) != 1:
        raise NoUniqueUnisecant(f"{len(free)} unisecants at {point}")
    t = free[0]
    if t is None:
        return v
    return tuple(field.sub(a, field.mul(t, b)) for a, b in zip(u, v))


def tangent_meet(arc: PlaneArc, p1, p2) -> tuple[int, ...]:
    """Intersection point of the unisecants at two distinct arc points.

    Each unisecant is found as the one line of the pencil that no secant
    uses (see `_tangent_line`), which gives the same line as
    `unisecants_at` without spanning the pencil.
    """
    space = arc.plane.space
    p1, p2 = space.normalize(p1), space.normalize(p2)
    if p1 == p2:
        raise PointNotOnArc("tangent_meet needs two distinct arc points")
    coords = _plane_coords(arc.plane, arc.points)
    tangents = [_tangent_line(space.field, coords, p) for p in (p1, p2)]
    # the unisecant at p1 meets the arc only in p1, so it is not the one
    # at p2: two distinct lines of a plane meet in exactly one point
    (meet,) = linalg.nullspace(space.field, tangents, 3)
    return arc.plane.point_from_coords(meet)


def lemma_h6_set(sigma: SemilinearMap, p0) -> frozenset:
    """Single intersection points of plane lines through p0 with their images.

    Requires a plane collineation moving p0 and not fixing the line
    joining p0 to its image.
    """
    space = sigma.space
    if space.n != 2:
        raise DimensionMismatch("this construction lives in a plane")
    p0 = space.normalize(p0)
    p2 = sigma.apply(p0)
    if p2 == p0:
        raise SigmaFixesP0(f"collineation fixes {p0}")
    joining = space.span((p0, p2))
    if space.span(tuple(sigma.images(joining.rows))) == joining:
        raise SigmaFixesLine("collineation fixes the joining line")
    out = set()
    lines = space.lines_through(p0)
    images = sigma.images(row for line in lines for row in line.rows)
    for line in lines:
        image = space.span((next(images), next(images)))
        if image == line:
            continue
        meet = space.meet(line, image)
        if meet.dim == 0:
            out.add(meet.rows[0])  # a reduced row leads with its pivot 1
    return frozenset(out)


@dataclass(frozen=True)
class SegreReport:
    q: int
    ovals: int
    conics: int
    non_conic_ovals: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "ovals": self.ovals,
            "conics": self.conics,
            "non_conic_ovals": [sorted(map(list, o)) for o in self.non_conic_ovals],
        }


SEGRE_QS = (2, 3, 4, 5, 7, 8, 9)
TRIANGLE = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def segre_scan(q: int) -> SegreReport:
    """Oval census of PG(2, q) from the ovals through the triangle T.

    T is the fundamental triangle (1,0,0), (0,1,0), (0,0,1).  An oval
    through T meets each side of T in its two vertices only, so its
    other q-2 points have all coordinates nonzero; a depth-first search
    over those (q-1)^2 points, in point-index order and pruned by
    one-line bitmasks, finds every oval through T.  Each is tested for
    being the exact zero set of a plane quadratic form.

    PGL(3, q) is transitive on ordered triangles and maps ovals to ovals
    and conics to conics.  Counting pairs (oval, ordered triangle inside
    it) both ways gives

        N * (q+1) q (q-1) = N_T * (q^2+q+1)(q^2+q) q^2,

    where N_T is the number of ovals through T, and the same for conics.
    ``non_conic_ovals`` lists the non-conic ovals through T, sorted;
    every non-conic oval is projectively equivalent to one of them, so
    the list is empty exactly when every oval is a conic.  Capped at the
    prime powers q <= 9.
    """
    if q not in SEGRE_QS:
        raise SizeCapExceeded(f"census is capped at q in {set(SEGRE_QS)}, got {q}")
    space = ProjectiveSpace(create_field(*prime_power(q)), 2)
    pts = space.points()
    # join[a][b]: bitmask of the line through points a and b
    join = [[0] * len(pts) for _ in pts]
    for line in space.lines():
        members = [space.point_index(p) for p in line.points()]
        mask = sum(1 << i for i in members)
        for a, b in combinations(members, 2):
            join[a][b] = join[b][a] = mask
    a, b, c = (space.point_index(p) for p in TRIANGLE)
    off_sides = ((1 << len(pts)) - 1) & ~(join[a][b] | join[a][c] | join[b][c])
    size = q + 1
    through_t = []

    def extend(chosen, avail):
        # avail: points after the last chosen one on no secant of `chosen`
        if len(chosen) == size:
            through_t.append(chosen)
            return
        while avail.bit_count() >= size - len(chosen):
            low = avail & -avail
            avail ^= low
            new = low.bit_length() - 1
            rest = avail
            for x in chosen:
                rest &= ~join[new][x]
            extend(chosen + (new,), rest)

    extend((a, b, c), off_sides)
    plane = space.full_subspace()
    # T's vertices precede every point off its sides in point order, so
    # the sorted ovals come out of the search in sorted order
    non_conic = []
    for oval in through_t:
        points = sorted(pts[i] for i in oval)
        if not is_regular_conic(PlaneArc(plane, frozenset(points)))[0]:
            non_conic.append(tuple(points))
    triangles = (q * q + q + 1) * (q * q + q) * q * q
    per_oval = (q + 1) * q * (q - 1)

    def census(n_t):
        total, rest = divmod(n_t * triangles, per_oval)
        if rest:
            raise RuntimeError(f"{n_t} sets through T do not scale to a census")
        return total

    return SegreReport(
        q=q,
        ovals=census(len(through_t)),
        conics=census(len(through_t) - len(non_conic)),
        non_conic_ovals=tuple(non_conic),
    )
