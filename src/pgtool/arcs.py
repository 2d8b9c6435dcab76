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
    ParallelLinesImpossible,
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
        pts = frozenset(self.plane.space.normalize(p) for p in self.points)
        for p in pts:
            if not self.plane.contains(p):
                raise PointOutsidePlane(f"{p} is outside the plane")
        object.__setattr__(self, "points", pts)


def plane_arc(space: ProjectiveSpace, points) -> PlaneArc:
    """Arc carrier from the span of its points (which must be a plane)."""
    pts = [space.normalize(p) for p in points]
    plane = space.span(pts)
    return PlaneArc(plane, frozenset(pts))


def collinear(space: ProjectiveSpace, a, b, c) -> bool:
    return linalg.rank(space.field, [space.normalize(p) for p in (a, b, c)]) <= 2


def is_arc(space: ProjectiveSpace, points, plane: Subspace) -> bool:
    """True iff no 3 of the points are collinear (all inside the plane)."""
    pts = [space.normalize(p) for p in set(map(tuple, points))]
    for p in pts:
        if not plane.contains(p):
            raise PointOutsidePlane(f"{p} is outside the plane")
    return all(not collinear(space, a, b, c) for a, b, c in combinations(pts, 3))


def is_oval(space: ProjectiveSpace, points, plane: Subspace) -> bool:
    pts = set(space.normalize(p) for p in points)
    return len(pts) == space.field.q + 1 and is_arc(space, pts, plane)


def unisecants_at(arc: PlaneArc, point) -> list[Subspace]:
    """All lines of the carrying plane meeting the arc only in `point`."""
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


def _plane_coords(arc: PlaneArc) -> dict[tuple, tuple[int, int, int]]:
    """Arc points, in sorted order, mapped to coordinates against the
    plane's reduced basis.

    A vector of a reduced-basis row space is the combination of the rows
    with its own pivot entries, and PlaneArc has checked membership.
    """
    pivots = arc.plane.pivots
    return {p: tuple(p[c] for c in pivots) for p in sorted(arc.points)}


def is_regular_conic(arc: PlaneArc) -> tuple[bool, tuple[int, ...] | None]:
    """Decide whether the arc is the full zero set of a plane quadratic form.

    Requires exactly q+1 points with no 3 collinear.  The witness is a
    6-coefficient form over the plane's basis coordinates.  No separate
    degeneracy test is needed: a form whose zero set is a (q+1)-arc can
    be neither a line pair, a repeated line, nor a point.
    """
    space = arc.plane.space
    field = space.field
    if len(arc.points) != field.q + 1:
        return False, None
    if not is_arc(space, arc.points, arc.plane):
        return False, None
    coords = list(_plane_coords(arc).values())
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


def _tangent_line(field, coords: dict, point) -> tuple[int, int, int]:
    """Dual coordinates of the unique unisecant at an arc point.

    Works in the plane's basis coordinates.  With u, v spanning the
    lines through the point, the pencil line u - t v (t in GF(q)) or v
    (t = None) passes through another arc point Y exactly when
    t = (u.Y)/(v.Y), resp. v.Y = 0; the unisecants are the pencil lines
    that no such Y picks.  ``coords`` maps every arc point to its plane
    coordinates.
    """
    if point not in coords:
        raise PointNotOnArc(f"{point} is not on the arc")
    u, v = linalg.nullspace(field, (coords[point],), 3)
    add, mul, div = field.add, field.mul, field.div

    def dot(a, b):
        return add(add(mul(a[0], b[0]), mul(a[1], b[1])), mul(a[2], b[2]))

    secants = set()
    for y, c in coords.items():
        if y != point:
            dv = dot(v, c)
            secants.add(div(dot(u, c), dv) if dv else None)
    free = [t for t in (*field.elements(), None) if t not in secants]
    if len(free) != 1:
        raise NoUniqueUnisecant(f"{len(free)} unisecants at {point}")
    t = free[0]
    if t is None:
        return v
    return tuple(field.sub(a, mul(t, b)) for a, b in zip(u, v))


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
    coords = _plane_coords(arc)
    tangents = [_tangent_line(space.field, coords, p) for p in (p1, p2)]
    meet = linalg.nullspace(space.field, tangents, 3)
    if len(meet) != 1:
        raise ParallelLinesImpossible(
            f"tangent intersection has dimension {len(meet) - 1}"
        )
    return arc.plane.point_from_coords(meet[0])


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
    a, b = joining.rows
    if space.span((sigma.apply(a), sigma.apply(b))) == joining:
        raise SigmaFixesLine("collineation fixes the joining line")
    out = set()
    for line in space.lines_through(p0):
        u, v = line.rows
        image = space.span((sigma.apply(u), sigma.apply(v)))
        if image == line:
            continue
        meet = space.meet(line, image)
        if meet.dim == 0:
            out.add(space.normalize(meet.rows[0]))
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


def segre_scan(q: int) -> SegreReport:
    """Exhaustive oval census of PG(2, q): every (q+1)-subset is scanned.

    Feasible for q up to 5 (C(31, 6) subsets); each oval found is tested
    for being the exact zero set of a plane quadratic form.
    """
    if q not in (2, 3, 4, 5):
        raise SizeCapExceeded(f"scan is capped at q in {{2,3,4,5}}, got {q}")
    space = ProjectiveSpace(create_field(*prime_power(q)), 2)
    pts = space.points()
    npts = len(pts)
    # line_rest[a][b]: points of the line through a and b, minus a and b
    line_rest = [[0] * npts for _ in range(npts)]
    for i, j in combinations(range(npts), 2):
        mask = 0
        for p in space.span((pts[i], pts[j])).points():
            mask |= 1 << space.point_index(p)
        mask &= ~(1 << i) & ~(1 << j)
        line_rest[i][j] = mask
        line_rest[j][i] = mask
    bit = [1 << i for i in range(npts)]
    size = q + 1
    ovals = []
    for combo in combinations(range(npts), size):
        mask = 0
        for i in combo:
            mask |= bit[i]
        good = True
        for ai in range(size - 1):
            rest_a = line_rest[combo[ai]]
            for bi in range(ai + 1, size):
                if rest_a[combo[bi]] & mask:
                    good = False
                    break
            if not good:
                break
        if good:
            ovals.append(combo)
    plane = space.full_subspace()
    non_conic = []
    for combo in ovals:
        arc = PlaneArc(plane, frozenset(pts[i] for i in combo))
        ok, _ = is_regular_conic(arc)
        if not ok:
            non_conic.append(tuple(pts[i] for i in combo))
    return SegreReport(
        q=q,
        ovals=len(ovals),
        conics=len(ovals) - len(non_conic),
        non_conic_ovals=tuple(non_conic),
    )
