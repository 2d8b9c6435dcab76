"""Arc, oval, and conic machinery in projective planes.

A tangent (unisecant) of an arc is defined combinatorially as a line
meeting the arc in exactly one point; this matches even characteristic,
where the polarized bilinear form degenerates.  Plane computations are
coordinatized by the three reduced-basis vectors of the carrying plane,
so results do not depend on how the plane was presented.
"""

from __future__ import annotations

import functools
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
from .veronese import veronese_for


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

    @classmethod
    def from_span(cls, plane: Subspace, points) -> "PlaneArc":
        """The arc of canonical points whose span is the plane, without
        the constructor's checks.

        Only for points that are canonical and span `plane` by
        construction, as `embeddings.line_arc` gets them: table values
        `PointMap` validated at load, and the plane reduced from them.
        The normalization and membership tests would find nothing there.
        """
        arc = object.__new__(cls)
        object.__setattr__(arc, "plane", plane)
        object.__setattr__(arc, "points", frozenset(points))
        return arc

    @functools.cached_property
    def coords(self) -> dict:
        """Each point, in sorted order, mapped to its coordinates against
        the plane's reduced basis: a vector of a reduced-basis row space
        is the combination of the rows with its own pivot entries."""
        return {p: tuple(p[c] for c in self.plane.pivots) for p in sorted(self.points)}


def is_arc(arc: PlaneArc) -> bool:
    """True iff no 3 of the arc's points are collinear.

    Seen from a point P, every other point lies on exactly one line of
    the pencil at P (see `_pencil`), and a later point Z is on the line
    P Y exactly when it gets the same pencil parameter as Y.  A collinear
    triple is seen that way from its first point, so the points form an
    arc iff from each point the later ones get distinct parameters:
    O(m^2) field operations in plane coordinates, no elimination.
    """
    field = arc.plane.space.field
    coords = list(arc.coords.values())
    for i, c in enumerate(coords):
        ts = _pencil(field, c, coords[i + 1 :])[2]
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
    coords = list(arc.coords.values())
    if linalg.rank(field, coords) != 3:
        return False, None
    ver = veronese_for(ProjectiveSpace(field, 2))
    basis = linalg.nullspace(field, [ver.apply(c) for c in coords], 6)
    if not basis:
        return False, None
    want = set(coords)
    plane_points, rho = ver.source.points(), ver.image()
    basis_t = linalg.transpose(basis)
    for coeff_rep in _coefficient_reps(field, len(basis)):
        form = linalg.mat_vec(field, basis_t, coeff_rep)
        values = linalg.mat_vec(field, rho, form)  # f . rho(x) at every plane point
        if {x for x, v in zip(plane_points, values) if not v} == want:
            return True, form
    return False, None


def _pencil(field, point, others) -> tuple[tuple, tuple, list]:
    """The pencil at a point and the line of it that each other point is on.

    Works in the plane's basis coordinates.  With u, v spanning the
    dual vectors through `point`, the pencil lines are u - t v (t in
    GF(q)) and v (t = None).  Another point Y lies on the one with
    t = (u.Y)/(v.Y), or on v when v.Y = 0; u.Y and v.Y vanish together
    only at `point` itself.  Returns u, v and the t of each of `others`.

    `point` is normalized (plane coordinates of a normalized point are),
    so with j its leading column, u and v are e_f - point[f] e_j and
    e_g - point[g] e_j for the other two columns f < g: the canonical
    basis `linalg.nullspace` returns.  Each has two nonzero entries, so
    its product with Y is read off the field tables directly.
    """
    j = point.index(1)
    f, g = (k for k in range(3) if k != j)
    add, neg, mul, inv = field.add_table, field.neg_table, field.mul_table, field.inv
    u, v = (tuple(1 if k == h else neg[point[h]] if k == j else 0 for k in range(3)) for h in (f, g))
    minus_f, minus_g = mul[neg[point[f]]], mul[neg[point[g]]]
    ts = []
    for c in others:  # u.Y = Y[f] - point[f] Y[j], v.Y = Y[g] - point[g] Y[j]
        dv = add[c[g]][minus_g[c[j]]]
        ts.append(mul[add[c[f]][minus_f[c[j]]]][inv(dv)] if dv else None)
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
    `unisecants_at` without spanning the pencil.  The two lines meet in
    the cross product of their dual coordinates, a closed form like the
    pencil basis of `_pencil`, so no elimination is made.
    """
    space = arc.plane.space
    field = space.field
    p1, p2 = space.normalize(p1), space.normalize(p2)
    if p1 == p2:
        raise PointNotOnArc("tangent_meet needs two distinct arc points")
    # the unisecant at p1 meets the arc only in p1, so it is not the one
    # at p2, and the cross product of their duals is nonzero
    tangents = (_tangent_line(field, arc.coords, p) for p in (p1, p2))
    return arc.plane.point_from_coords(_cross(field, *tangents))


def _cross(field, a, b) -> tuple[int, int, int]:
    """The cross product a x b of two 3-vectors.

    In a plane it is the one vector orthogonal to both: the dual of the
    line through distinct points a and b, and the point where distinct
    lines with duals a and b meet.  It is zero exactly when a and b are
    proportional, so for two lines it also tells whether they are equal.
    """
    add, neg, mul = field.add_table, field.neg_table, field.mul_table
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (
        add[mul[a1][b2]][neg[mul[a2][b1]]],
        add[mul[a2][b0]][neg[mul[a0][b2]]],
        add[mul[a0][b1]][neg[mul[a1][b0]]],
    )


def lemma_h6_set(sigma: SemilinearMap, p0) -> frozenset:
    """Single intersection points of plane lines through p0 with their images.

    Requires a plane collineation moving p0 and not fixing the line
    joining p0 to its image.  Every line and meet is a cross product
    (see `_cross`), so no elimination is made.  With j the leading
    column of p0, each line through p0 holds exactly one point x with
    x[j] = 0, as in `ProjectiveSpace.lines_through`; the line has dual
    p0 x x, its image the dual sigma(p0) x sigma(x), and the two lines
    meet in the cross product of those duals.  That is never zero: a
    line through p0 that sigma fixed would hold sigma(p0) too, so it
    would be the joining line.
    """
    space = sigma.space
    if space.n != 2:
        raise DimensionMismatch("this construction lives in a plane")
    field = space.field
    p0 = space.normalize(p0)
    p2 = sigma.apply(p0)
    if p2 == p0:
        raise SigmaFixesP0(f"collineation fixes {p0}")
    (p3,) = sigma.images((p2,))
    if not any(_cross(field, _cross(field, p0, p2), _cross(field, p2, p3))):
        raise SigmaFixesLine("collineation fixes the joining line")
    j = p0.index(1)
    section = [x for x in space.points() if not x[j]]
    return frozenset(
        linalg.canonical(field, _cross(field, _cross(field, p0, x), _cross(field, p2, image)))
        for x, image in zip(section, sigma.images(section))
    )


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
