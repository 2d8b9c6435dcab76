"""Verification and reconstruction of candidate quadratic embeddings.

A candidate map is an explicit table sending every point of the source
space to a point of the target space.  The verifier checks that taking
linear spans of image sets and pulling back reproduces the quadratic
closure on the source, for every subset in the selected mode, and that
the image spans the whole target.  For maps that pass a regularity
test, the reconstruction pipeline builds a distinguished target frame
from tangent intersections of image conics, reads off the field
automorphism, and produces the unique collineation whose composition
with the Veronese map reproduces the table; the result is certified
point by point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations

from . import linalg
from .arcs import PlaneArc, is_arc, tangent_meet
from .errors import (
    BetaUnavailable,
    DimensionMismatch,
    FieldMismatch,
    ForeignTarget,
    FrameCheckFailed,
    ImageNotAPoint,
    InvalidPointMap,
    LinesNotConcurrent,
    ModeInfeasible,
    NoAutomorphismMatch,
    NotACollineation,
    NotAFrame,
    NotComplementary,
    NotIncident,
    NotALine,
    NoUniqueUnisecant,
    NotRegular,
    NotTotal,
    ParallelLinesImpossible,
    SingularMatrix,
    VerificationFailed,
)
from .fields import field_from_descriptor
from .prng import SplitMix64
from .projective import (
    ProjectiveSpace,
    SemilinearMap,
    Subspace,
    is_frame,
    scale_frame,
    standard_frame,
)
from .quadrics import closure_points
from .veronese import delta, monomial_pairs, veronese_for

EXHAUSTIVE_CAP = 15
REDUCED_CAP = 10**7


class PointMap:
    """Total injective-candidate map between point sets, given as a table."""

    def __init__(self, source: ProjectiveSpace, target: ProjectiveSpace, table: dict):
        _check_field_compatible(source, target)
        self.source = source
        self.target = target
        norm = {}
        for key, val in table.items():
            norm[source.normalize(key)] = target.normalize(val)
        pts = source.points()
        missing = [p for p in pts if p not in norm]
        if missing:
            raise NotTotal(f"table misses {len(missing)} source points, e.g. {missing[0]}")
        if len(norm) != len(pts):
            extra = set(norm) - set(pts)
            raise InvalidPointMap(f"table has non-source keys, e.g. {next(iter(extra))}")
        seen: dict[tuple, tuple] = {}
        for p in pts:
            img = norm[p]
            if img in seen:
                raise InvalidPointMap(
                    f"not injective: {seen[img]} and {p} both map to {img}"
                )
            seen[img] = p
        self.table = {p: norm[p] for p in pts}

    @classmethod
    def from_function(cls, source, target, fn) -> "PointMap":
        return cls(source, target, {p: fn(p) for p in source.points()})

    def apply(self, point):
        return self.table[self.source.normalize(point)]

    def image(self) -> list:
        return [self.table[p] for p in self.source.points()]

    def __eq__(self, other):
        return (
            isinstance(other, PointMap)
            and self.source == other.source
            and self.target == other.target
            and self.table == other.table
        )


def _check_field_compatible(source: ProjectiveSpace, target: ProjectiveSpace):
    fs, ft = source.field, target.field
    if fs == ft:
        return
    # A target over a strictly larger field is accepted only when the
    # source field embeds into it: same characteristic, degree dividing.
    if fs.p != ft.p or ft.k % fs.k != 0:
        raise FieldMismatch(
            f"target field GF({ft.q}) admits no embedding of GF({fs.q})"
        )


# -- map files ----------------------------------------------------------------


def point_map_to_dict(pm: PointMap) -> dict:
    if pm.source.field != pm.target.field:
        raise FieldMismatch("map files carry a single field")
    return {
        "field": pm.source.field.descriptor(),
        "n": pm.source.n,
        "n_prime": pm.target.n,
        "pairs": [[list(src), list(pm.table[src])] for src in pm.source.points()],
    }


def point_map_from_dict(data: dict) -> PointMap:
    try:
        field = field_from_descriptor(data["field"])
        source = ProjectiveSpace(field, int(data["n"]))
        target = ProjectiveSpace(field, int(data["n_prime"]))
        table = {}
        for src, tgt in data["pairs"]:
            key = source.normalize(src)
            if key in table:
                raise InvalidPointMap(f"duplicate source point {key}")
            table[key] = target.normalize(tgt)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidPointMap(f"malformed map data: {exc!r}") from exc
    return PointMap(source, target, table)


def save_point_map(pm: PointMap, path) -> None:
    with open(path, "w") as fh:
        json.dump(point_map_to_dict(pm), fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


def load_point_map(path) -> PointMap:
    with open(path) as fh:
        return point_map_from_dict(json.load(fh))


def save_semilinear(kappa: SemilinearMap, path) -> None:
    data = {"matrix": [list(r) for r in kappa.matrix], "alpha_exponent": kappa.alpha}
    with open(path, "w") as fh:
        json.dump(data, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


def load_semilinear(space: ProjectiveSpace, path) -> SemilinearMap:
    with open(path) as fh:
        data = json.load(fh)
    return SemilinearMap(space, tuple(map(tuple, data["matrix"])), data["alpha_exponent"])


# -- the verifier -------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingReport:
    """Verifier outcome.

    ``violated_set`` is the first subset whose closure differs from the
    span preimage; it is None when every checked subset agrees.  A map
    can fail on the span condition alone, in which case no witness
    subset exists and ``span_condition`` carries the reason.
    """

    is_embedding: bool
    mode: str
    violated_set: frozenset | None
    span_condition: bool


def _subset_iter(npts: int, max_size: int):
    for size in range(max_size + 1):
        yield from combinations(range(npts), size)


def is_quadratic_embedding(
    nu: PointMap, mode: str = "reduced", seed: int | None = None, trials: int | None = None
) -> EmbeddingReport:
    """Check the closure-transfer identity subset by subset.

    Modes: ``exhaustive`` scans every subset of the source (at most
    EXHAUSTIVE_CAP points); ``reduced`` scans subsets of size up to
    n'+1, which suffices because any subset contains a spanning subset
    of that size with the same image span, and the closure operator is
    monotone and idempotent; ``sampled`` draws ``trials`` seeded random
    subsets.  Subsets are scanned in deterministic size-then-lex order,
    so the reported witness is reproducible.
    """
    source, target = nu.source, nu.target
    src_pts = source.points()
    npts = len(src_pts)
    span_ok = linalg.rank(target.field, nu.image()) == target.n + 1

    if mode == "exhaustive":
        if npts > EXHAUSTIVE_CAP:
            raise ModeInfeasible(f"{npts} points exceed exhaustive cap {EXHAUSTIVE_CAP}")
        subsets = _subset_iter(npts, npts)
    elif mode == "reduced":
        max_size = min(npts, target.n + 1)
        total = sum(math.comb(npts, s) for s in range(max_size + 1))
        if total > REDUCED_CAP:
            raise ModeInfeasible(f"{total} subsets exceed reduced cap {REDUCED_CAP}")
        subsets = _subset_iter(npts, max_size)
    elif mode == "sampled":
        if seed is None or trials is None:
            raise ModeInfeasible("sampled mode needs seed and trials")
        rng = SplitMix64(seed)

        def _draws():
            for _ in range(trials):
                size = rng.randbelow(npts + 1)
                yield tuple(rng.sample_indices(npts, size))

        subsets = _draws()
    else:
        raise ModeInfeasible(f"unknown mode {mode!r}")

    for idx in subsets:
        subset = [src_pts[i] for i in idx]
        if closure_points(source, subset) != span_preimage(nu, subset):
            return EmbeddingReport(False, mode, frozenset(subset), span_ok)
    return EmbeddingReport(span_ok, mode, None, span_ok)


def span_preimage(nu: PointMap, pts) -> frozenset:
    """Source points whose images lie in the span of the images of `pts`.

    `pts` must be normalized source points.
    """
    field = nu.target.field
    pivots, rrows = linalg.rref(field, [nu.table[p] for p in pts])
    return frozenset(
        x for x, y in nu.table.items() if linalg.in_rowspace(field, pivots, rrows, y)
    )


def check_closure_image(nu: PointMap, subset) -> bool:
    """Image of the closure equals span of the image cut with the image set,
    and the span preimage is closed on the source side.

    As nu is injective, the first condition says that the closure equals
    the span preimage, and a closure is always closed, so that one
    comparison decides both.
    """
    pts = [nu.source.normalize(p) for p in subset]
    return closure_points(nu.source, pts) == span_preimage(nu, pts)


# -- regularity ----------------------------------------------------------------


def _line_image_is_arc(nu: PointMap, line: Subspace) -> bool:
    imgs = [nu.table[x] for x in line.points()]
    plane = nu.target.span(imgs)
    return plane.dim == 2 and is_arc(nu.target, imgs, plane)


def is_regular_at(nu: PointMap, point, line: Subspace) -> bool:
    """Unique unisecant through the image of `point` inside the image plane.

    By the tangent count in `is_regular`, this holds exactly when the
    line image is a plane arc and the target field is the source field.
    """
    point = nu.source.normalize(point)
    if line.dim != 1:
        raise NotALine("regularity is tested against a line")
    if not line.contains(point):
        raise NotIncident(f"{point} does not lie on the line")
    return nu.source.field == nu.target.field and _line_image_is_arc(nu, line)


def is_regular(nu: PointMap) -> bool:
    """Every line image is a plane arc with a unique unisecant at each point.

    Tangent count: nu is injective, so a line image is q+1 distinct
    points.  Once they form an arc in a plane over GF(q'), each lies on
    q secants, one to every other image point, which leaves q'-q+1
    unisecants among the q'+1 lines through it in the plane.  That is 1
    exactly when the target field equals the source field; a target over
    a larger field is allowed, and then no image point has a unique
    unisecant.  So the unisecants need not be enumerated.
    """
    if nu.source.field != nu.target.field:
        return False
    return all(_line_image_is_arc(nu, line) for line in nu.source.lines())


# -- the affine restriction and its extension ---------------------------------


def default_complement(space: ProjectiveSpace, sub: Subspace) -> Subspace:
    """Deterministic complement: greedy extension by unit vectors."""
    field = space.field
    rows = list(sub.rows)
    added = []
    for i in range(space.n + 1):
        unit = tuple(1 if j == i else 0 for j in range(space.n + 1))
        if linalg.rank(field, rows + added + [unit]) > len(rows) + len(added):
            added.append(unit)
    return space.span(added)


def random_complement(space: ProjectiveSpace, sub: Subspace, rng: SplitMix64) -> Subspace:
    field = space.field
    pts = space.points()
    rows = list(sub.rows)
    added = []
    need = space.n + 1 - len(rows)
    while len(added) < need:
        cand = pts[rng.randbelow(len(pts))]
        if linalg.rank(field, rows + added + [cand]) > len(rows) + len(added):
            added.append(cand)
    return space.span(added)


def build_iota(nu: PointMap, hyperplane: Subspace, complement: Subspace) -> dict:
    """Map each point outside the hyperplane to a point of the complement.

    The image of a point A is the intersection of the complement with
    the span of the images of the hyperplane together with A; for a
    quadratic embedding this cut is a single point.
    """
    source, target = nu.source, nu.target
    if hyperplane.dim != source.n - 1:
        raise DimensionMismatch("expected a hyperplane of the source")
    base = target.span([nu.table[x] for x in hyperplane.points()])
    if target.meet(base, complement).dim != -1 or target.join(base, complement).dim != target.n:
        raise NotComplementary("complement does not complement the image span")
    out = {}
    hyper_pts = set(hyperplane.points())
    for a in source.points():
        if a in hyper_pts:
            continue
        cut = target.meet(target.subspace(base.rows + (nu.table[a],)), complement)
        if cut.dim != 0:
            raise ImageNotAPoint(
                f"image of {a} cuts the complement in dimension {cut.dim}"
            )
        out[a] = target.normalize(cut.rows[0])
    return out


@dataclass
class AffineExtension:
    """A collineation of the source onto the complement, extending iota."""

    hyperplane: Subspace
    complement: Subspace
    table: dict
    map: SemilinearMap  # source coordinates -> complement basis coordinates

    @property
    def alpha(self) -> int:
        return self.map.alpha


def _probe_exponent(space: ProjectiveSpace, scaled, images: dict) -> int | None:
    """Frobenius exponent that the probe points (1, t, 0, ..., 0) reveal.

    Each probe image is solved against the scaled frame columns; a
    semilinear map with exponent m gives coordinates proportional to
    (1, t^(p^m), 0, ..., 0).  Returns None when some probe image has no
    nonzero leading coordinate or no exponent matches every ratio.
    """
    field = space.field
    ratios = {}
    for t in field.elements():
        probe = space.normalize((1, t) + (0,) * (space.n - 1))
        sol = linalg.solve_columns(field, scaled, images[probe])
        if sol is None or not sol[0]:
            return None
        ratios[t] = field.div(sol[1], sol[0])
    return next(
        (
            m
            for m in field.automorphism_exponents()
            if all(ratios[t] == field.frobenius(t, m) for t in field.elements())
        ),
        None,
    )


def _fit_semilinear(space: ProjectiveSpace, coords_of: dict) -> SemilinearMap:
    """Fit matrix and Frobenius exponent to a full point-image table.

    ``coords_of`` assigns each source point an (n+1)-coordinate image.
    Raises NotACollineation whenever the table is not semilinear.
    """
    scaled = scale_frame(space.field, [coords_of[u] for u in standard_frame(space)])
    if scaled is None:
        raise NotACollineation("frame images do not determine a coordinate system")
    alpha = _probe_exponent(space, scaled, coords_of)
    if alpha is None:
        raise NotACollineation("probe coordinates match no field automorphism")
    try:
        fitted = SemilinearMap(space, linalg.transpose(scaled), alpha)
    except SingularMatrix as exc:
        raise NotACollineation("fitted matrix is singular") from exc
    for x in space.points():
        if fitted.apply(x) != space.normalize(coords_of[x]):
            raise NotACollineation(f"table is not semilinear at {x}")
    return fitted


def extend_beta(
    nu: PointMap,
    hyperplane: Subspace,
    complement: Subspace | None = None,
    iota: dict | None = None,
) -> AffineExtension:
    """Extend the affine restriction over the hyperplane.

    For a hyperplane point P, every source line through P not inside
    the hyperplane contributes the line spanned by the iota-images of
    its other points; all contributions must share one point, which
    becomes the image of P.  The finished table is fitted to a matrix
    plus Frobenius exponent and verified point by point.
    """
    source, target = nu.source, nu.target
    if source.n < 2:
        raise DimensionMismatch("extension needs source dimension >= 2")
    if complement is None:
        complement = default_complement(target, target.span(
            [nu.table[x] for x in hyperplane.points()]
        ))
    if iota is None:
        iota = build_iota(nu, hyperplane, complement)
    table = dict(iota)
    for p in hyperplane.points():
        carrier = None
        seen = 0
        for g in source.lines_through(p):
            if g.is_subspace_of(hyperplane):
                continue
            span_img = target.span([iota[x] for x in g.points() if x != p])
            if span_img.dim != 1:
                raise LinesNotConcurrent(
                    f"iota image of a punctured line spans dimension {span_img.dim}"
                )
            carrier = span_img if carrier is None else target.meet(carrier, span_img)
            seen += 1
            if carrier.dim == -1:
                raise LinesNotConcurrent(f"candidate lines at {p} have empty meet")
        if seen < 2 or carrier.dim != 0:
            raise LinesNotConcurrent(
                f"candidate lines at {p} do not meet in a single point"
            )
        table[p] = target.normalize(carrier.rows[0])
    coords_of = {x: complement.coords_of(y) for x, y in table.items()}
    fitted = _fit_semilinear(source, coords_of)
    return AffineExtension(
        hyperplane=hyperplane, complement=complement, table=table, map=fitted
    )


# -- quotient embeddings and hyperplane images ---------------------------------


def nu_T(nu: PointMap, hyperplane: Subspace, beta: AffineExtension) -> dict:
    """Each source point joined over the image span of the hyperplane."""
    target = nu.target
    base = target.span([nu.table[x] for x in hyperplane.points()])
    return {
        x: target.quotient_point(base, beta.table[x]) for x in nu.source.points()
    }


def overnu(nu: PointMap, hyperplanes=None) -> dict:
    """Hyperplane-to-hyperplane map induced by the extensions."""
    source, target = nu.source, nu.target
    if hyperplanes is None:
        hyperplanes = source.hyperplanes()
    out = {}
    for hp in hyperplanes:
        try:
            beta = extend_beta(nu, hp)
        except (LinesNotConcurrent, NotACollineation, ImageNotAPoint) as exc:
            raise BetaUnavailable(f"no extension over {hp}") from exc
        base_rows = [nu.table[x] for x in hp.points()]
        beta_rows = [beta.table[x] for x in hp.points()]
        out[hp] = target.span(base_rows + beta_rows)
    return out


# -- distinguished frame and reconstruction ------------------------------------


@dataclass
class FrameData:
    """Target frame assembled from image points and tangent intersections."""

    source_frame: tuple
    q_points: dict
    e_point: tuple

    def ordered_points(self) -> list:
        n = len(self.source_frame) - 2
        return [self.q_points[pair] for pair in monomial_pairs(n)] + [self.e_point]


def build_Q_frame(nu: PointMap, source_frame=None) -> FrameData:
    """Frame of the target from a source frame under a regular embedding.

    Diagonal entries are images of the frame points, off-diagonal
    entries are tangent intersections on the image of the joining line,
    and the unit entry is the image of the frame's unit point.
    """
    source, target = nu.source, nu.target
    if source.n < 2:
        raise DimensionMismatch("frame construction needs source dimension >= 2")
    if source_frame is None:
        source_frame = standard_frame(source)
    source_frame = tuple(source.normalize(p) for p in source_frame)
    if not is_frame(source, source_frame):
        raise NotAFrame("source frame is not a frame")
    base_pts, unit = source_frame[:-1], source_frame[-1]
    q_points = {}
    for i in range(source.n + 1):
        q_points[(i, i)] = nu.table[base_pts[i]]
    for i, j in combinations(range(source.n + 1), 2):
        line = source.span((base_pts[i], base_pts[j]))
        imgs = [nu.table[x] for x in line.points()]
        plane = target.span(imgs)
        if plane.dim != 2:
            raise FrameCheckFailed(
                f"line image spans dimension {plane.dim} instead of 2"
            )
        arc = PlaneArc(plane, frozenset(imgs))
        q_points[(i, j)] = tangent_meet(arc, nu.table[base_pts[i]], nu.table[base_pts[j]])
    data = FrameData(
        source_frame=source_frame, q_points=q_points, e_point=nu.table[unit]
    )
    if not is_frame(target, data.ordered_points()):
        raise FrameCheckFailed("assembled points do not form a target frame")
    return data


def recover_automorphism(nu: PointMap, frame_data: FrameData) -> int:
    """Frobenius exponent read off frame coordinates of probe images."""
    scaled = scale_frame(nu.target.field, frame_data.ordered_points())
    if scaled is None:
        raise NotAFrame("frame data does not form a target frame")
    alpha = _probe_exponent(nu.source, scaled, nu.table)
    if alpha is None:
        raise NoAutomorphismMatch("probe coordinates match no Frobenius power")
    return alpha


@dataclass
class Reconstruction:
    kappa: SemilinearMap
    alpha: int
    frame_data: FrameData
    points_checked: int


def reconstruct_kappa(nu: PointMap) -> Reconstruction:
    """Produce the collineation composing with the Veronese map to give nu.

    The collineation applies the recovered automorphism entrywise and
    then the matrix whose columns are the frame representatives scaled
    so that their sum represents the unit image.  The result is always
    certified pointwise; any mismatch raises VerificationFailed with
    the first offending source point.
    """
    source, target = nu.source, nu.target
    if source.field != target.field:
        raise ForeignTarget("reconstruction needs one common field")
    if source.n < 2:
        raise DimensionMismatch("reconstruction needs source dimension >= 2")
    if target.n != delta(source.n) - 1:
        raise DimensionMismatch(
            f"target dimension {target.n} differs from expected {delta(source.n) - 1}"
        )
    try:
        frame_data = build_Q_frame(nu)
        alpha = recover_automorphism(nu, frame_data)
    except (
        FrameCheckFailed,
        NoUniqueUnisecant,
        ParallelLinesImpossible,
        NoAutomorphismMatch,
    ) as exc:
        raise NotRegular(str(exc)) from exc
    scaled = scale_frame(target.field, frame_data.ordered_points())
    if scaled is None:
        raise NotRegular("frame scaling system is singular")
    try:
        kappa = SemilinearMap(target, linalg.transpose(scaled), alpha)
    except SingularMatrix as exc:
        raise NotRegular("frame matrix is singular") from exc
    ver = veronese_for(source)
    checked = 0
    for x in source.points():
        if kappa.apply(ver.apply(x)) != nu.table[x]:
            raise VerificationFailed(
                f"certificate fails at {x}", point=x
            )
        checked += 1
    return Reconstruction(
        kappa=kappa, alpha=alpha, frame_data=frame_data, points_checked=checked
    )
