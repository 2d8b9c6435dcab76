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
import types
from dataclasses import dataclass
from itertools import combinations

from . import linalg
from .arcs import PlaneArc, is_arc, tangent_meet
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    ForeignTarget,
    FrameCheckFailed,
    ImageNotAPoint,
    InvalidPointMap,
    InvalidSemilinearMap,
    LinesNotConcurrent,
    ModeInfeasible,
    NoAutomorphismMatch,
    NotACollineation,
    NotComplementary,
    NotRegular,
    NotTotal,
    PgtoolError,
    SpaceMismatch,
    UsageError,
    VerificationFailed,
)
from .fields import field_from_descriptor
from .prng import SplitMix64
from .projective import (
    ProjectiveSpace,
    SemilinearMap,
    Subspace,
    scale_frame,
    standard_frame,
)
from .quadrics import _context_for
from .veronese import delta, monomial_pairs, veronese_for

EXHAUSTIVE_CAP = 15
REDUCED_CAP = 10**7


class PointMap:
    """Total injective-candidate map between point sets, given as a table.

    The table is read-only, so `reconstruct_kappa` can keep its outcome
    on the map.
    """

    def __init__(self, source: ProjectiveSpace, target: ProjectiveSpace, table: dict):
        _check_field_compatible(source, target)
        self.source = source
        self.target = target
        norm = {}
        for key, val in table.items():
            key = source.normalize(key)
            if key in norm:
                raise InvalidPointMap(f"two representatives of source point {key}")
            norm[key] = target.normalize(val)
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
        self.table = types.MappingProxyType({p: norm[p] for p in pts})
        self._reconstruction = None  # set by reconstruct_kappa

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
        n, n_prime = data["n"], data["n_prime"]
        if type(n) is not int or type(n_prime) is not int:
            raise InvalidPointMap(f"n and n_prime must be integers, got {n!r} and {n_prime!r}")
        source = ProjectiveSpace(field, n)
        target = ProjectiveSpace(field, n_prime)
        table = {}
        for src, tgt in data["pairs"]:
            key = tuple(src)
            if key in table:  # PointMap takes a dict, which cannot hold this repeat
                raise InvalidPointMap(f"duplicate source point {key}")
            table[key] = tuple(tgt)
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
    """Read the collineation file that `reconstruct --out` writes.

    The file is input from outside, so it is validated here, at the
    boundary: a malformed one raises InvalidSemilinearMap.
    """
    with open(path) as fh:
        data = json.load(fh)
    try:
        return SemilinearMap(space, tuple(map(tuple, data["matrix"])), data["alpha_exponent"])
    except (KeyError, TypeError, UsageError) as exc:
        raise InvalidSemilinearMap(f"malformed collineation data: {exc!r}") from exc


# -- the verifier -------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingReport:
    """Verifier outcome.

    ``violated_set`` is the first subset whose closure differs from the
    span preimage; it is None when every checked subset agrees.  A map
    can fail on the span condition alone, in which case no witness
    subset exists and ``span_condition`` carries the reason.  ``path``
    says what decided: ``"certificate"`` when a reconstructed
    collineation certified the table (reduced mode only), ``"scan"``
    when subsets were checked.
    """

    is_embedding: bool
    mode: str
    violated_set: frozenset | None
    span_condition: bool
    path: str


def is_quadratic_embedding(nu: PointMap, mode: str = "reduced") -> EmbeddingReport:
    """Check the closure-transfer identity clos M = pre span nu(M).

    Both modes report the first violating subset in size-then-lex order,
    so the witness is reproducible and the same in either mode.

    ``exhaustive`` compares every subset of the source (at most
    EXHAUSTIVE_CAP points), one at a time; it is the literal oracle.

    ``reduced`` first asks `reconstruct_kappa` for a certificate
    nu = kappa rho, with kappa a collineation of the target.  A
    collineation preserves spans, so for every subset M the span
    preimage of nu(M) is {x : kappa rho(x) in span kappa rho(M)} =
    {x : rho(x) in span rho(M)} = clos M, and nu(P) = kappa(rho(P))
    spans the target because rho(P) does.  A certified table is
    therefore accepted without a scan.

    Otherwise `_first_violation` scans only the subsets whose images
    are linearly independent, and it finds the same witness.  Suppose M
    violates and M0, a proper subset of M, has the same image span.  If
    M0 did not violate, then M lies in pre span nu(M0) = clos M0, so
    clos M0 is contained in clos M, which is contained in
    clos clos M0 = clos M0 = pre span nu(M0) = pre span nu(M), and M
    would not violate either.  So M0 violates and comes earlier: the
    first violator has independent images, and when no independent
    subset violates, no subset does.  REDUCED_CAP bounds the number of
    subsets the scan compares; ModeInfeasible means it ran out before
    a witness.

    For n >= 2 over one field, a table the certificate rejects is not a
    quadratic embedding, so there the scan only looks for a witness.
    Two points are closed and three collinear points close to their
    line, so every line image of a quadratic embedding is a plane
    (q+1)-arc, which is regular by the tangent count in `is_regular`;
    by the paper's main theorem a regular embedding is kappa rho, which
    `reconstruct_kappa` certifies.
    """
    source, target = nu.source, nu.target
    src_pts = source.points()
    npts = len(src_pts)
    if mode == "exhaustive":
        if npts > EXHAUSTIVE_CAP:
            raise ModeInfeasible(f"{npts} points exceed exhaustive cap {EXHAUSTIVE_CAP}")
    elif mode == "reduced":
        if _certified(nu):
            return EmbeddingReport(True, mode, None, True, "certificate")
    else:
        raise ModeInfeasible(f"unknown mode {mode!r}")

    field = target.field
    images = nu.image()
    rank = linalg.rank(field, images)
    span_ok = rank == target.n + 1
    if mode == "exhaustive":
        closure = _context_for(source)
        witness = next(
            (
                idx
                for size in range(npts + 1)
                for idx in combinations(range(npts), size)
                if closure.closure_mask(sum(1 << i for i in idx))
                != linalg.span_preimage_mask(field, images, idx)
            ),
            None,
        )
    else:
        witness = _first_violation(nu, rank)
    if witness is None:
        return EmbeddingReport(span_ok, mode, None, span_ok, "scan")
    return EmbeddingReport(
        False, mode, frozenset(src_pts[i] for i in witness), span_ok, "scan"
    )


def _first_violation(nu: PointMap, max_size: int) -> tuple | None:
    """Indices of the first subset with independent images, in size-then-lex
    order, whose closure differs from its span preimage, or None.

    For each size, a depth-first walk visits the prefixes P in lex order
    and keeps the residuals of all images modulo span nu(P) and of all
    rows rho(x) modulo span rho(P), each extended by one elimination
    step per point added to P.  Then y lies in span(nu(P), nu(c))
    exactly when its residual is zero or a multiple of the nonzero
    residual of nu(c), and likewise on the rho side.  Every prefix of
    this size's round was compared in the round before and did not
    violate, so its zero-residual points are the same on both sides
    (pre span nu(P) = clos P), and P + {c} violates exactly when the
    points whose image residual is a multiple of c's differ from those
    whose rho residual is.  With the residuals grouped by normalized
    value, each subset costs two dict lookups.  Prefixes and
    candidates with a zero image residual are skipped with everything
    below them (see `is_quadratic_embedding`).
    """
    yfield, rfield = nu.target.field, nu.source.field
    images = nu.image()
    rho_rows = _context_for(nu.source).rho_rows
    npts = len(images)
    compared = 0

    def walk(prefix: tuple, depth: int, yres: list, rres: list):
        nonlocal compared
        start = prefix[-1] + 1 if prefix else 0
        if depth:
            for p in range(start, npts - depth):
                if yres[p] is None:
                    continue
                ny = _reduce_residuals(yfield, yres, p)
                nr = _reduce_residuals(rfield, rres, p)
                hit = walk(prefix + (p,), depth - 1, ny, nr)
                if hit is not None:
                    return hit
            return None
        ycls, rcls = _residual_classes(yres), _residual_classes(rres)
        cands = [c for c in range(start, npts) if yres[c] is not None]
        room = REDUCED_CAP - compared
        for c in cands[:room]:
            if ycls[yres[c]] != rcls[rres[c]]:
                return prefix + (c,)
        if len(cands) > room:
            raise ModeInfeasible(f"no witness within the reduced cap of {REDUCED_CAP} subsets")
        compared += len(cands)
        return None

    for size in range(1, max_size + 1):
        hit = walk((), size - 1, list(images), list(rho_rows))
        if hit is not None:
            return hit
    return None


def _reduce_residuals(field, res: list, p: int) -> list:
    """Residuals modulo one more vector, res[p].

    Entries are normalized vectors, or None for a zero residual; a None
    pivot leaves every residual as it is.
    """
    v = res[p]
    if v is None:
        return res
    add_rows, neg, mul_rows = field.add_table, field.neg_table, field.mul_table
    j = v.index(1)  # the leading coordinate, as v is normalized
    out, minus = list(res), {}
    for i, w in enumerate(res):
        if w is None or not w[j]:
            continue
        f = w[j]
        cols = minus.get(f)
        if cols is None:  # cols[k][a] = a - f * v[k], the add row of -(f * v[k])
            mf = mul_rows[f]
            cols = minus[f] = [add_rows[neg[mf[x]]] for x in v]
        out[i] = linalg.canonical(field, [c[a] for c, a in zip(cols, w)])
    return out


def _residual_classes(res: list) -> dict:
    """Nonzero residual -> mask of the points with that residual."""
    cls = {}
    for i, w in enumerate(res):
        if w is not None:
            cls[w] = cls.get(w, 0) | 1 << i
    return cls


def span_preimage(nu: PointMap, pts) -> frozenset:
    """Source points whose images lie in the span of the images of `pts`.

    `pts` must be normalized source points.
    """
    source = nu.source
    src_pts = source.points()
    mask = linalg.span_preimage_mask(
        nu.target.field, nu.image(), [source.point_index(p) for p in pts]
    )
    return frozenset(p for i, p in enumerate(src_pts) if mask >> i & 1)


# -- regularity ----------------------------------------------------------------


def _line_image_is_arc(nu: PointMap, line: Subspace) -> bool:
    imgs = [nu.table[x] for x in line.points()]
    plane = nu.target.span(imgs)
    return plane.dim == 2 and is_arc(nu.target, imgs, plane)


def is_regular(nu: PointMap) -> bool:
    """Every line image is a plane arc with a unique unisecant at each point.

    Tangent count: nu is injective, so a line image is q+1 distinct
    points.  Once they form an arc in a plane over GF(q'), each lies on
    q secants, one to every other image point, which leaves q'-q+1
    unisecants among the q'+1 lines through it in the plane.  That is 1
    exactly when the target field equals the source field; a target over
    a larger field is allowed, and then no image point has a unique
    unisecant.  So the unisecants need not be enumerated.

    The certificate decides first.  When `reconstruct_kappa` certifies
    nu = kappa rho, nu is regular: rho maps a line onto a conic, the
    q+1 zeros of a nondegenerate form in the plane its Veronese image
    spans, so a plane (q+1)-arc; kappa maps planes to planes and lines
    to lines, so every line image is again a plane (q+1)-arc, regular
    by the tangent count.  The outcome is kept on nu, so a
    `reconstruct_kappa` after this call costs nothing.

    A failed certificate proves nothing, so the line scan decides then,
    and it stays: regularity asks only that line images be arcs, and the
    paper's main theorem identifies kappa rho among quadratic embeddings
    alone.  A table can be regular without being kappa rho: a random
    injection PG(2, 2) -> PG(5, 2) usually sends every line to three
    non-collinear points, and a line source (n = 1) or a target of
    another dimension is outside the theorem.
    """
    if nu.source.field != nu.target.field:
        return False
    return _certified(nu) or all(_line_image_is_arc(nu, line) for line in nu.source.lines())


# -- the affine restriction and its extension ---------------------------------


def default_complement(space: ProjectiveSpace, sub: Subspace) -> Subspace:
    """Deterministic complement: greedy extension by unit vectors."""
    n1 = space.n + 1
    units = (tuple(int(j == i) for j in range(n1)) for i in range(n1))
    return _greedy_complement(space, sub, units)


def random_complement(space: ProjectiveSpace, sub: Subspace, rng: SplitMix64) -> Subspace:
    """Complement by greedy extension with random points."""
    pts = space.points()
    return _greedy_complement(space, sub, iter(lambda: pts[rng.randbelow(len(pts))], None))


def _greedy_complement(space: ProjectiveSpace, sub: Subspace, candidates) -> Subspace:
    """Span of the candidates that raise the rank of sub's rows.

    The rank is checked for full before each candidate is drawn, so no
    candidate is drawn once the complement is complete, nor any when sub
    is already the whole space.  The candidates must reach full rank.
    """
    rows = list(sub.rows)
    base = len(rows)
    while len(rows) < space.n + 1:
        cand = next(candidates)
        if linalg.rank(space.field, rows + [cand]) > len(rows):
            rows.append(cand)
    return space.span(rows[base:])


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
        out[a] = cut.rows[0]  # a reduced row leads with its pivot 1
    return out


@dataclass
class AffineExtension:
    """A collineation of the source onto the complement, extending iota."""

    hyperplane: Subspace
    complement: Subspace
    table: dict
    map: SemilinearMap  # source coordinates -> complement basis coordinates


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
        probe = (1, t) + (0,) * (space.n - 1)  # canonical: the leading entry is 1
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
    scaled = scale_frame(space, [coords_of[u] for u in standard_frame(space)])
    if scaled is None:
        raise NotACollineation("frame images do not determine a coordinate system")
    alpha = _probe_exponent(space, scaled, coords_of)
    if alpha is None:
        raise NotACollineation("probe coordinates match no field automorphism")
    fitted = SemilinearMap(space, linalg.transpose(scaled), alpha)  # scaled is a basis
    # coords_of values are reduced-basis coordinates of normalized members,
    # so their first nonzero entry is 1 and they compare as they are
    for x, y in zip(space.points(), fitted.images(space.points())):
        if y != coords_of[x]:
            raise NotACollineation(f"table is not semilinear at {x}")
    return fitted


def extend_beta(
    nu: PointMap, hyperplane: Subspace, complement: Subspace | None = None
) -> AffineExtension:
    """Extend the affine restriction over the hyperplane.

    For a hyperplane point P, every source line through P not inside
    the hyperplane contributes the line spanned by the iota-images of
    its other points; all contributions must share one point, which
    becomes the image of P.  The finished table is fitted to a matrix
    plus Frobenius exponent and verified point by point.

    Without ``complement`` the image span of the hyperplane is
    complemented by `default_complement`.  Passing another complement
    checks the paper's claim that neither the hyperplane image nor the
    quotient embedding depends on that choice.
    """
    source, target = nu.source, nu.target
    if source.n < 2:
        raise DimensionMismatch("extension needs source dimension >= 2")
    if complement is None:
        complement = default_complement(target, target.span(
            [nu.table[x] for x in hyperplane.points()]
        ))
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
        table[p] = carrier.rows[0]  # a reduced row leads with its pivot 1
    coords_of = {x: complement.coords_of(y) for x, y in table.items()}
    fitted = _fit_semilinear(source, coords_of)
    return AffineExtension(
        hyperplane=hyperplane, complement=complement, table=table, map=fitted
    )


# -- quotient embeddings and hyperplane images ---------------------------------


def nu_T(nu: PointMap, hyperplane: Subspace, beta: AffineExtension) -> dict:
    """Each source point joined over the image span of the hyperplane.

    The quotient embedding of the paper, with `quotient_point` giving
    the points of the quotient.  No command or suite builds it; it stays
    so that the tests can check the paper's claim that it does not
    depend on the complement `extend_beta` was given.
    """
    target = nu.target
    base = target.span([nu.table[x] for x in hyperplane.points()])
    return {
        x: target.quotient_point(base, beta.table[x]) for x in nu.source.points()
    }


# -- distinguished frame and reconstruction ------------------------------------


@dataclass
class FrameData:
    """Target frame assembled from image points and tangent intersections.

    ``scaled`` holds representatives of the q_points, in monomial pair
    order, scaled so that they sum to ``e_point`` (`scale_frame`).
    """

    q_points: dict
    e_point: tuple
    scaled: list


def build_Q_frame(nu: PointMap) -> FrameData:
    """Frame of the target from the standard source frame under a regular
    embedding.

    Diagonal entries are images of the frame points, off-diagonal
    entries are tangent intersections on the image of the joining line,
    and the unit entry is the image of the frame's unit point.
    """
    source, target = nu.source, nu.target
    if source.n < 2:
        raise DimensionMismatch("frame construction needs source dimension >= 2")
    source_frame = standard_frame(source)
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
    e_point = nu.table[unit]
    ordered = [q_points[pair] for pair in monomial_pairs(source.n)] + [e_point]
    scaled = scale_frame(target, ordered)
    if scaled is None:
        raise FrameCheckFailed("assembled points do not form a target frame")
    return FrameData(q_points, e_point, scaled)


def recover_automorphism(nu: PointMap, frame_data: FrameData) -> int:
    """Frobenius exponent read off frame coordinates of probe images."""
    alpha = _probe_exponent(nu.source, frame_data.scaled, nu.table)
    if alpha is None:
        raise NoAutomorphismMatch("probe coordinates match no Frobenius power")
    return alpha


@dataclass(frozen=True)
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
    the first offending source point.  The outcome, a Reconstruction or
    the error raised, is kept on nu, so each table is reconstructed once.
    """
    outcome = nu._reconstruction
    if outcome is None:
        try:
            outcome = nu._reconstruction = _reconstruct(nu)
        except PgtoolError as exc:
            nu._reconstruction = exc
            raise
    if isinstance(outcome, PgtoolError):
        raise outcome.with_traceback(None)
    return outcome


def _certified(nu: PointMap) -> bool:
    """Whether `reconstruct_kappa` certifies nu = kappa rho.

    Every refusal is False: a table the certificate rejects, and a table
    outside the main theorem (another field, a line source, a target of
    another dimension).
    """
    try:
        reconstruct_kappa(nu)
    except (NotRegular, VerificationFailed, ForeignTarget, DimensionMismatch):
        return False
    return True


def _reconstruct(nu: PointMap) -> Reconstruction:
    source, target = nu.source, nu.target
    if source.field != target.field:
        raise ForeignTarget("reconstruction needs one common field")
    if source.n < 2:
        raise DimensionMismatch("reconstruction needs source dimension >= 2")
    if target.n != delta(source.n) - 1:
        raise DimensionMismatch(
            f"target dimension {target.n} differs from expected {delta(source.n) - 1}"
        )
    frame_data = build_Q_frame(nu)
    alpha = recover_automorphism(nu, frame_data)
    # the scaled frame columns are a basis, so the matrix is invertible
    kappa = SemilinearMap(target, linalg.transpose(frame_data.scaled), alpha)
    for x, y in zip(source.points(), kappa_rho(source, kappa)):
        if y != nu.table[x]:
            raise VerificationFailed(f"certificate fails at {x}", point=x)
    return Reconstruction(
        kappa=kappa, alpha=alpha, frame_data=frame_data, points_checked=source.point_count
    )


def kappa_rho(source: ProjectiveSpace, kappa: SemilinearMap):
    """The points kappa(rho(x)) for the source points x, lazily and in
    `source.points()` order: the one computation of a kappa rho table,
    for the certificate and for `generate.compose_with_veronese`.

    The rho rows the closure context keeps are canonical, so
    `kappa.images` of them is `kappa.apply(rho(x))` without validation.
    """
    if kappa.space != veronese_for(source).target:
        raise SpaceMismatch(f"kappa acts on {kappa.space}, not on the Veronese target")
    return kappa.images(_context_for(source).rho_rows)
