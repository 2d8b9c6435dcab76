"""Verification and reconstruction of candidate quadratic embeddings.

A candidate map is an explicit table sending every point of the source
space to a point of the target space.  The verifier checks that taking
linear spans of image sets and pulling back reproduces the quadratic
closure on the source, for every subset in the selected mode, and that
the image spans the whole target.  Reconstruction fits the unique
collineation whose composition with the Veronese map reproduces the
table from the images of points with 0/1 coordinates, in one
elimination, compares its composition with the table at every point,
and refuses from that fit alone; the map keeps the result as its fit
record, so each table is fitted once.  The paper's pipeline, a
distinguished target frame from tangent intersections of image conics
and the field automorphism read off probe points, runs only in the
`prop-x33` suite, against the fit.
"""

from __future__ import annotations

import functools
import json
import types
from dataclasses import dataclass
from itertools import chain, combinations

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
    NotTotal,
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

    A table is validated as a whole first (`_bulk_checked`).  One that
    fails any whole-table check goes through the per-entry check
    (`_entry_checked`), which accepts it or raises on its first bad
    entry, so every exception and message is that of the per-entry check.

    The table is read-only, so the map keeps one fit record, `_fit`.
    """

    def __init__(self, source: ProjectiveSpace, target: ProjectiveSpace, table: dict):
        _check_field_compatible(source, target)
        self.source = source
        self.target = target
        norm = _bulk_checked(source, target, table)
        if norm is None:
            norm = _entry_checked(source, target, table)
        self.table = types.MappingProxyType(norm)

    @classmethod
    def from_images(cls, source: ProjectiveSpace, target: ProjectiveSpace, images) -> "PointMap":
        """The map sending `source.points()` to images, in that order,
        without the table checks.

        Only for images known to be canonical target points, pairwise
        distinct, one per source point, over a field shared with the
        source, where `_bulk_checked` would find nothing.  The callers,
        the generators in `generate`:

        - `veronese_point_map`: the rows of `VeroneseMap.image`, which are
          canonical (see `VeroneseMap.apply`) and distinct, since rho is
          injective;
        - `compose_with_veronese`: `kappa_rho`, canonical since
          `linalg.canonical_products` scales each point by the inverse of
          its first nonzero coordinate, and distinct, since rho is
          injective and kappa a collineation;
        - `frame_injection_map`: a shuffled image of the standard frame
          under a collineation, canonical and distinct the same way;
        - `broken_map`: a Veronese image with one entry replaced by a
          `point_at` point, canonical and drawn off the image.

        Every table from outside the program (`point_map_from_dict`,
        `load_point_map`) goes through the constructor.
        """
        pm = object.__new__(cls)
        pm.source, pm.target = source, target
        pm.table = types.MappingProxyType(dict(zip(source.points(), images)))
        return pm

    def image(self) -> list:
        return [self.table[p] for p in self.source.points()]

    @functools.cached_property
    def _fit(self) -> tuple[SemilinearMap | None, frozenset | None]:
        """The fit record (kappa, D): kappa from `_fit_kappa` and D the
        frozenset {x : nu(x) != kappa rho(x)} from one comparison of the
        table with the `kappa_rho` list at every point, or (None, None)
        when the fit gives no kappa, as for every table outside the main
        theorem.  nu = kappa rho exactly when D is empty: the decision
        behind `is_regular`, reduced verification and `reconstruct_kappa`,
        made once per table.
        """
        kappa = _fit_kappa(self)
        if kappa is None:
            return None, None
        source, table = self.source, self.table
        return kappa, frozenset(
            x for x, y in zip(source.points(), kappa_rho(source, kappa)) if y != table[x]
        )

    def __eq__(self, other):
        return (
            isinstance(other, PointMap)
            and self.source == other.source
            and self.target == other.target
            and self.table == other.table
        )


def _bulk_checked(source: ProjectiveSpace, target: ProjectiveSpace, table) -> dict | None:
    """The table in `source.points()` order with canonical values, or
    None when a whole-table check fails.

    The checks: every key and every value is a tuple of the right
    length; the set of coordinate types is exactly {int}, so no bool,
    which equals 1 and would pass the key check below; the value codes
    lie in [0, q); the keys are exactly the source points, so they are
    canonical and in range; and the canonical values, one
    `linalg.canonical` call each, are nonzero and pairwise distinct.
    A table that passes them is the table `_entry_checked` builds.
    """
    pts = source.points()
    keys, vals = table.keys(), table.values()
    if (
        len(keys) != len(pts)
        or {*map(type, keys), *map(type, vals)} != {tuple}
        or set(map(len, keys)) != {source.n + 1}
        or set(map(len, vals)) != {target.n + 1}
    ):
        return None
    codes = list(chain.from_iterable(vals))
    if {*map(type, chain.from_iterable(keys)), *map(type, codes)} != {int}:
        return None
    field, distinct = target.field, set(codes)
    if min(distinct) < 0 or max(distinct) >= field.q or keys != set(pts):
        return None
    canon = {key: linalg.canonical(field, val) for key, val in table.items()}
    images = set(canon.values())
    if None in images or len(images) != len(pts):
        return None
    return {p: canon[p] for p in pts}


def _entry_checked(source: ProjectiveSpace, target: ProjectiveSpace, table) -> dict:
    """The table checked entry by entry through `ProjectiveSpace.normalize`:
    the first bad entry in table order names the error."""
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
    return {p: norm[p] for p in pts}


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


def _load_json(path, error: type[UsageError]):
    """The JSON value in a file; bytes that are not UTF-8, or an integer
    past the int digit limit, raise `error`, and text that is not JSON
    raises json.JSONDecodeError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # UnicodeDecodeError or the int digit limit
        raise error(f"cannot decode {path}: {exc}") from exc


def load_point_map(path) -> PointMap:
    return point_map_from_dict(_load_json(path, InvalidPointMap))


def save_semilinear(kappa: SemilinearMap, path) -> None:
    data = {"matrix": [list(r) for r in kappa.matrix], "alpha_exponent": kappa.alpha}
    with open(path, "w") as fh:
        json.dump(data, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


def load_semilinear(space: ProjectiveSpace, path) -> SemilinearMap:
    """Read the collineation file that `reconstruct --out` writes; a
    malformed or undecodable one raises InvalidSemilinearMap."""
    data = _load_json(path, InvalidSemilinearMap)
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

    ``reduced`` first reads the fit record (`PointMap._fit`) for a
    certificate nu = kappa rho, with kappa a collineation of the target
    fitted in one elimination (`_fit_kappa`).  A collineation preserves
    spans, so for every subset M the span preimage of nu(M) is
    {x : kappa rho(x) in span kappa rho(M)} = {x : rho(x) in span rho(M)}
    = clos M, and nu(P) = kappa(rho(P)) spans the target because rho(P)
    does.  A certified table is therefore accepted without a scan.

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
    the fit record certifies.  Before the scan, a rejected table pays for
    the fit and, when it gives a kappa, one kappa rho table (`kappa_rho`)
    compared with the table at every point.
    """
    source, target = nu.source, nu.target
    src_pts = source.points()
    npts = len(src_pts)
    fitted = False  # whether a fit found n' + 1 independent images
    if mode == "exhaustive":
        if npts > EXHAUSTIVE_CAP:
            raise ModeInfeasible(f"{npts} points exceed exhaustive cap {EXHAUSTIVE_CAP}")
    elif mode == "reduced":
        kappa, d = nu._fit
        if kappa is not None and not d:
            return EmbeddingReport(True, mode, None, True, "certificate")
        fitted = kappa is not None
    else:
        raise ModeInfeasible(f"unknown mode {mode!r}")

    field = target.field
    images = nu.image()
    rank = target.n + 1 if fitted else linalg.rank(field, images)
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

    For each size, a depth-first walk visits the prefixes P in lex order.
    At a prefix whose last point is p it keeps, for the points after p
    only, the residuals of their images modulo span nu(P) and of their
    rows rho(x) modulo span rho(P), each extended by one elimination step
    per point added to P.  Then y lies in span(nu(P), nu(c)) exactly when
    its residual is zero or a multiple of the nonzero residual of nu(c),
    and likewise on the rho side.  With the residuals grouped by
    normalized value, each subset costs two dict lookups.  Prefixes and
    candidates with a zero image residual are skipped with everything
    below them (see `is_quadratic_embedding`).

    The points up to p need no residuals, because the closure and the
    span preimage of a first violation P + {c} differ only at points
    after c.  Every subset before P + {c} in size-then-lex order does
    not violate, P among them, so a point of P or one with a zero
    residual lies in both (pre span nu(P) = clos P).  Take y < c outside
    P with a nonzero residual; P + {y} comes earlier, so it does not
    violate.  If nu(y) lies in span nu(P + {c}), exchange gives
    span nu(P + {y}) = span nu(P + {c}), so c lies in
    pre span nu(P + {y}) = clos(P + {y}); as c is not in clos P,
    exchange on the rho side puts rho(y) in span rho(P + {c}).  The
    converse is symmetric, so y lies in both or in neither, and the
    classes of the points after p find the same first violation.

    Each side holds `linalg.residual_rows` of its own field (bit masks
    over GF(2)), and `linalg.reduce_residuals` follows the pivot's type,
    so the walk never branches on the field.

    The rho side is shared across tables.  Its residuals and classes at
    P describe clos = rho^-1(span rho(.)) on the source space alone, so
    they never depend on nu; `_ClosureContext.rho_tail` keeps them per
    source space and over the source field, and each table reduces only
    its image side.  The memo stores at most quadrics.RHO_TAIL_CAP
    residual entries per space; past that the walk reduces the parent's
    rho residuals, which it carries down its path, as it does on any
    miss.  Every rho pivot is nonzero: the walk extends P by c only when
    nu(P + {c}) is independent, so P + {c} passed an earlier round and
    c is not in pre span nu(P) = clos P.
    """
    yfield, ctx = nu.target.field, _context_for(nu.source)
    yroot = linalg.residual_rows(yfield, nu.image())
    compared = 0

    def walk(prefix: tuple, depth: int, yres: list, rentry: list):
        # yres[i] and rentry[0][i] belong to the point start + i
        nonlocal compared
        start = prefix[-1] + 1 if prefix else 0
        if depth:
            for i in range(len(yres) - depth):
                if yres[i] is None:
                    continue
                child = prefix + (start + i,)
                ny = linalg.reduce_residuals(yfield, yres, i)
                hit = walk(child, depth - 1, ny, ctx.rho_tail(child, rentry, i))
                if hit is not None:
                    return hit
            return None
        rres, rcls = rentry
        if rcls is None:
            rcls = rentry[1] = linalg.residual_classes(rres)
        ycls = linalg.residual_classes(yres)
        cands = [i for i, w in enumerate(yres) if w is not None]
        room = REDUCED_CAP - compared
        for i in cands[:room]:
            if ycls[yres[i]] != rcls[rres[i]]:
                return prefix + (start + i,)
        if len(cands) > room:
            raise ModeInfeasible(f"no witness within the reduced cap of {REDUCED_CAP} subsets")
        compared += len(cands)
        return None

    for size in range(1, max_size + 1):
        hit = walk((), size - 1, yroot, ctx.rho_root())
        if hit is not None:
            return hit
    return None


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


def line_arc(nu: PointMap, line: Subspace) -> PlaneArc | None:
    """The image of a source line as an arc candidate in the plane it
    spans, or None when it spans no plane.

    One elimination of the image rows gives the plane, and
    `PlaneArc.from_span` builds the arc on it without re-checking the
    points: `PointMap` validated the table values at load, and the plane
    is their span.  The result equals
    ``PlaneArc(nu.target.span(imgs), frozenset(imgs))``.
    """
    target = nu.target
    imgs = [nu.table[x] for x in line.points()]
    pivots, rows = linalg.rref(target.field, imgs)
    if len(rows) != 3:
        return None
    return PlaneArc.from_span(Subspace(target, pivots, rows), imgs)


def _line_image_is_arc(nu: PointMap, line: Subspace) -> bool:
    arc = line_arc(nu, line)
    return arc is not None and is_arc(arc)


def is_regular(nu: PointMap) -> bool:
    """Every line image is a plane arc with a unique unisecant at each point.

    Tangent count: nu is injective, so a line image is q+1 distinct
    points.  Once they form an arc in a plane over GF(q'), each lies on
    q secants, one to every other image point, which leaves q'-q+1
    unisecants among the q'+1 lines through it in the plane.  That is 1
    exactly when the target field equals the source field; a target over
    a larger field is allowed, and then no image point has a unique
    unisecant.  So the unisecants need not be enumerated.

    Regularity asks only that line images be arcs, and the paper's main
    theorem identifies kappa rho among quadratic embeddings alone.  A
    table can be regular without being kappa rho: a random injection
    PG(2, 2) -> PG(5, 2) usually sends every line to three
    non-collinear points, and a line source (n = 1) or a target of
    another dimension is outside the theorem.  So the lines are scanned.

    The fit record (kappa, D) of nu says which lines.  When the fit gave no
    kappa (D is None), every line of `source.lines()` is scanned.
    Otherwise only the lines through the points of D = {x : nu(x) !=
    kappa rho(x)} are: the pencils `lines_through` gives at each, with
    repeats dropped, sorted by their reduced bases as `lines()` is.  A
    line that misses D has nu(line) = kappa rho(line), and that is a
    plane (q+1)-arc: rho maps a line onto a conic, the q+1 zeros of a
    nondegenerate form in the plane its Veronese image spans, and the
    collineation kappa maps planes to planes and lines to lines.  So the
    scan has the value of the scan over all lines and stops at the same
    first failing line; an empty D, nu = kappa rho, scans nothing.  The
    fit record is kept on nu, so a later `reconstruct_kappa` compares
    nothing again.
    """
    if nu.source.field != nu.target.field:
        return False
    d = nu._fit[1]
    if d is None:
        return all(_line_image_is_arc(nu, line) for line in nu.source.lines())
    pencils = {line.rows: line for p in d for line in nu.source.lines_through(p)}
    return all(_line_image_is_arc(nu, pencils[rows]) for rows in sorted(pencils))


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

    A candidate raises the rank exactly when its residual modulo the
    rows gathered so far is nonzero.  Sub's reduced rows come first, and
    each accepted residual, scaled to lead with 1, is zero at every
    earlier pivot, so `linalg.residual` over the rows in that order
    clears each pivot for good and leaves 0 exactly on the span.  No
    elimination is made before the final span.  The rank is checked for
    full before each candidate is drawn, so no candidate is drawn once
    the complement is complete, nor any when sub is already the whole
    space.  The candidates must reach full rank.
    """
    field = space.field
    pivots, rows = list(sub.pivots), list(sub.rows)
    added = []
    while len(rows) < space.n + 1:
        cand = next(candidates)
        res = linalg.canonical(field, linalg.residual(field, pivots, rows, cand))
        if res is not None:
            pivots.append(res.index(1))
            rows.append(res)
            added.append(cand)
    return space.span(added)


def _check_hyperplane(source: ProjectiveSpace, hyperplane: Subspace):
    if hyperplane.dim != source.n - 1:
        raise DimensionMismatch("expected a hyperplane of the source")
    source._check_sub(hyperplane)


def build_iota(nu: PointMap, hyperplane: Subspace, complement: Subspace) -> dict:
    """Map each point outside the hyperplane to a point of the complement.

    The image of a point A is the intersection of the complement C with
    the span of T = span nu(hyperplane) and nu(A); for a quadratic
    embedding this cut is a single point.

    One elimination of the columns [nu(H) | C's rows | nu(A) for each A]
    gives every cut (`_iota_coords`).  T and C are complementary exactly
    when every C column is a pivot and the left two blocks hold n'+1
    pivots: the C rows are then independent modulo T, and with T they
    span the target.  These pivot columns are a basis, so A's column
    reduces to nu(A)'s coordinates on it, and the C-block of them, in
    the last rows, writes nu(A) = t + c with t in T and c in C, the
    direct sum.  span(T, nu(A)) meets C in <c> exactly: t' + s nu(A)
    lies in C only when t' + s t, in T and in C, is 0.  So the cut is
    the point whose coordinates on C's reduced basis are the C-block,
    and a zero C-block, nu(A) in T, is the only way it fails to be a
    point: it is empty, of dimension -1.
    """
    cuts = _iota_coords(nu, hyperplane, complement)
    return {a: complement.point_from_coords(c) for a, c in cuts.items()}


def _iota_coords(nu: PointMap, hyperplane: Subspace, complement: Subspace) -> dict:
    """`build_iota` in complement coordinates: each point outside the
    hyperplane -> the canonical coordinates of its cut on C's basis."""
    source, target = nu.source, nu.target
    _check_hyperplane(source, hyperplane)
    target._check_sub(complement)
    field, hyper_pts = target.field, hyperplane.points()
    in_hyper = set(hyper_pts)
    affine = [a for a in source.points() if a not in in_hyper]
    columns = [nu.table[x] for x in hyper_pts] + list(complement.rows)
    columns += [nu.table[a] for a in affine]
    pivots, rows = linalg.rref(field, linalg.transpose(columns))
    h, k = len(hyper_pts), len(complement.rows)
    if len(pivots) != target.n + 1 or [c for c in pivots if c >= h] != list(range(h, h + k)):
        raise NotComplementary("complement does not complement the image span")
    c_rows = rows[len(rows) - k:]
    out = {}
    for col, a in enumerate(affine, h + k):
        coords = linalg.canonical(field, [row[col] for row in c_rows])
        if coords is None:
            raise ImageNotAPoint(f"image of {a} cuts the complement in dimension -1")
        out[a] = coords
    return out


@dataclass
class AffineExtension:
    """A collineation of the source onto the complement, extending iota."""

    table: dict
    map: SemilinearMap  # source coordinates -> complement basis coordinates


def _probe_block(space: ProjectiveSpace, scaled, images: dict) -> tuple[tuple[int, ...], ...]:
    """Coordinates of the probe images (1, t, 0, ..., 0) against the
    scaled frame columns: row c holds coordinate c of every probe, for t
    in field order.

    `scale_frame` returns a basis, so one elimination of the augmented
    matrix [scaled | probe images] reduces its left block to the
    identity, and the right block holds every probe's unique solution:
    the answers `linalg.solve_columns` gives one probe at a time.
    """
    field, size = space.field, len(scaled)
    probes = [images[(1, t) + (0,) * (space.n - 1)] for t in field.elements()]
    _, rows = linalg.rref(field, [a + b for a, b in zip(zip(*scaled), zip(*probes))])
    return tuple(row[size:] for row in rows)


def _probe_exponent(space: ProjectiveSpace, scaled, images: dict) -> int | None:
    """Frobenius exponent that the probe points (1, t, 0, ..., 0) reveal.

    ``scaled`` must be a basis, as `scale_frame` returns; the q probe
    images are solved against it in one elimination (`_probe_block`).
    A semilinear map with exponent m gives coordinates proportional to
    (1, t^(p^m), 0, ..., 0), so the ratios of the second coordinates to
    the first, in field order, are row m of the Frobenius table.
    Returns None when some probe image has a zero leading coordinate or
    no exponent matches every ratio.
    """
    lead, second = _probe_block(space, scaled, images)[:2]
    return _frobenius_exponent(space.field, lead, second)


def _frobenius_exponent(field, lead, second) -> int | None:
    """The m with second[t] / lead[t] = t^(p^m) for every t in field
    order, by one lookup in `field.frobenius_table`; None when some lead
    is zero or no m matches."""
    if not all(lead):
        return None
    ratios = tuple(field.div(b, a) for a, b in zip(lead, second))
    return next(
        (m for m in field.automorphism_exponents() if field.frobenius_table[m] == ratios), None
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
    fitted = SemilinearMap.from_basis(space, scaled, alpha)
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

    All of it runs in complement coordinates: C's reduced basis gives a
    linear isomorphism of GF(q)^(dim C + 1) onto C, so spans, meets and
    their dimensions are those of the target, the refusals and messages
    are the same, and the coordinates iota and the meets give are the
    ones `_fit_semilinear` fits.  Only the finished table is mapped to
    target points.  The lines through P are those of `lines_through(P)`
    not inside the hyperplane, in its order; a line through P outside
    the hyperplane meets it in P alone.  `_concurrence` takes their
    spans and meets.

    Without ``complement`` the image span of the hyperplane is
    complemented by `default_complement`.  Passing another complement
    checks the paper's claim that neither the hyperplane image nor the
    quotient embedding depends on that choice.
    """
    source, target = nu.source, nu.target
    if source.n < 2:
        raise DimensionMismatch("extension needs source dimension >= 2")
    _check_hyperplane(source, hyperplane)
    if complement is None:
        complement = default_complement(target, target.span(
            [nu.table[x] for x in hyperplane.points()]
        ))
    coords = _iota_coords(nu, hyperplane, complement)
    in_hyper, field, k = set(hyperplane.points()), target.field, len(complement.rows)
    for p in hyperplane.points():
        # n >= 2, so q^(n-1) >= 2 lines through p lie outside the hyperplane;
        # a line lies inside when its reduced rows, two of its points, do
        lines = (g for g in source.lines_through(p) if not in_hyper.issuperset(g.rows))
        punctured = ([coords[x] for x in g.points() if x != p] for g in lines)
        point = _concurrence(field, k, punctured)
        if point is None:
            raise LinesNotConcurrent(
                f"candidate lines at {p} do not meet in a single point"
            )
        coords[p] = point
    fitted = _fit_semilinear(source, coords)
    table = {x: complement.point_from_coords(c) for x, c in coords.items()}
    return AffineExtension(table=table, map=fitted)


def _concurrence(field, k: int, punctured) -> tuple[int, ...] | None:
    """The one point where the spans of the point sets meet, in
    GF(q)^k, or None when they do not meet in a single point.

    Each set must span a line, else LinesNotConcurrent names the first
    that does not.  The lines all meet in one point exactly when some
    line differs from the first, the two meet in a point, and every line
    holds it: so one meet is taken, and membership tests do the rest.
    Each span and the meet are one elimination of k-entry rows.  k = 1
    spans no line, so its space PG(0, q), which cannot be built, is
    never used.
    """
    space = ProjectiveSpace(field, k - 1) if k > 1 else None
    lines = []
    for pts in punctured:
        pivots, rows = linalg.rref(field, pts)
        if len(rows) != 2:
            raise LinesNotConcurrent(
                f"iota image of a punctured line spans dimension {len(rows) - 1}"
            )
        lines.append(Subspace(space, pivots, rows))
    other = next((g for g in lines if g != lines[0]), None)
    meet = None if other is None else space.meet(lines[0], other)
    if meet is None or meet.dim != 0:
        return None
    (point,) = meet.rows
    return point if all(linalg.in_rowspace(field, g.pivots, g.rows, point) for g in lines) else None


# -- distinguished frame and reconstruction ------------------------------------


def build_Q_frame(nu: PointMap) -> list[tuple[int, ...]]:
    """The columns of kappa: a target frame from the standard source
    frame under a regular embedding, scaled to a basis.

    Entries follow the monomial pairs: (i, i) is the image of the frame
    point e_i, and (i, j) with i < j the meet of the tangents at the
    images of e_i and e_j on the image of the frame line e_i e_j.
    `scale_frame` scales them to sum to the image of the unit point.
    The frame lines come in lex order of (i, j), so a refusal names the
    first line whose image fails.

    (e_i, e_j) is already the reduced basis of the line e_i e_j, so
    each of the C(n+1, 2) frame lines costs one elimination, for its
    image plane (`line_arc`); the tangent meet is a closed form.
    Scaling the frame costs one more, so the frame takes C(n+1, 2) + 1
    eliminations whatever q is, and with the one of the automorphism
    probes the paper's reconstruction takes C(n+1, 2) + 2.  Only the
    `prop-x33` suite runs it, against the fitted kappa.
    """
    source = nu.source
    if source.n < 2:
        raise DimensionMismatch("frame construction needs source dimension >= 2")
    *units, unit = standard_frame(source)
    frame = []
    for i, j in monomial_pairs(source.n):
        if i == j:
            frame.append(nu.table[units[i]])
            continue
        arc = line_arc(nu, Subspace(source, (i, j), (units[i], units[j])))
        if arc is None:
            raise FrameCheckFailed(f"image of the frame line e{i} e{j} spans no plane")
        frame.append(tangent_meet(arc, nu.table[units[i]], nu.table[units[j]]))
    scaled = scale_frame(nu.target, frame + [nu.table[unit]])
    if scaled is None:
        raise FrameCheckFailed("assembled points do not form a target frame")
    return scaled


def recover_automorphism(nu: PointMap, scaled) -> int:
    """Frobenius exponent read off the coordinates of probe images
    against the `build_Q_frame` basis, all found in one elimination
    (`_probe_exponent`)."""
    alpha = _probe_exponent(nu.source, scaled, nu.table)
    if alpha is None:
        raise NoAutomorphismMatch("probe coordinates match no Frobenius power")
    return alpha


@dataclass(frozen=True)
class Reconstruction:
    kappa: SemilinearMap
    alpha: int
    points_checked: int


def reconstruct_kappa(nu: PointMap) -> Reconstruction:
    """Produce the collineation composing with the Veronese map to give nu.

    A table outside the main theorem is refused first, as bad input:
    ForeignTarget for two fields, DimensionMismatch for a source of
    dimension below 2 or a target of another dimension than C(n+2, 2) - 1.
    Every other table is decided by its fit record (`PointMap._fit`).  A
    certified table gets the Reconstruction of the fitted kappa.  When
    the images of the points with 0/1 coordinates fit no collineation,
    FrameCheckFailed, a NotRegular, refuses the table with no point;
    otherwise VerificationFailed names the first point of D in
    `points()` order.  The record is kept, so a second call on the same
    table fits and compares nothing and raises the same refusal.
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
    kappa, d = nu._fit
    if kappa is None:
        raise FrameCheckFailed("the images of the points with 0/1 coordinates fit no collineation")
    if d:
        x = next(x for x in source.points() if x in d)
        raise VerificationFailed(f"certificate fails at {x}", point=x)
    return Reconstruction(kappa, kappa.alpha, source.point_count)


def _fit_kappa(nu: PointMap) -> SemilinearMap | None:
    """kappa read off the table at points with 0/1 coordinates, in one
    elimination, or None when those points fit no collineation.

    Write K for the matrix of a kappa with nu = kappa rho, its columns
    k_ij indexed by the monomial pairs.  At a point x with coordinates 0
    and 1, rho(x) has entries 0 and 1, which every Frobenius power fixes,
    so nu(x) ~ K rho(x) whatever alpha is (~ means equal up to a nonzero
    factor).  The fit reads:

    - the basis images b_ii = nu(e_i) ~ k_ii and, for i < j,
      b_ij = nu(e_i + e_j) ~ k_ii + k_jj + k_ij.  So for nonzero c,
      k_ii = c_i b_ii and k_ij = c_ij b_ij - c_i b_ii - c_j b_jj, that
      is K = b diag(c) T, where T sends e_ij to e_ij - e_ii - e_jj and
      fixes e_ii.  T is the identity minus a map N with N^2 = 0, so it
      is invertible with inverse I + N, and K is invertible exactly
      when b is a basis;
    - the scalar images nu(e_0 + e_i + e_j), 1 <= i < j <= n, each
      ~ k_00 + k_ii + k_jj + k_0i + k_0j + k_ij
      = c_0i b_0i + c_0j b_0j + c_ij b_ij - c_0 b_00 - c_i b_ii - c_j b_jj.
      Their coordinates in the b basis give the six factors up to one
      scale, which c_0 = 1 fixes: every c then carries the same factor
      against K's, so the fitted matrix is a multiple of K;
    - the unit image nu(1, ..., 1) ~ K rho(1, ..., 1), the sum of K's
      columns.  The fitted matrix is rescaled so that its columns sum
      to the table's representative of it;
    - over GF(p^k) with k > 1, the probe images nu(1, t, 0, ..., 0)
      ~ K (1, t^(p^alpha), t^(2 p^alpha)) on the pairs (0,0), (0,1),
      (1,1).  With beta the b coordinates of a probe, its coordinates
      in the fitted basis are diag(c)^-1 beta pushed through I + N, up
      to the rescale: the (0,1) coordinate is beta_01 / c_01 and the
      (0,0) one beta_00 + sum over j >= 1 of beta_0j / c_0j.  These are
      the rows `_probe_exponent` reads, so `_frobenius_exponent` finds
      `recover_automorphism`'s alpha; two exponents give two different
      ratios at a primitive t, so alpha is unique.  Over a prime field
      alpha = 0.

    So on a kappa rho table b is a basis, no factor is zero, the column
    sum is a multiple of the unit image and the probes match alpha: the
    fit returns kappa, and it refuses only tables that are not kappa
    rho.  It computes K from the table alone, so every kappa with
    nu = kappa rho has a matrix proportional to K, and the rescale picks
    the one multiple whose columns sum to the unit image, as
    `scale_frame` does for `build_Q_frame`, whose frame points on such a
    table are K's columns by the paper's construction.  A certificate
    that passes proves nu = kappa rho.  So the fit with the certificate
    (the fit record `PointMap._fit`) certifies exactly the kappa rho
    tables, and on them the paper's Q-frame and probe exponent give the
    same kappa and alpha, which the `prop-x33` suite checks.  A table the fit refuses is not
    kappa rho, so no second construction is needed to refuse it.  Unlike
    the Q-frame, the fit needs no frame in rho(P): for n = 3 over GF(2),
    rho(PG(3, 2)) holds none.

    The basis, scalar and probe images share one elimination; the rest
    is field arithmetic on m = C(n+2, 2) vectors.  The fit record
    `PointMap._fit` calls the fit once per table and keeps its kappa.
    """
    source, target = nu.source, nu.target
    field, n = source.field, source.n
    if field != target.field or n < 2 or target.n != delta(n) - 1:
        return None
    pairs = monomial_pairs(n)
    m, at = len(pairs), {pair: r for r, pair in enumerate(pairs)}

    def image(*ones):
        return nu.table[tuple(int(i in ones) for i in range(n + 1))]

    basis = [image(i, j) for i, j in pairs]
    triples = list(combinations(range(1, n + 1), 2))
    extra = [image(0, i, j) for i, j in triples]
    if field.k > 1:
        extra += [nu.table[(1, t) + (0,) * (n - 1)] for t in field.elements()]
    pivots, rows = linalg.rref(field, [a + b for a, b in zip(zip(*basis), zip(*extra))])
    if pivots != tuple(range(m)):
        return None
    coords = list(zip(*(row[m:] for row in rows)))  # b coordinates of each extra image
    add, mul, neg, div = field.add_table, field.mul_table, field.neg, field.div

    def plus(values):
        return functools.reduce(lambda a, b: add[a][b], values, 0)

    c = [1] + [0] * (m - 1)  # c_0 = 1, at the pair (0, 0)
    for (i, j), beta in zip(triples, coords):
        f = neg(beta[0])  # beta = f (c_0i, c_0j, c_ij, -c_0, -c_i, -c_j) on those pairs
        if not f:
            return None
        for pair in (0, i), (0, j), (i, j), (i, i), (j, j):
            r = at[pair]
            c[r] = div(beta[r], beta[0] if pair[0] == pair[1] else f)
            if not c[r]:
                return None
    diag = [[mul[c[at[i, i]]][x] for x in basis[at[i, i]]] for i in range(n + 1)]
    cols = [
        diag[i] if i == j else [
            add[mul[c[r]][x]][neg(add[y][z])] for x, y, z in zip(basis[r], diag[i], diag[j])
        ]
        for r, (i, j) in enumerate(pairs)
    ]
    total = [plus(row) for row in zip(*cols)]
    if linalg.canonical(field, total) != image(*range(n + 1)):
        return None
    rescale = mul[field.inv(next(filter(None, total)))]
    cols = [tuple(rescale[x] for x in col) for col in cols]
    alpha = 0
    if field.k > 1:
        # the pairs (0, j) come first, so at[0, j] = j, and c_00 = c_0 = 1
        probes = [[div(beta[j], c[j]) for j in range(n + 1)] for beta in coords[len(triples):]]
        alpha = _frobenius_exponent(field, [plus(y) for y in probes], [y[1] for y in probes])
        if alpha is None:
            return None
    return SemilinearMap.from_basis(target, cols, alpha)


def kappa_rho(source: ProjectiveSpace, kappa: SemilinearMap) -> list[tuple[int, ...]]:
    """The points kappa(rho(x)) for the source points x, in
    `source.points()` order: the one computation of a kappa rho table,
    for the fit record `PointMap._fit` and `generate.compose_with_veronese`.

    With K the matrix of kappa and sigma its field automorphism,
    kappa rho(x) is the canonical multiple of K rho(x)^sigma, and
    rho(x)^sigma = rho(x^sigma), as rho's monomials have coefficient 1.
    So the columns of rho(P) (`VeroneseMap.columns`), each twisted by
    sigma in one `bytes.translate`, go through
    `linalg.canonical_products` in one call, which gives the points
    `kappa.images` gives for the rows of `VeroneseMap.image`.
    """
    ver = veronese_for(source)
    if kappa.space != ver.target:
        raise SpaceMismatch(f"kappa acts on {kappa.space}, not on the Veronese target")
    field, columns = source.field, ver.columns
    if kappa.alpha:
        twist = field.byte_tables.frobenius[kappa.alpha]
        columns = [col.translate(twist) for col in columns]
    return linalg.canonical_products(field, kappa.matrix, columns)
