"""Verification suites keyed to the claims they mechanically confirm.

Each suite re-derives one statement at desk scale and reports pass or
fail with explicit witnesses.  Runs are deterministic: every random
draw comes from SplitMix64 with the fixed seeds recorded in the
parameter block of the result, and witnesses are collected in a stable
order, so the report body is reproducible bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations

from . import linalg
from .arcs import PlaneArc, is_arc, is_regular_conic, lemma_h6_set, segre_scan
from .embeddings import (
    build_iota,
    build_Q_frame,
    extend_beta,
    is_quadratic_embedding,
    line_arc,
    random_complement,
    reconstruct_kappa,
    recover_automorphism,
    span_preimage,
)
from .errors import PgtoolError, SigmaFixesLine, SigmaFixesP0, UnknownSuite
from .generate import (
    broken_map,
    frame_injection_map,
    random_semilinear,
    space_for,
    veronese_kappa_map,
    veronese_point_map,
)
from .prng import SplitMix64
from .projective import _coefficient_reps
from .quadrics import QuadraticForm, closure_points, longest_closed_chain
from .veronese import delta, veronese_for


@dataclass
class SuiteResult:
    suite: str
    anchor: str
    params: dict
    passed: bool
    witnesses: list = field(default_factory=list)
    seconds: float = 0.0

    def body(self) -> dict:
        """The comparable report body; timing is deliberately excluded."""
        return {
            "suite": self.suite,
            "anchor": self.anchor,
            "params": self.params,
            "passed": self.passed,
            "witnesses": self.witnesses,
        }


def _pt(p) -> list:
    return list(p)


def _pts(ps) -> list:
    return sorted(_pt(p) for p in ps)


# -- suite bodies ---------------------------------------------------------


def _suite_closure_transfer():
    params = {"spaces": [[2, 2], [1, 3]]}
    witnesses = []
    for n, q in ((2, 2), (1, 3)):
        space = space_for(n, q)
        pts = space.points()
        # literal oracle: intersect the zero sets of every form containing M
        zero_masks = []
        for coeffs in _coefficient_reps(space.field, delta(n)):
            form = QuadraticForm(space, coeffs)
            mask = 0
            for i, x in enumerate(pts):
                if not form.evaluate(x):
                    mask |= 1 << i
            zero_masks.append(mask)
        full = (1 << len(pts)) - 1
        for size in range(len(pts) + 1):
            for idx in combinations(range(len(pts)), size):
                mmask = 0
                for i in idx:
                    mmask |= 1 << i
                literal = full
                for zmask in zero_masks:
                    if mmask & ~zmask == 0:
                        literal &= zmask
                subset = [pts[i] for i in idx]
                linearized = closure_points(space, subset)
                lin_mask = 0
                for i, x in enumerate(pts):
                    if x in linearized:
                        lin_mask |= 1 << i
                if literal != lin_mask:
                    witnesses.append({"space": [n, q], "subset": _pts(subset)})
    return params, witnesses


_GRID_37 = ((1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3))


def _suite_thm_3_7():
    seeds = list(range(20))
    params = {"grid": [list(g) for g in _GRID_37], "seeds": seeds}
    witnesses = []
    for n, q in _GRID_37:
        expected = delta(n)
        plain = veronese_point_map(n, q)
        cases = [("veronese", plain)]
        for s in seeds:
            cases.append((f"veronese_kappa:{s}", veronese_kappa_map(n, q, s)[0]))
        for label, pm in cases:
            got = linalg.rank(pm.target.field, pm.image())
            if got != expected:
                witnesses.append(
                    {"space": [n, q], "case": label, "rank": got, "expected": expected}
                )
    return params, witnesses


def _suite_prop_3_9():
    params = {"exhaustive_space": [2, 2], "sampled_space": [2, 3], "seed": 393, "count": 200}
    witnesses = []

    def check(space, subset):
        want = linalg.rank(space.field, [veronese_for(space).apply(x) for x in subset]) - 1
        got = longest_closed_chain(space, subset)
        if got != want:
            witnesses.append(
                {"space": [space.n, space.field.q], "subset": _pts(subset), "chain": got, "rank_dim": want}
            )

    space = space_for(2, 2)
    pts = space.points()
    for size in range(len(pts) + 1):
        for subset in combinations(pts, size):
            check(space, subset)
    space = space_for(2, 3)
    pts = space.points()
    rng = SplitMix64(params["seed"])
    for _ in range(params["count"]):
        size = rng.randbelow(len(pts) + 1)
        check(space, [pts[i] for i in rng.sample_indices(len(pts), size)])
    return params, witnesses


def _suite_eq_immsing():
    """rank(T u M)^rho = rank T^rho + the rank of M^rho reduced modulo
    span T^rho: the reduction is linear with kernel span T^rho.  So one
    `rref` of the hyperplane rows and two `linalg.subset_ranks` walks
    per hyperplane give every subset's two sides."""
    params = {"space": [2, 3], "max_subset": 3}
    witnesses = []
    space = space_for(2, 3)
    field = space.field
    ver = veronese_for(space)
    shift = delta(space.n - 1)  # rank of a hyperplane image
    for hp in space.hyperplanes():
        pivots, rrows = linalg.rref(field, [ver.apply(x) for x in hp.points()])
        affine = [p for p in space.points() if p not in set(hp.points())]
        reduced = [linalg.residual(field, pivots, rrows, ver.apply(x)) for x in affine]
        image_ranks = linalg.subset_ranks(field, reduced, params["max_subset"])
        source_ranks = linalg.subset_ranks(field, affine, params["max_subset"])
        for size in range(params["max_subset"] + 1):
            for idx in combinations(range(len(affine)), size):
                lhs = len(pivots) + image_ranks[idx] - 1
                rhs = shift + source_ranks[idx] - 1
                if lhs != rhs:
                    witnesses.append(
                        {"hyperplane": _pts(hp.points()), "subset": _pts(affine[i] for i in idx), "lhs": lhs, "rhs": rhs}
                    )
    return params, witnesses


def _suite_prop_h2():
    """The ranks of both sides come from `linalg.subset_ranks`: the
    source ranks once per hyperplane, the iota-image ranks once per
    complement."""
    params = {"space": [2, 3], "complements_per_hyperplane": 3, "seed": 1082, "max_subset": 4}
    witnesses = []
    space = space_for(2, 3)
    ver = veronese_for(space)
    nu = veronese_point_map(2, 3)
    rng = SplitMix64(params["seed"])
    for hp in space.hyperplanes():
        base = ver.target.span([nu.table[x] for x in hp.points()])
        affine = [p for p in space.points() if p not in set(hp.points())]
        source_ranks = linalg.subset_ranks(space.field, affine, params["max_subset"])
        for _ in range(params["complements_per_hyperplane"]):
            complement = random_complement(ver.target, base, rng)
            iota = build_iota(nu, hp, complement)
            image_ranks = linalg.subset_ranks(
                ver.target.field, [iota[x] for x in affine], params["max_subset"]
            )
            for size in range(params["max_subset"] + 1):
                for idx in combinations(range(len(affine)), size):
                    want = source_ranks[idx] - 1
                    got = image_ranks[idx] - 1
                    if got != want:
                        witnesses.append(
                            {
                                "hyperplane": _pts(hp.points()),
                                "subset": _pts(affine[i] for i in idx),
                                "dim_source": want,
                                "dim_image": got,
                            }
                        )
    return params, witnesses


def _suite_props_h3_h4():
    grid = ((2, 2), (2, 3), (3, 2))
    params = {"grid": [list(g) for g in grid]}
    witnesses = []
    for n, q in grid:
        nu = veronese_point_map(n, q)
        source, target = nu.source, nu.target
        images = {}
        for hp in source.hyperplanes():
            hp_pts = list(hp.points())
            try:
                beta = extend_beta(nu, hp)
            except PgtoolError as exc:
                witnesses.append({"space": [n, q], "hyperplane": _pts(hp_pts), "error": str(exc)})
                continue
            h_image = target.span(
                [nu.table[x] for x in hp_pts] + [beta.table[x] for x in hp_pts]
            )
            if h_image.dim != target.n - 1:
                witnesses.append(
                    {"space": [n, q], "hyperplane": _pts(hp_pts), "image_dim": h_image.dim}
                )
                continue
            preimage = frozenset(
                x for x in source.points() if h_image.contains(nu.table[x])
            )
            if preimage != frozenset(hp_pts):
                witnesses.append(
                    {"space": [n, q], "hyperplane": _pts(hp_pts), "bad_preimage": _pts(preimage)}
                )
            images[hp] = h_image
        if len(set(images.values())) != len(images):
            witnesses.append({"space": [n, q], "error": "hyperplane images collide"})
    return params, witnesses


def _lemma_h6_draw(space, rng, alpha):
    """`lemma_h6_set` of the first random (sigma, p0) it accepts."""
    pts = space.points()
    while True:
        p0 = pts[rng.randbelow(len(pts))]
        sigma = random_semilinear(space, rng, alpha=alpha)
        try:
            return lemma_h6_set(sigma, p0)
        except (SigmaFixesP0, SigmaFixesLine):
            pass


def _suite_lemma_h6():
    params = {"fields": [4, 9], "per_direction": 50, "seed": 116}
    witnesses = []
    for q in params["fields"]:
        space = space_for(2, q)
        plane = space.full_subspace()
        rng = SplitMix64(params["seed"] + q)
        # a projective sigma (alpha 0) gives an arc, a twisted one never does
        for alpha, case in enumerate(("projective", "twisted")):
            for i in range(params["per_direction"]):
                pts = sorted(_lemma_h6_draw(space, rng, alpha))
                if is_arc(PlaneArc(plane, frozenset(pts))) == bool(alpha):
                    witnesses.append({"q": q, "case": f"{case}:{i}", "set": _pts(pts)})
    return params, witnesses


def _suite_prop_h7():
    params = {"fields": [3, 4], "seeds": list(range(20))}
    witnesses = []
    for q in params["fields"]:
        for s in params["seeds"]:
            nu, _ = veronese_kappa_map(2, q, s)
            for line in nu.source.lines():
                arc = line_arc(nu, line)
                if arc is None or not is_regular_conic(arc)[0]:
                    witnesses.append({"q": q, "seed": s, "line": _pts(line.points())})
    return params, witnesses


def _suite_prop_x33():
    grid = ((2, 2), (2, 3), (2, 4), (3, 2))
    params = {"grid": [list(g) for g in grid], "seeds": list(range(20))}
    witnesses = []
    for n, q in grid:
        for s in params["seeds"]:
            nu, _ = veronese_kappa_map(n, q, s)
            # the paper's frame and probe exponent against the fitted kappa
            try:
                frame = build_Q_frame(nu)
                alpha = recover_automorphism(nu, frame)
                kappa = reconstruct_kappa(nu).kappa
            except PgtoolError as exc:
                witnesses.append({"space": [n, q], "seed": s, "error": str(exc)})
                continue
            if tuple(frame) != linalg.transpose(kappa.matrix):
                witnesses.append({"space": [n, q], "seed": s, "error": "frame is not kappa's columns"})
            elif alpha != kappa.alpha:
                witnesses.append({"space": [n, q], "seed": s, "error": "probe exponent is not kappa's"})
    return params, witnesses


def _suite_main_theorem():
    params = {"fields": [2, 3, 4, 5, 9], "n": 2, "seeds": list(range(100))}
    witnesses = []
    for q in params["fields"]:
        for s in params["seeds"]:
            nu, kappa0 = veronese_kappa_map(2, q, s)
            try:
                rec = reconstruct_kappa(nu)
            except PgtoolError as exc:
                witnesses.append({"q": q, "seed": s, "error": str(exc)})
                continue
            if rec.alpha != kappa0.alpha:
                witnesses.append(
                    {"q": q, "seed": s, "alpha": rec.alpha, "expected": kappa0.alpha}
                )
    return params, witnesses


def _suite_example_4():
    params = {"seeds": list(range(20))}
    witnesses = []
    for s in params["seeds"]:
        nu = frame_injection_map(s)
        report = is_quadratic_embedding(nu, mode="exhaustive")
        if not report.is_embedding:
            witnesses.append({"seed": s, "error": "not accepted as an embedding"})
            continue
        try:
            reconstruct_kappa(nu)
        except PgtoolError as exc:
            witnesses.append({"seed": s, "error": str(exc)})
    return params, witnesses


def _suite_segre_scan():
    params = {"q": [2, 3, 4, 5]}
    witnesses = []
    for q in params["q"]:
        report = segre_scan(q)
        if report.non_conic_ovals or report.ovals != report.conics:
            witnesses.append(report.to_dict())
    return params, witnesses


def _suite_negative_controls():
    params = {"space": [2, 3], "seeds": list(range(20))}
    witnesses = []
    for s in params["seeds"]:
        nu = broken_map(2, 3, s)
        report = is_quadratic_embedding(nu, mode="reduced")
        if report.is_embedding or report.violated_set is None:
            witnesses.append({"seed": s, "error": "verifier accepted a broken map"})
            continue
        # independently re-check the witness subset
        subset = sorted(report.violated_set)
        if closure_points(nu.source, subset) == span_preimage(nu, subset):
            witnesses.append({"seed": s, "error": "reported witness does not violate"})
    return params, witnesses


# id: (anchor, suite body, stated wall-clock budget in seconds)
_SUITES = {
    "closure-transfer": ("clos M = (span M^rho)^(rho^-1)", _suite_closure_transfer, 1.0),
    "thm-3-7": ("n' = C(n+2,2) - 1", _suite_thm_3_7, 10.0),
    "prop-3-9": ("chain length = dim span M^rho", _suite_prop_3_9, 60.0),
    "eq-immsing": ("dim span (T u M)^rho = C(n+1,2) + dim span M", _suite_eq_immsing, 10.0),
    "prop-h2": ("iota preserves span dimensions", _suite_prop_h2, 30.0),
    "props-h3-h4": ("unique extension; hyperplane map injective with exact preimages", _suite_props_h3_h4, 60.0),
    "lemma-h6": ("collinear-triple dichotomy for the pencil intersection set", _suite_lemma_h6, 30.0),
    "prop-h7": ("line images are regular conics", _suite_prop_h7, 60.0),
    "prop-x33": ("tangent-intersection points plus unit image form a frame", _suite_prop_x33, 60.0),
    "main-theorem": ("nu = rho kappa, certified pointwise", _suite_main_theorem, 300.0),
    "example-4": ("frame injections are quadratic embeddings", _suite_example_4, 10.0),
    "segre-scan": ("every oval is a conic for q in {2,3,4,5}", _suite_segre_scan, 120.0),
    "negative-controls": ("perturbed tables are rejected with witnesses", _suite_negative_controls, 10.0),
}

SUITE_ORDER = list(_SUITES)
BUDGETS = {suite_id: budget for suite_id, (_, _, budget) in _SUITES.items()}


def _run_one(suite_id: str) -> SuiteResult:
    anchor, fn, _ = _SUITES[suite_id]
    start = time.perf_counter()
    params, witnesses = fn()
    seconds = time.perf_counter() - start
    return SuiteResult(
        suite=suite_id,
        anchor=anchor,
        params=params,
        passed=not witnesses,
        witnesses=witnesses,
        seconds=seconds,
    )


def run_suite(suite_id: str = "all") -> list[SuiteResult]:
    """Run one suite or all of them; results come back in registry order."""
    if suite_id == "all":
        ids = SUITE_ORDER
    elif suite_id in _SUITES:
        ids = [suite_id]
    else:
        raise UnknownSuite(f"unknown suite {suite_id!r}; known: {', '.join(SUITE_ORDER)}")
    return [_run_one(i) for i in ids]
