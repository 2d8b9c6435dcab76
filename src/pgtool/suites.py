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
from .arcs import PlaneArc, is_regular_conic, lemma_h6_set, segre_scan
from .embeddings import (
    build_iota,
    build_Q_frame,
    extend_beta,
    is_quadratic_embedding,
    random_complement,
    reconstruct_kappa,
    span_preimage,
)
from .errors import PgtoolError, UnknownSuite
from .generate import (
    broken_map,
    frame_injection_map,
    random_semilinear,
    space_for,
    veronese_kappa_map,
    veronese_point_map,
)
from .prng import SplitMix64
from .quadrics import closure_points, longest_closed_chain
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
        ver = veronese_for(space)
        # literal oracle: intersect the zero sets of every form containing M
        from .quadrics import QuadraticForm
        from .projective import _coefficient_reps

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
    return params, not witnesses, witnesses


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
    return params, not witnesses, witnesses


def _suite_prop_3_9():
    params = {"exhaustive_space": [2, 2], "sampled_space": [2, 3], "seed": 393, "count": 200}
    witnesses = []
    space22 = space_for(2, 2)
    ver22 = veronese_for(space22)
    pts22 = space22.points()
    for size in range(len(pts22) + 1):
        for idx in combinations(range(len(pts22)), size):
            subset = [pts22[i] for i in idx]
            want = linalg.rank(space22.field, [ver22.apply(x) for x in subset]) - 1
            got = longest_closed_chain(space22, subset)
            if got != want:
                witnesses.append({"space": [2, 2], "subset": _pts(subset), "chain": got, "rank_dim": want})
    space23 = space_for(2, 3)
    ver23 = veronese_for(space23)
    pts23 = space23.points()
    rng = SplitMix64(params["seed"])
    for _ in range(params["count"]):
        size = rng.randbelow(len(pts23) + 1)
        subset = [pts23[i] for i in rng.sample_indices(len(pts23), size)]
        want = linalg.rank(space23.field, [ver23.apply(x) for x in subset]) - 1
        got = longest_closed_chain(space23, subset)
        if got != want:
            witnesses.append({"space": [2, 3], "subset": _pts(subset), "chain": got, "rank_dim": want})
    return params, not witnesses, witnesses


def _suite_eq_immsing():
    params = {"space": [2, 3], "max_subset": 3}
    witnesses = []
    space = space_for(2, 3)
    ver = veronese_for(space)
    shift = delta(space.n - 1)  # rank of a hyperplane image
    for hp in space.hyperplanes():
        hp_rows = [ver.apply(x) for x in hp.points()]
        affine = [p for p in space.points() if p not in set(hp.points())]
        for size in range(params["max_subset"] + 1):
            for subset in combinations(affine, size):
                lhs = linalg.rank(space.field, hp_rows + [ver.apply(x) for x in subset]) - 1
                rhs = shift + linalg.rank(space.field, list(subset)) - 1
                if lhs != rhs:
                    witnesses.append(
                        {"hyperplane": _pts(hp.points()), "subset": _pts(subset), "lhs": lhs, "rhs": rhs}
                    )
    return params, not witnesses, witnesses


def _suite_prop_h2():
    params = {"space": [2, 3], "complements_per_hyperplane": 3, "seed": 1082, "max_subset": 4}
    witnesses = []
    space = space_for(2, 3)
    ver = veronese_for(space)
    nu = veronese_point_map(2, 3)
    rng = SplitMix64(params["seed"])
    for hp in space.hyperplanes():
        base = ver.target.span([nu.table[x] for x in hp.points()])
        affine = [p for p in space.points() if p not in set(hp.points())]
        for _ in range(params["complements_per_hyperplane"]):
            complement = random_complement(ver.target, base, rng)
            iota = build_iota(nu, hp, complement)
            for size in range(params["max_subset"] + 1):
                for subset in combinations(affine, size):
                    want = linalg.rank(space.field, list(subset)) - 1
                    got = linalg.rank(ver.target.field, [iota[x] for x in subset]) - 1
                    if got != want:
                        witnesses.append(
                            {
                                "hyperplane": _pts(hp.points()),
                                "subset": _pts(subset),
                                "dim_source": want,
                                "dim_image": got,
                            }
                        )
    return params, not witnesses, witnesses


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
    return params, not witnesses, witnesses


def _admissible_sigma(space, rng, alpha):
    pts = space.points()
    while True:
        p0 = pts[rng.randbelow(len(pts))]
        sigma = random_semilinear(space, rng, alpha=alpha)
        p2 = sigma.apply(p0)
        if p2 == p0:
            continue
        joining = space.span((p0, p2))
        a, b = joining.rows
        if space.span((sigma.apply(a), sigma.apply(b))) == joining:
            continue
        return sigma, p0


def _has_collinear_triple(space, pts):
    return any(
        linalg.rank(space.field, [a, b, c]) <= 2 for a, b, c in combinations(pts, 3)
    )


def _suite_lemma_h6():
    params = {"fields": [4, 9], "per_direction": 50, "seed": 116}
    witnesses = []
    for q in params["fields"]:
        space = space_for(2, q)
        rng = SplitMix64(params["seed"] + q)
        for i in range(params["per_direction"]):
            sigma, p0 = _admissible_sigma(space, rng, alpha=0)
            pts = sorted(lemma_h6_set(sigma, p0))
            if _has_collinear_triple(space, pts):
                witnesses.append({"q": q, "case": f"projective:{i}", "set": _pts(pts)})
        for i in range(params["per_direction"]):
            sigma, p0 = _admissible_sigma(space, rng, alpha=1)
            pts = sorted(lemma_h6_set(sigma, p0))
            if not _has_collinear_triple(space, pts):
                witnesses.append({"q": q, "case": f"twisted:{i}", "set": _pts(pts)})
    return params, not witnesses, witnesses


def _suite_prop_h7():
    params = {"fields": [3, 4], "seeds": list(range(20))}
    witnesses = []
    for q in params["fields"]:
        for s in params["seeds"]:
            nu, _ = veronese_kappa_map(2, q, s)
            for line in nu.source.lines():
                imgs = [nu.table[x] for x in line.points()]
                plane = nu.target.span(imgs)
                if plane.dim != 2:
                    witnesses.append({"q": q, "seed": s, "line": _pts(line.points())})
                    continue
                ok, _witness = is_regular_conic(PlaneArc(plane, frozenset(imgs)))
                if not ok:
                    witnesses.append({"q": q, "seed": s, "line": _pts(line.points())})
    return params, not witnesses, witnesses


def _suite_prop_x33():
    grid = ((2, 2), (2, 3), (2, 4), (3, 2))
    params = {"grid": [list(g) for g in grid], "seeds": list(range(20))}
    witnesses = []
    for n, q in grid:
        for s in params["seeds"]:
            nu, _ = veronese_kappa_map(n, q, s)
            try:
                build_Q_frame(nu)
            except PgtoolError as exc:
                witnesses.append({"space": [n, q], "seed": s, "error": str(exc)})
    return params, not witnesses, witnesses


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
    return params, not witnesses, witnesses


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
    return params, not witnesses, witnesses


def _suite_segre_scan():
    params = {"q": [2, 3, 4, 5]}
    witnesses = []
    for q in params["q"]:
        report = segre_scan(q)
        if report.non_conic_ovals or report.ovals != report.conics:
            witnesses.append(report.to_dict())
    return params, not witnesses, witnesses


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
    return params, not witnesses, witnesses


_SUITES = {
    "closure-transfer": ("clos M = (span M^rho)^(rho^-1)", _suite_closure_transfer),
    "thm-3-7": ("n' = C(n+2,2) - 1", _suite_thm_3_7),
    "prop-3-9": ("chain length = dim span M^rho", _suite_prop_3_9),
    "eq-immsing": ("dim span (T u M)^rho = C(n+1,2) + dim span M", _suite_eq_immsing),
    "prop-h2": ("iota preserves span dimensions", _suite_prop_h2),
    "props-h3-h4": ("unique extension; hyperplane map injective with exact preimages", _suite_props_h3_h4),
    "lemma-h6": ("collinear-triple dichotomy for the pencil intersection set", _suite_lemma_h6),
    "prop-h7": ("line images are regular conics", _suite_prop_h7),
    "prop-x33": ("tangent-intersection points plus unit image form a frame", _suite_prop_x33),
    "main-theorem": ("nu = rho kappa, certified pointwise", _suite_main_theorem),
    "example-4": ("frame injections are quadratic embeddings", _suite_example_4),
    "segre-scan": ("every oval is a conic for q in {2,3,4,5}", _suite_segre_scan),
    "negative-controls": ("perturbed tables are rejected with witnesses", _suite_negative_controls),
}

SUITE_ORDER = list(_SUITES)

# stated wall-clock budgets, in seconds
BUDGETS = {
    "closure-transfer": 1.0,
    "thm-3-7": 10.0,
    "prop-3-9": 60.0,
    "eq-immsing": 10.0,
    "prop-h2": 30.0,
    "props-h3-h4": 60.0,
    "lemma-h6": 30.0,
    "prop-h7": 60.0,
    "prop-x33": 60.0,
    "main-theorem": 300.0,
    "example-4": 10.0,
    "segre-scan": 120.0,
    "negative-controls": 10.0,
}


def _run_one(suite_id: str) -> SuiteResult:
    anchor, fn = _SUITES[suite_id]
    start = time.perf_counter()
    params, passed, witnesses = fn()
    seconds = time.perf_counter() - start
    return SuiteResult(
        suite=suite_id,
        anchor=anchor,
        params=params,
        passed=passed,
        witnesses=witnesses,
        seconds=seconds,
    )


def run_suite(suite_id: str = "all") -> list[SuiteResult]:
    """Run one suite or all of them; results come back in registry order."""
    if suite_id in ("all", None):
        ids = SUITE_ORDER
    elif suite_id in _SUITES:
        ids = [suite_id]
    else:
        raise UnknownSuite(f"unknown suite {suite_id!r}; known: {', '.join(SUITE_ORDER)}")
    return [_run_one(i) for i in ids]
