"""The rank suites against their literal per-subset loops, the
eliminations they make, and the failure report of every suite."""

from __future__ import annotations

import types
from itertools import combinations

import pytest

from pgtool import linalg, suites
from pgtool.suites import run_suite


def _literal_prop_h2(params):
    """prop-h2 with one `linalg.rank` elimination per subset and side."""
    witnesses = []
    space = suites.space_for(2, 3)
    ver = suites.veronese_for(space)
    nu = suites.veronese_point_map(2, 3)
    rng = suites.SplitMix64(params["seed"])
    for hp in space.hyperplanes():
        base = ver.target.span([nu.table[x] for x in hp.points()])
        affine = [p for p in space.points() if p not in set(hp.points())]
        for _ in range(params["complements_per_hyperplane"]):
            complement = suites.random_complement(ver.target, base, rng)
            iota = suites.build_iota(nu, hp, complement)
            for size in range(params["max_subset"] + 1):
                for subset in combinations(affine, size):
                    want = linalg.rank(space.field, list(subset)) - 1
                    got = linalg.rank(ver.target.field, [iota[x] for x in subset]) - 1
                    if got != want:
                        witnesses.append(
                            {
                                "hyperplane": suites._pts(hp.points()),
                                "subset": suites._pts(subset),
                                "dim_source": want,
                                "dim_image": got,
                            }
                        )
    return witnesses


def _literal_eq_immsing(params):
    """eq-immsing with one `linalg.rank` elimination per subset and side."""
    witnesses = []
    space = suites.space_for(2, 3)
    ver = suites.veronese_for(space)
    shift = suites.delta(space.n - 1)
    for hp in space.hyperplanes():
        hp_rows = [ver.apply(x) for x in hp.points()]
        affine = [p for p in space.points() if p not in set(hp.points())]
        for size in range(params["max_subset"] + 1):
            for subset in combinations(affine, size):
                lhs = linalg.rank(space.field, hp_rows + [ver.apply(x) for x in subset]) - 1
                rhs = shift + linalg.rank(space.field, list(subset)) - 1
                if lhs != rhs:
                    witnesses.append(
                        {"hyperplane": suites._pts(hp.points()), "subset": suites._pts(subset), "lhs": lhs, "rhs": rhs}
                    )
    return witnesses


class _SwappedVeronese:
    """A Veronese map with the images of two points swapped."""

    def __init__(self, ver, a, b):
        self.ver, self.swap = ver, {a: b, b: a}

    def apply(self, x):
        return self.ver.apply(self.swap.get(x, x))


def _moved_iota(build_iota):
    """build_iota with the first point's image moved onto the second's."""

    def moved(nu, hyperplane, complement):
        iota = build_iota(nu, hyperplane, complement)
        first, second = sorted(iota)[:2]
        iota[first] = iota[second]
        return iota

    return moved


def test_prop_h2_witnesses_match_literal_loop(monkeypatch):
    params, witnesses = suites._suite_prop_h2()
    assert witnesses == _literal_prop_h2(params) == []
    monkeypatch.setattr(suites, "build_iota", _moved_iota(suites.build_iota))
    params, witnesses = suites._suite_prop_h2()
    assert witnesses == _literal_prop_h2(params)
    assert len(witnesses) > 100


def test_eq_immsing_witnesses_match_literal_loop(monkeypatch):
    params, witnesses = suites._suite_eq_immsing()
    assert witnesses == _literal_eq_immsing(params) == []
    veronese_for = suites.veronese_for
    monkeypatch.setattr(
        suites, "veronese_for", lambda space: _SwappedVeronese(veronese_for(space), (0, 0, 1), (1, 1, 1))
    )
    params, witnesses = suites._suite_eq_immsing()
    assert witnesses == _literal_eq_immsing(params)
    assert len(witnesses) > 100


@pytest.fixture
def eliminations(monkeypatch):
    """Counts `linalg._echelon` calls, the one elimination loop of
    `rref` and `rank`."""
    calls = [0]
    echelon = linalg._echelon

    def counted(*args):
        calls[0] += 1
        return echelon(*args)

    monkeypatch.setattr(linalg, "_echelon", counted)
    return calls


def test_rank_suite_elimination_count(eliminations, monkeypatch):
    # On warm spaces these are all the eliminations of the four suites.
    # `hyperplanes` makes two per hyperplane.  prop-h2 adds one span per
    # hyperplane and, per complement, the final span of
    # `random_complement` and the one elimination of `build_iota`;
    # eq-immsing one `rref` of the hyperplane rows per hyperplane;
    # lemma-h6 the invertibility test of each drawn collineation, and
    # none in `lemma_h6_set`; props-h3-h4, per hyperplane, the spans of
    # the image and of the default complement, `build_iota`'s
    # elimination, two in the fit and one for the image of H, and one
    # per punctured-line span and one meet per point of H, in the
    # complement's coordinates.  No suite makes an elimination
    # per subset: prop-h2 made 19,968 and eq-immsing 3,380 of those.
    lemma_h6_set, build_iota = suites.lemma_h6_set, suites.build_iota

    def no_elimination(sigma, p0):
        before = eliminations[0]
        try:
            return lemma_h6_set(sigma, p0)
        finally:
            assert eliminations[0] == before

    def at_most_two(nu, hyperplane, complement):
        before = eliminations[0]
        try:
            return build_iota(nu, hyperplane, complement)
        finally:
            assert eliminations[0] - before <= 2

    monkeypatch.setattr(suites, "lemma_h6_set", no_elimination)
    monkeypatch.setattr(suites, "build_iota", at_most_two)
    counts = {}
    for suite_id in ("prop-h2", "props-h3-h4", "eq-immsing", "lemma-h6"):
        (result,) = run_suite(suite_id)  # warms the caches
        assert result.passed
        eliminations[0] = 0
        run_suite(suite_id)
        counts[suite_id] = eliminations[0]
    assert counts == {"prop-h2": 117, "props-h3-h4": 1076, "eq-immsing": 39, "lemma-h6": 320}


def test_prop_x33_checks_frame_and_exponent_against_kappa(monkeypatch):
    # the paper's frame must be kappa's columns and its probe exponent
    # kappa's alpha: a frame scaled by 2 over GF(3), or an exponent moved
    # off kappa's over GF(4), fails the suite at those spaces only
    (result,) = run_suite("prop-x33")
    assert result.passed and result.witnesses == []
    build_q_frame, recover = suites.build_Q_frame, suites.recover_automorphism

    def scaled_over_gf3(nu):
        frame = build_q_frame(nu)
        return [tuple(2 * x % 3 for x in col) for col in frame] if nu.source.field.q == 3 else frame

    def moved_over_gf4(nu, scaled):
        alpha = recover(nu, scaled)
        return 1 - alpha if nu.source.field.q == 4 else alpha

    for name, wrong, space, error in (
        ("build_Q_frame", scaled_over_gf3, [2, 3], "frame is not kappa's columns"),
        ("recover_automorphism", moved_over_gf4, [2, 4], "probe exponent is not kappa's"),
    ):
        with monkeypatch.context() as patched:
            patched.setattr(suites, name, wrong)
            (result,) = run_suite("prop-x33")
        assert not result.passed
        assert result.witnesses == [
            {"space": space, "seed": s, "error": error} for s in result.params["seeds"]
        ]


# -- failure reports: every witness append and `continue` of a failing suite --
#
# Each test replaces the collaborator a suite imports with a wrong one
# and pins the failure: `passed` is False and the witness keys.


def _failing(suite_id):
    (result,) = run_suite(suite_id)
    assert result.passed is False
    return result.witnesses


def _raising(*args):
    raise suites.PgtoolError("collaborator refused")


def test_closure_transfer_reports_subsets_whose_closure_differs(monkeypatch):
    # with the identity as closure, the witnesses are the subsets that are
    # not closed, in size-then-lex order: the 6-point subsets of PG(2,2),
    # whose closure is the plane, and the 3-point subsets of PG(1,3),
    # whose closure is the line
    monkeypatch.setattr(suites, "closure_points", lambda space, subset: frozenset(subset))
    expected = [
        {"space": [n, q], "subset": sorted(map(list, subset))}
        for n, q, size in ((2, 2, 6), (1, 3, 3))
        for subset in combinations(suites.space_for(n, q).points(), size)
    ]
    assert _failing("closure-transfer") == expected


def test_thm_3_7_reports_every_case_whose_rank_differs(monkeypatch):
    delta = suites.delta
    monkeypatch.setattr(suites, "delta", lambda t: delta(t) + 1)
    witnesses = _failing("thm-3-7")
    assert len(witnesses) == len(suites._GRID_37) * 21
    assert witnesses[0] == {"space": [1, 2], "case": "veronese", "rank": 3, "expected": 4}
    assert {tuple(w) for w in witnesses} == {("space", "case", "rank", "expected")}


def test_prop_3_9_reports_every_subset_whose_chain_differs(monkeypatch):
    monkeypatch.setattr(suites, "longest_closed_chain", lambda space, subset: -2)
    witnesses = _failing("prop-3-9")
    assert len(witnesses) == 2**7 + 200  # every subset of PG(2,2), then the sampled ones
    assert witnesses[0] == {"space": [2, 2], "subset": [], "chain": -2, "rank_dim": -1}
    assert {tuple(w) for w in witnesses} == {("space", "subset", "chain", "rank_dim")}


def test_props_h3_h4_reports_refusals(monkeypatch):
    monkeypatch.setattr(suites, "extend_beta", _raising)
    witnesses = _failing("props-h3-h4")
    assert len(witnesses) == 7 + 13 + 15  # every hyperplane of each space, and nothing else
    assert {tuple(w) for w in witnesses} == {("space", "hyperplane", "error")}
    assert {w["error"] for w in witnesses} == {"collaborator refused"}


def test_props_h3_h4_reports_images_that_are_no_hyperplane(monkeypatch):
    # beta = nu: the image of H spans only span nu(H)
    monkeypatch.setattr(suites, "extend_beta", lambda nu, hp: nu)
    witnesses = _failing("props-h3-h4")
    assert len(witnesses) == 7 + 13 + 15
    assert witnesses[0] == {"space": [2, 2], "hyperplane": [[0, 1, 0], [1, 0, 0], [1, 1, 0]], "image_dim": 2}
    assert {tuple(w) for w in witnesses} == {("space", "hyperplane", "image_dim")}


def test_props_h3_h4_reports_wrong_preimages_and_colliding_images(monkeypatch):
    # beta sends the first two hyperplanes H1, H2 onto each other's images,
    # so both span the hyperplane span rho(H1 u H2), whose preimage is H1 u H2
    extend_beta = suites.extend_beta

    def exchanged(nu, hp):
        first, second = nu.source.hyperplanes()[:2]
        if hp not in (first, second):
            return extend_beta(nu, hp)
        other = second if hp == first else first
        return types.SimpleNamespace(table=dict(zip(hp.points(), (nu.table[x] for x in other.points()))))

    monkeypatch.setattr(suites, "extend_beta", exchanged)
    witnesses = _failing("props-h3-h4")
    assert [(w["space"], tuple(w)) for w in witnesses] == [
        (space, keys)
        for space in ([2, 2], [2, 3], [3, 2])
        for keys in [("space", "hyperplane", "bad_preimage")] * 2 + [("space", "error")]
    ]
    h1, h2 = suites.space_for(2, 2).hyperplanes()[:2]
    union = sorted(map(list, set(h1.points()) | set(h2.points())))
    assert witnesses[0]["bad_preimage"] == witnesses[1]["bad_preimage"] == union
    assert witnesses[2] == {"space": [2, 2], "error": "hyperplane images collide"}


def test_lemma_h6_reports_every_draw_on_the_wrong_side(monkeypatch):
    monkeypatch.setattr(suites, "is_arc", lambda arc: False)
    witnesses = _failing("lemma-h6")
    assert len(witnesses) == 2 * 50  # the twisted draws are no arcs, as the lemma says
    assert {w["case"].split(":")[0] for w in witnesses} == {"projective"}
    assert {tuple(w) for w in witnesses} == {("q", "case", "set")}


def test_prop_h7_reports_lines_whose_image_is_no_regular_conic(monkeypatch):
    monkeypatch.setattr(suites, "is_regular_conic", lambda arc: (False, None))
    witnesses = _failing("prop-h7")
    assert len(witnesses) == 20 * (13 + 21)
    assert witnesses[0] == {"q": 3, "seed": 0, "line": sorted(map(list, suites.space_for(2, 3).lines()[0].points()))}
    assert {tuple(w) for w in witnesses} == {("q", "seed", "line")}


def test_prop_x33_reports_refusals(monkeypatch):
    monkeypatch.setattr(suites, "build_Q_frame", _raising)
    witnesses = _failing("prop-x33")
    assert witnesses == [
        {"space": [n, q], "seed": s, "error": "collaborator refused"}
        for n, q in ((2, 2), (2, 3), (2, 4), (3, 2))
        for s in range(20)
    ]


def test_main_theorem_reports_refusals_and_wrong_exponents(monkeypatch):
    with monkeypatch.context() as patched:
        patched.setattr(suites, "reconstruct_kappa", _raising)
        witnesses = _failing("main-theorem")
    assert witnesses == [
        {"q": q, "seed": s, "error": "collaborator refused"} for q in (2, 3, 4, 5, 9) for s in range(100)
    ]
    monkeypatch.setattr(suites, "reconstruct_kappa", lambda nu: types.SimpleNamespace(alpha=-1))
    witnesses = _failing("main-theorem")
    assert len(witnesses) == 500
    assert {(w["alpha"], tuple(w)) for w in witnesses} == {(-1, ("q", "seed", "alpha", "expected"))}


def test_example_4_reports_rejections_and_refusals(monkeypatch):
    with monkeypatch.context() as patched:
        patched.setattr(suites, "is_quadratic_embedding", lambda nu, mode: types.SimpleNamespace(is_embedding=False))
        patched.setattr(suites, "reconstruct_kappa", lambda nu: pytest.fail("a rejected table is reconstructed"))
        witnesses = _failing("example-4")
    assert witnesses == [{"seed": s, "error": "not accepted as an embedding"} for s in range(20)]
    monkeypatch.setattr(suites, "reconstruct_kappa", _raising)
    assert _failing("example-4") == [{"seed": s, "error": "collaborator refused"} for s in range(20)]


def test_segre_scan_reports_each_census_that_finds_no_conic_for_an_oval(monkeypatch):
    report_q3 = types.SimpleNamespace(non_conic_ovals=(), ovals=2, conics=1, to_dict=lambda: {"q": 3})
    segre_scan = suites.segre_scan
    monkeypatch.setattr(suites, "segre_scan", lambda q: report_q3 if q == 3 else segre_scan(q))
    assert _failing("segre-scan") == [{"q": 3}]


def test_negative_controls_report_accepted_tables_and_witnesses_that_hold(monkeypatch):
    accepted = types.SimpleNamespace(is_embedding=True, violated_set=None)
    with monkeypatch.context() as patched:
        patched.setattr(suites, "is_quadratic_embedding", lambda nu, mode: accepted)
        witnesses = _failing("negative-controls")
    assert witnesses == [{"seed": s, "error": "verifier accepted a broken map"} for s in range(20)]
    monkeypatch.setattr(suites, "span_preimage", lambda nu, subset: suites.closure_points(nu.source, subset))
    witnesses = _failing("negative-controls")
    assert witnesses == [{"seed": s, "error": "reported witness does not violate"} for s in range(20)]


def test_randbelow_refuses_a_bound_below_one():
    rng = suites.SplitMix64(1)
    for bound in (0, -1):
        with pytest.raises(ValueError, match="randbelow needs a positive bound"):
            rng.randbelow(bound)
    assert rng.state == 1  # a refused draw consumes nothing
