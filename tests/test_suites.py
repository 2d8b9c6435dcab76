"""The rank suites against their literal per-subset loops, and the
eliminations they make."""

from __future__ import annotations

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
