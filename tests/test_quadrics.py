"""Forms, zero sets, the closure operator, and the chain-length oracle."""

from __future__ import annotations

from itertools import combinations

import pytest

from pgtool import (
    QuadraticForm,
    closure_points,
    closure_points_by_forms,
    longest_closed_chain,
    quadratic_closure,
    space_for,
    veronese_for,
)
from pgtool import linalg
from pgtool.errors import DimensionMismatch, OracleSizeCap
from pgtool.projective import _coefficient_reps


def _zero_set(form):
    """Points of the form's space where it evaluates to 0."""
    return frozenset(p for p in form.space.points() if not form.evaluate(p))


def _closure_oracle(space, subset):
    """Literal definition: intersect the zero sets of every form whose
    quadric contains the subset; the whole space if none does."""
    pts = set(space.points())
    member = {space.normalize(p) for p in subset}
    out = pts
    hit = False
    from pgtool.veronese import delta

    for coeffs in _coefficient_reps(space.field, delta(space.n)):
        form = QuadraticForm(space, coeffs)
        zeros = _zero_set(form)
        if member <= zeros:
            hit = True
            out = out & zeros
    return frozenset(out) if hit else frozenset(pts)


def test_zero_set_repeated_hyperplane():
    space = space_for(2, 3)
    form = QuadraticForm(space, (1, 0, 0, 0, 0, 0))  # first coordinate squared
    assert _zero_set(form) == frozenset(
        p for p in space.points() if p[0] == 0
    )
    assert len(_zero_set(form)) == 4


def test_zero_set_conic():
    space = space_for(2, 3)
    # middle-coordinate square minus product of outer coordinates
    form = QuadraticForm(space, (0, 0, 2, 1, 0, 0))
    expected = {(1, 0, 0), (1, 1, 1), (1, 2, 1), (0, 0, 1)}
    assert _zero_set(form) == expected


def test_zero_set_empty_binary_form():
    space = space_for(1, 2)
    form = QuadraticForm(space, (1, 1, 1))
    assert _zero_set(form) == frozenset()


def test_evaluate_projective_invariance():
    space = space_for(2, 3)
    form = QuadraticForm(space, (0, 0, 2, 1, 0, 0))
    # zero-ness agrees on any representative of the same point
    assert form.evaluate((2, 0, 0)) == form.evaluate((1, 0, 0)) == 0
    assert (form.evaluate((1, 1, 0)) == 0) == (form.evaluate((2, 2, 0)) == 0)


def test_form_canonical_scaling():
    space = space_for(2, 3)
    assert QuadraticForm(space, (0, 2, 0, 1, 0, 0)).coeffs == (0, 1, 0, 2, 0, 0)
    with pytest.raises(DimensionMismatch):
        QuadraticForm(space, (0, 0, 0, 0, 0, 0))
    with pytest.raises(DimensionMismatch):
        QuadraticForm(space, (1, 0, 0))


def test_closure_examples():
    space = space_for(2, 3)
    assert closure_points(space, [(1, 1, 2)]) == frozenset({(1, 1, 2)})
    two = [(1, 0, 0), (0, 1, 0)]
    assert closure_points(space, two) == frozenset(map(tuple, two))
    three = [(0, 1, 0), (0, 0, 1), (0, 1, 1)]
    line = frozenset({(0, 1, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2)})
    assert closure_points(space, three) == line
    assert _closure_oracle(space, three) == line
    assert closure_points(space, []) == frozenset()


def test_empty_closure_against_disjoint_quadrics():
    # two forms with disjoint zero sets witness clos(empty) = empty
    space = space_for(2, 3)
    f1 = QuadraticForm(space, (1, 0, 0, 0, 0, 0))  # the line x0 = 0
    f2 = QuadraticForm(space, (0, 0, 0, 1, 0, 1))  # x1^2 + x2^2: only (1,0,0)
    zs1, zs2 = _zero_set(f1), _zero_set(f2)
    assert zs2 == frozenset({(1, 0, 0)})
    assert zs1 & zs2 == frozenset()
    assert closure_points(space, []) == frozenset()
    assert closure_points_by_forms(space, []) == frozenset()


def test_certificate_vanishes_on_closure():
    space = space_for(2, 3)
    closed = quadratic_closure(space, [(0, 1, 0), (0, 0, 1), (0, 1, 1)])
    assert closed.certificate  # some quadric contains a line
    for form in closed.certificate:
        for p in closed.points:
            assert form.evaluate(p) == 0


def test_whole_space_closure_has_empty_certificate():
    space = space_for(2, 2)
    closed = quadratic_closure(space, space.points())
    assert closed.points == frozenset(space.points())
    assert closed.certificate == ()


@pytest.mark.parametrize("q", [2, 3, 4])
def test_small_sets_closed_on_a_line(q):
    space = space_for(1, q)
    pts = space.points()
    for size in (0, 1, 2):
        for subset in combinations(pts, size):
            assert closure_points(space, subset) == frozenset(subset)
    assert closure_points(space, pts) == frozenset(pts)


def test_union_of_two_subspaces_closed():
    s23 = space_for(2, 3)
    l1 = set(s23.span([(1, 0, 0), (0, 1, 0)]).points())
    l2 = set(s23.span([(1, 0, 0), (0, 0, 1)]).points())
    assert closure_points(s23, l1 | l2) == l1 | l2
    assert closure_points(s23, l1 | {(0, 0, 1)}) == l1 | {(0, 0, 1)}
    s32 = space_for(3, 2)
    p1 = set(s32.span([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]).points())
    p2 = set(s32.span([(0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0)]).points())
    assert closure_points(s32, p1 | p2) == p1 | p2


def test_three_collinear_not_closed():
    space = space_for(2, 3)
    three = frozenset([(0, 1, 0), (0, 0, 1), (0, 1, 1)])
    assert closure_points(space, three) != three


def test_closure_operator_properties_fano():
    space = space_for(2, 2)
    pts = space.points()
    closures = {}
    for size in range(len(pts) + 1):
        for subset in combinations(pts, size):
            member = frozenset(subset)
            clos = closure_points(space, member)
            closures[member] = clos
            assert member <= clos  # extensive
            assert closure_points(space, clos) == clos  # idempotent
            assert clos <= set(space.span(member).points()) if member else clos == frozenset()
            assert closure_points_by_forms(space, member) == clos  # dual route
    for a, ca in closures.items():
        for b, cb in closures.items():
            if a <= b:
                assert ca <= cb  # monotone


def test_closure_operator_properties_pg23_small_sets():
    space = space_for(2, 3)
    pts = space.points()
    for size in range(5):
        for subset in combinations(pts, size):
            member = frozenset(subset)
            clos = closure_points(space, member)
            assert member <= clos
            assert closure_points(space, clos) == clos
            if member:
                assert clos <= set(space.span(member).points())
            assert closure_points_by_forms(space, member) == clos
            for sub2 in combinations(sorted(member), max(0, size - 1)):
                assert closure_points(space, sub2) <= clos


def test_chain_examples():
    s23 = space_for(2, 3)
    assert longest_closed_chain(s23, [(1, 0, 0)]) == 0
    assert longest_closed_chain(s23, []) == -1
    s22 = space_for(2, 2)
    line = s22.span([(1, 0, 0), (0, 1, 0)]).points()
    assert longest_closed_chain(s22, line) == 2
    assert longest_closed_chain(s22, s22.points()) == 5


def test_chain_matches_rank_on_fano():
    space = space_for(2, 2)
    ver = veronese_for(space)
    pts = space.points()
    for size in range(len(pts) + 1):
        for subset in combinations(pts, size):
            expected = linalg.rank(space.field, [ver.apply(x) for x in subset]) - 1
            assert longest_closed_chain(space, subset) == expected


def test_chain_oracle_cap():
    space = space_for(2, 4)  # 21 points, closure of everything is everything
    with pytest.raises(OracleSizeCap):
        longest_closed_chain(space, space.points())
