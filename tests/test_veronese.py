"""Degree-2 monomial coordinates: forward map, image, span dimensions."""

from __future__ import annotations

from itertools import combinations

import pytest

from pgtool import closure_points, delta, space_for, veronese_for
from pgtool import linalg
from pgtool.errors import DimensionMismatch


@pytest.mark.parametrize("t,value", [(0, 1), (1, 3), (2, 6), (3, 10), (5, 21)])
def test_delta(t, value):
    assert delta(t) == value


def test_delta_negative():
    with pytest.raises(DimensionMismatch):
        delta(-1)


def test_rho_examples():
    v23 = veronese_for(space_for(2, 3))
    assert v23.apply((1, 0, 0)) == (1, 0, 0, 0, 0, 0)
    assert v23.apply((1, 2, 0)) == (1, 2, 0, 1, 0, 0)  # 2*2 = 1 mod 3
    v13 = veronese_for(space_for(1, 3))
    assert v13.apply((1, 2)) == (1, 2, 1)


def test_rho_injective_small():
    for n, q in ((1, 2), (1, 3), (2, 2), (2, 3), (2, 4)):
        ver = veronese_for(space_for(n, q))
        imgs = ver.image()
        assert len(set(imgs)) == len(imgs)


@pytest.mark.parametrize("n,q", [(1, 3), (2, 4), (3, 2)])
def test_image_is_built_once_in_point_order(n, q):
    ver = veronese_for(space_for(n, q))
    image = ver.image()
    assert ver.image() is image
    assert list(image) == [ver.apply(p) for p in ver.source.points()]


def test_rho_well_defined_on_classes():
    ver = veronese_for(space_for(2, 3))
    # same point, different representative
    assert ver.apply((2, 1, 0)) == ver.apply((1, 2, 0))
    # and the image is already the canonical representative
    for n, q in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 3)):
        ver = veronese_for(space_for(n, q))
        for x in ver.source.points():
            assert ver.target.normalize(ver.apply(x)) == ver.apply(x)


@pytest.mark.parametrize(
    "n,q",
    [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)],
)
def test_image_spans_target(n, q):
    ver = veronese_for(space_for(n, q))
    assert linalg.rank(ver.target.field, ver.image()) == delta(n)


@pytest.mark.parametrize("n,q", [(2, 2), (1, 3)])
def test_closure_transfer_identity_exhaustive(n, q):
    # the defining identity: quadric-intersection closure equals the
    # preimage of the linear span of the image
    space = space_for(n, q)
    ver = veronese_for(space)
    pts = space.points()
    imgs = {x: ver.apply(x) for x in pts}
    for size in range(len(pts) + 1):
        for subset in combinations(pts, size):
            clos = closure_points(space, subset)
            pivots, rows = linalg.rref(space.field, [imgs[x] for x in subset])
            pre = {
                x
                for x in pts
                if linalg.in_rowspace(space.field, pivots, rows, imgs[x])
            }
            assert clos == pre


def test_dimension_mismatch():
    ver = veronese_for(space_for(2, 3))
    with pytest.raises(DimensionMismatch):
        ver.apply((1, 0))
