"""Points enter the library through validating entry points only.

Internal code canonicalizes computed vectors without checks, so every
public function that takes a point must reject a malformed one itself.
"""

from __future__ import annotations

import pytest

from pgtool import (
    PlaneArc,
    QuadraticForm,
    SemilinearMap,
    closure_points,
    is_arc,
    lemma_h6_set,
    space_for,
    tangent_meet,
    unisecants_at,
    veronese_for,
    veronese_point_map,
)
from pgtool.errors import SpaceMismatch, UsageError

# malformed points of PG(2, 3): too short, code out of range, not an
# integer, the zero vector, a negative code
MALFORMED = [(1, 0), (3, 0, 0), (1.0, 0, 0), (0, 0, 0), (-1, 0, 0)]


def _entry_points():
    space = space_for(2, 3)
    full = space.full_subspace()
    base = space.span([(1, 0, 0)])
    ident = SemilinearMap(space, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    form = QuadraticForm(space, (1, 0, 0, 0, 0, 0))
    conic = PlaneArc(full, frozenset([(1, 0, 0), (1, 1, 1), (1, 2, 1), (0, 0, 1)]))
    return {
        "normalize": space.normalize,
        "Subspace.contains": full.contains,
        "coords_of": full.coords_of,
        "lines_through": space.lines_through,
        "quotient_point": lambda p: space.quotient_point(base, p),
        "SemilinearMap.apply": ident.apply,
        "VeroneseMap.apply": veronese_for(space).apply,
        "PointMap.apply": veronese_point_map(2, 3).apply,
        "closure_points": lambda p: closure_points(space, [p]),
        "QuadraticForm.evaluate": form.evaluate,
        "PlaneArc": lambda p: PlaneArc(full, frozenset([p])),
        "is_arc": lambda p: is_arc(space, [p], full),
        "tangent_meet": lambda p: tangent_meet(conic, p, (0, 0, 1)),
        "unisecants_at": lambda p: unisecants_at(conic, p),
        "lemma_h6_set": lambda p: lemma_h6_set(ident, p),
    }


ENTRY_POINTS = _entry_points()


@pytest.mark.parametrize("point", MALFORMED, ids=map(repr, MALFORMED))
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_public_entry_points_reject_malformed_points(entry, point):
    with pytest.raises(UsageError):
        ENTRY_POINTS[entry](point)


NONZERO_MALFORMED = [p for p in MALFORMED if any(p)]


@pytest.mark.parametrize("vec", NONZERO_MALFORMED, ids=map(repr, NONZERO_MALFORMED))
def test_span_rejects_malformed_vectors(vec):
    space = space_for(2, 3)
    with pytest.raises(UsageError):
        space.span([(1, 0, 0), vec])


def test_span_codes_are_checked_and_zero_vectors_allowed():
    space = space_for(2, 4)
    with pytest.raises(SpaceMismatch):  # -1 would index the GF(4) tables as code 3
        space.span([(1, -1, 0)])
    assert space.span([(0, 0, 0)]) == space.subspace([])
    assert space.span([(0, 0, 0), (0, 1, 2)]) == space.span([(0, 1, 2)])
