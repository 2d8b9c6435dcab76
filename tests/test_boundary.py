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
    space_for,
    veronese_for,
    veronese_point_map,
)
from pgtool.errors import UsageError

# malformed points of PG(2, 3): too short, code out of range, not an
# integer, the zero vector, a negative code
MALFORMED = [(1, 0), (3, 0, 0), (1.0, 0, 0), (0, 0, 0), (-1, 0, 0)]


def _entry_points():
    space = space_for(2, 3)
    full = space.full_subspace()
    base = space.span([(1, 0, 0)])
    ident = SemilinearMap(space, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    form = QuadraticForm(space, (1, 0, 0, 0, 0, 0))
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
    }


ENTRY_POINTS = _entry_points()


@pytest.mark.parametrize("point", MALFORMED, ids=map(repr, MALFORMED))
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_public_entry_points_reject_malformed_points(entry, point):
    with pytest.raises(UsageError):
        ENTRY_POINTS[entry](point)
