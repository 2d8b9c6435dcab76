"""Points enter the library through validating entry points only.

Internal code canonicalizes computed vectors without checks, so every
public function that takes a point must reject a malformed one itself.
"""

from __future__ import annotations

import json

import pytest

from pgtool import (
    PlaneArc,
    PointMap,
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
from pgtool.cli import main
from pgtool.embeddings import point_map_from_dict, point_map_to_dict
from pgtool.errors import InvalidPointMap, NotTotal, SpaceMismatch, UsageError

# malformed points of PG(2, 3): too short, code out of range, not an
# integer, the zero vector, a negative code, a bool (JSON true)
MALFORMED = [(1, 0), (3, 0, 0), (1.0, 0, 0), (0, 0, 0), (-1, 0, 0), (True, 0, 0)]


def _entry_points():
    space = space_for(2, 3)
    full = space.full_subspace()
    ident = SemilinearMap(space, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    form = QuadraticForm(space, (1, 0, 0, 0, 0, 0))
    conic = PlaneArc(full, frozenset([(1, 0, 0), (1, 1, 1), (1, 2, 1), (0, 0, 1)]))
    return {
        "normalize": space.normalize,
        "Subspace.contains": full.contains,
        "lines_through": space.lines_through,
        "SemilinearMap.apply": ident.apply,
        "VeroneseMap.apply": veronese_for(space).apply,
        "closure_points": lambda p: closure_points(space, [p]),
        "QuadraticForm.evaluate": form.evaluate,
        "PlaneArc": lambda p: PlaneArc(full, frozenset([p])),
        "is_arc": lambda p: is_arc(PlaneArc(full, frozenset([p]))),
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


def test_cli_rejects_bool_coordinates(tmp_path, capsys):
    # JSON true reads as a Python bool, an int subclass, not a coordinate code
    assert main(["closure", "--n", "2", "--q", "3", "--points", "[[true,0,0],[0,1,0]]"]) == 2
    data = point_map_to_dict(veronese_point_map(2, 3))
    pair = next(pair for pair in data["pairs"] if pair[0] == [1, 0, 0])
    pair[0] = [True, False, False]
    path = tmp_path / "nu.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--map", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# -- loading a point table ----------------------------------------------------


def _literal_load(source, target, table):
    """The per-entry load: every key and value through `normalize`, in
    table order, then totality and injectivity in point order."""
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
    seen = {}
    for p in pts:
        if norm[p] in seen:
            raise InvalidPointMap(
                f"not injective: {seen[norm[p]]} and {p} both map to {norm[p]}"
            )
        seen[norm[p]] = p
    return {p: norm[p] for p in pts}


def _outcome(load, *args):
    try:
        table = load(*args)
    except UsageError as exc:
        return type(exc), str(exc)
    return dict(table.table if isinstance(table, PointMap) else table)


def _doubled(vec):
    return tuple(2 * x % 3 for x in vec)


def _load_cases():
    """(name, source, target, table): malformed and valid tables of PG(2, 3)."""
    space = space_for(2, 3)
    ver = veronese_point_map(2, 3)
    ident = {p: p for p in space.points()}
    first, second = space.points()[:2]
    cases = []
    for vec in MALFORMED:
        # PG(2, 3) -> PG(2, 3), so every malformed vector fits as a key or a value
        keyed = {vec if k == first else k: y for k, y in ident.items()}
        cases.append((f"key {vec}", space, space, keyed))
        cases.append((f"value {vec}", space, space, {**ident, second: vec}))
        wide = vec + (0, 0, 0) if len(vec) == 3 else vec
        cases.append((f"Veronese value {vec}", space, ver.target, {**ver.table, second: wide}))
    cases += [
        ("two representatives", space, space, {**ident, (2, 0, 0): (1, 1, 0)}),
        ("missing point", space, space, {k: y for k, y in ident.items() if k != second}),
        ("key of another space", space, space, {**ident, (1, 0, 0, 0): (1, 1, 0)}),
        ("not injective", space, ver.target, {**ver.table, second: ver.table[first]}),
        ("non-canonical keys", space, space, {_doubled(k): y for k, y in ident.items()}),
        ("non-canonical values", space, ver.target, {k: _doubled(y) for k, y in ver.table.items()}),
        ("list values", space, space, {k: list(y) for k, y in ident.items()}),
        ("valid", space, ver.target, dict(ver.table)),
    ]
    return cases


LOAD_CASES = _load_cases()


@pytest.mark.parametrize("case", LOAD_CASES, ids=[c[0] for c in LOAD_CASES])
def test_point_map_load_matches_the_per_entry_load(case, tmp_path, capsys):
    # the whole-table checks accept exactly the tables the per-entry load
    # accepts, with the same table, and every refusal keeps its type and
    # message, in the library and in the CLI
    _, source, target, table = case
    want = _outcome(_literal_load, source, target, table)
    assert _outcome(PointMap, source, target, table) == want
    data = {
        "field": source.field.descriptor(), "n": source.n, "n_prime": target.n,
        "pairs": [[list(k), list(y)] for k, y in table.items()],
    }
    assert _outcome(point_map_from_dict, data) == want
    path = tmp_path / "nu.json"
    path.write_text(json.dumps(data))
    code = main(["regular", "--map", str(path)])
    out = capsys.readouterr()
    if isinstance(want, dict):
        assert code in (0, 1)
    else:
        assert code == 2 and out.err == f"error: {want[1]}\n"


def test_map_file_pair_errors_match_the_per_pair_read(tmp_path, capsys):
    data = point_map_to_dict(veronese_point_map(2, 3))
    good = data["pairs"]
    broken = {
        "three-element pair": good[:3] + [good[3] + [[0, 0, 1]]] + good[4:],
        "duplicate source point": good + [good[2]],
        "duplicate before a bad pair": good[:3] + [good[1], 7] + good[3:],
        "unhashable coordinate": good[:1] + [[[[0], 0, 1], good[1][1]]] + good[2:],
        "pair of ints": good[:5] + [3] + good[5:],
    }
    want = {
        "three-element pair":
            "malformed map data: ValueError('too many values to unpack (expected 2)')",
        "duplicate source point": "duplicate source point (0, 1, 1)",
        "duplicate before a bad pair": "duplicate source point (0, 1, 0)",
        "unhashable coordinate": "malformed map data: TypeError(\"unhashable type: 'list'\")",
        "pair of ints": "malformed map data: TypeError('cannot unpack non-iterable int object')",
    }
    for name, pairs in broken.items():
        bad = {**data, "pairs": pairs}
        with pytest.raises(InvalidPointMap) as exc:
            point_map_from_dict(bad)
        assert str(exc.value) == want[name], name
        path = tmp_path / "nu.json"
        path.write_text(json.dumps(bad))
        assert main(["regular", "--map", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {want[name]}\n"
