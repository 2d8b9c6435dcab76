"""Points enter the library through validating entry points only.

Internal code canonicalizes computed vectors without checks, so every
public function that takes a point must reject a malformed one itself.
The last section pins the type and message of each refusal, and each
output, that no other test reaches.
"""

from __future__ import annotations

import json

import pytest

import pgtool.cli as cli_mod
from pgtool import (
    PlaneArc,
    PointMap,
    QuadraticForm,
    SemilinearMap,
    build_iota,
    build_Q_frame,
    closure_points,
    create_field,
    extend_beta,
    generate_embedding,
    is_arc,
    lemma_h6_set,
    quadratic_closure,
    reconstruct_kappa,
    save_point_map,
    space_for,
    tangent_meet,
    unisecants_at,
    veronese_for,
    veronese_point_map,
)
from pgtool import suites
from pgtool.cli import main
from pgtool.embeddings import _fit_semilinear, point_map_from_dict, point_map_to_dict
from pgtool.errors import (
    DimensionMismatch,
    FieldMismatch,
    InvalidPointMap,
    LinesNotConcurrent,
    NonPrimeP,
    NotACollineation,
    NotTotal,
    ParamOutOfRange,
    PointNotOnArc,
    SpaceMismatch,
    UsageError,
)

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


# -- refusals and outputs no other test reaches ---------------------------------


@pytest.mark.parametrize(
    "coeffs",
    [(1, 5, 0, 0, 0, 0), (-1, 0, 0, 0, 0, 0), (True, 0, 0, 0, 0, 0), (1.0, 0, 0, 0, 0, 0),
     (0, 0, 0, 0, 0, 7)],
    ids=repr,
)
def test_quadratic_form_refuses_entries_that_are_no_codes(coeffs):
    # unchecked, (1, 5, ...) raised IndexError in evaluate and (-1, ...)
    # was stored as (1, ...)
    with pytest.raises(SpaceMismatch, match=r"^form coefficients must be integer codes in \[0, 3\)$"):
        QuadraticForm(space_for(2, 3), coeffs)


def _raises(exc_type, message, fn, *args):
    with pytest.raises(exc_type) as exc:
        fn(*args)
    assert type(exc.value) is exc_type and str(exc.value) == message


def test_projective_refusals_and_repr():
    space = space_for(2, 3)
    p = (1, 0, 0)
    _raises(DimensionMismatch, "pencil needs a subspace of dimension >= 1",
            space.lines_through, p, space.subspace([p]))
    _raises(DimensionMismatch, "matrix must be 3x3", SemilinearMap, space, ((1, 0), (0, 1)))
    assert repr(space.subspace([p])) == "Subspace(dim=0, rows=((1, 0, 0),))"
    _raises(SpaceMismatch, "point of wrong coordinate length", quadratic_closure, space, [(1, 0)])


def test_arc_refusals():
    space = space_for(2, 3)
    conic = PlaneArc(space.full_subspace(), frozenset([(1, 0, 0), (1, 1, 1), (1, 2, 1), (0, 0, 1)]))
    _raises(PointNotOnArc, "tangent_meet needs two distinct arc points",
            tangent_meet, conic, (1, 0, 0), (2, 0, 0))
    _raises(PointNotOnArc, "(0, 1, 0) is not on the arc", tangent_meet, conic, (1, 0, 0), (0, 1, 0))
    solid = space_for(3, 3)
    ident = SemilinearMap(solid, tuple(tuple(int(i == j) for j in range(4)) for i in range(4)))
    _raises(DimensionMismatch, "this construction lives in a plane", lemma_h6_set, ident, (1, 0, 0, 0))


def test_field_refusals_outputs_and_repr(capsys):
    _raises(NonPrimeP, "p = 1 is not prime", create_field, 1, 1)
    assert main(["field", "--p", "1"]) == 2
    assert capsys.readouterr().err == "error: p = 1 is not prime\n"
    assert main(["enum", "--n", "2", "--q", "1"]) == 2
    assert capsys.readouterr().err == "error: 1 is not a prime power\n"
    assert create_field(3, 1).pow(2, -1) == 2
    assert main(["field", "--p", "3", "--op", "pow", "--a", "2", "--b", "-1"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == 2
    assert repr(create_field(3, 2)) == "GF(9)"


def test_generate_refusal_messages():
    for args, message in [
        (("veronese", 2, 3, 0), "veronese takes no seed"),
        (("veronese_kappa", 2, 3), "veronese_kappa needs a seed"),
        (("frame_injection", 2, 2), "frame_injection needs a seed"),
        (("frame_injection", 2, 3), "frame_injection is defined for n=2, q=2"),
        (("broken", 2, 3), "broken needs a seed"),
        (("nonsense", 2, 3), "unknown kind 'nonsense'"),
        (("nonsense", 2, 3, 0), "unknown kind 'nonsense'"),
    ]:
        _raises(ParamOutOfRange, message, generate_embedding, *args)


def test_map_saving_and_loading_refusals(tmp_path, capsys):
    plane = space_for(2, 2)
    wider = PointMap(plane, space_for(2, 4), {p: p for p in plane.points()})
    _raises(FieldMismatch, "map files carry a single field", point_map_to_dict, wider)
    path = tmp_path / "nu.json"
    path.write_text("not json")
    assert main(["verify", "--map", str(path)]) == 2
    assert capsys.readouterr().err == "error: Expecting value: line 1 column 1 (char 0)\n"


def test_embedding_refusals(tmp_path, capsys):
    nu = veronese_point_map(3, 2)
    _raises(DimensionMismatch, "expected a hyperplane of the source",
            build_iota, nu, nu.source.lines()[0], nu.target.full_subspace())
    line_map = veronese_point_map(1, 3)
    _raises(DimensionMismatch, "extension needs source dimension >= 2",
            extend_beta, line_map, line_map.source.subspace([(1, 0)]))
    _raises(DimensionMismatch, "frame construction needs source dimension >= 2",
            build_Q_frame, line_map)
    plane, wide = space_for(2, 2), space_for(6, 2)
    units = [tuple(int(i == j) for j in range(7)) for i in range(7)]
    injective = PointMap(plane, wide, dict(zip(plane.points(), units)))
    message = "target dimension 6 differs from expected 5"
    _raises(DimensionMismatch, message, reconstruct_kappa, injective)
    path = tmp_path / "nu.json"
    save_point_map(injective, path)
    assert main(["reconstruct", "--map", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_fit_semilinear_probe_and_pointwise_refusals():
    # direct tables: the identity on PG(2,4) with one entry moved
    space = space_for(2, 4)
    ident = {x: x for x in space.points()}
    _raises(NotACollineation, "probe coordinates match no field automorphism",
            _fit_semilinear, space, {**ident, (1, 2, 0): (1, 3, 0)})
    _raises(NotACollineation, "table is not semilinear at (0, 1, 1)",
            _fit_semilinear, space, {**ident, (0, 1, 1): (0, 1, 2)})


def test_cli_veronese_without_a_point(capsys):
    assert main(["veronese", "--n", "1", "--q", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "n": 1, "q": 2, "n_prime": 2,
        "pairs": [[[0, 1], [0, 0, 1]], [[1, 0], [1, 0, 0]], [[1, 1], [1, 1, 1]]],
    }


def test_cli_failing_suite_prints_its_first_witnesses(capsys, monkeypatch):
    anchor, _, budget = suites._SUITES["thm-3-7"]

    def failing():
        return {}, ["w1", "w2", "w3", "w4"]

    monkeypatch.setitem(suites._SUITES, "thm-3-7", (anchor, failing, budget))
    assert main(["suite", "--id", "thm-3-7"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"FAIL thm-3-7 [{anchor}] (")
    assert lines[1:] == ["  witness: w1", "  witness: w2", "  witness: w3"]


def test_cli_violation_inside_a_command_exits_1(tmp_path, capsys, monkeypatch):
    path = tmp_path / "nu.json"
    save_point_map(veronese_point_map(2, 2), path)

    def violated(nu):
        raise LinesNotConcurrent("lines share no point")

    monkeypatch.setattr(cli_mod, "is_regular", violated)
    assert main(["regular", "--map", str(path)]) == 1
    assert capsys.readouterr().err == "violation: lines share no point\n"
