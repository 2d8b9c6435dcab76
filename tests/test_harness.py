"""Seeded generators, file formats, CLI behaviour, and suite plumbing."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

from pgtool import (
    SplitMix64,
    broken_map,
    frame_injection_map,
    generate_embedding,
    load_point_map,
    random_semilinear,
    save_point_map,
    space_for,
    veronese_for,
    veronese_kappa_map,
    veronese_point_map,
)
from pgtool.cli import main
from pgtool.errors import ParamOutOfRange, SpaceMismatch, UnknownSuite
from pgtool.generate import compose_with_veronese
from pgtool.projective import scale_frame
from pgtool.suites import BUDGETS, SUITE_ORDER, run_suite


def test_splitmix64_reference_vectors():
    # published outputs for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_derived_draws_are_documented():
    # randbelow is next_u64() % n, part of the reproducibility contract
    rng = SplitMix64(0)
    assert [rng.randbelow(10) for _ in range(3)] == [
        0xE220A8397B1DCDAF % 10,
        0x6E789E6AA1B965F4 % 10,
        0x06C45D188009454F % 10,
    ]
    a, b = list(range(8)), list(range(8))
    SplitMix64(7).shuffle(a)
    SplitMix64(7).shuffle(b)
    assert a == b and sorted(a) == list(range(8))


def test_generate_kinds():
    pm = generate_embedding("veronese", 2, 3)
    assert len(pm.table) == 13 and pm.target.n == 5
    pm2 = generate_embedding("veronese_kappa", 2, 3, seed=0)
    assert pm2.table != pm.table or pm2.table == pm.table  # total either way
    fi = generate_embedding("frame_injection", 2, 2, seed=0)
    assert scale_frame(fi.target, fi.image()) is not None
    bm = generate_embedding("broken", 2, 3, seed=0)
    diffs = [p for p in pm.source.points() if pm.table[p] != bm.table[p]]
    assert len(diffs) == 1


def test_generate_param_errors():
    with pytest.raises(ParamOutOfRange):
        generate_embedding("frame_injection", 2, 3, seed=0)
    with pytest.raises(ParamOutOfRange):
        generate_embedding("veronese_kappa", 2, 3)
    with pytest.raises(ParamOutOfRange):
        generate_embedding("nonsense", 2, 3, seed=0)


def test_generators_deterministic():
    a, ka = veronese_kappa_map(2, 4, 9)
    b, kb = veronese_kappa_map(2, 4, 9)
    assert a.table == b.table and ka.matrix == kb.matrix and ka.alpha == kb.alpha
    assert frame_injection_map(4).table == frame_injection_map(4).table
    assert broken_map(2, 3, 5).table == broken_map(2, 3, 5).table


def _broken_map_by_enumeration(n, q, seed):
    """The replacement drawn from the enumerated target points."""
    base = veronese_point_map(n, q)
    rng = SplitMix64(seed)
    src_pts = base.source.points()
    tgt_pts = base.target.points()
    image = set(base.image())
    victim = src_pts[rng.randbelow(len(src_pts))]
    while True:
        replacement = tgt_pts[rng.randbelow(len(tgt_pts))]
        if replacement not in image:
            break
    table = dict(base.table)
    table[victim] = replacement
    return table


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_broken_map_matches_enumerated_draw(n, q):
    for seed in range(10):
        assert broken_map(n, q, seed).table == _broken_map_by_enumeration(n, q, seed)


@pytest.mark.parametrize("n, q", [(2, 16), (3, 5)])
def test_cli_gen_broken_past_the_point_cap(tmp_path, capsys, n, q):
    # the target has more points than ProjectiveSpace.points() enumerates
    assert space_for(n, q).point_count <= 10**6 < veronese_for(space_for(n, q)).target.point_count
    map_path = tmp_path / "broken.json"
    assert main(["gen", "--kind", "broken", "--n", str(n), "--q", str(q),
                 "--seed", "1", "--out", str(map_path)]) == 0
    nu = load_point_map(map_path)
    base = veronese_point_map(n, q)
    assert sum(nu.table[x] != base.table[x] for x in base.source.points()) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_compose_with_veronese_matches_literal_composition(q):
    ver = veronese_for(space_for(2, q))
    for alpha in ver.source.field.automorphism_exponents():
        kappa = random_semilinear(ver.target, SplitMix64(q + alpha), alpha)
        nu = compose_with_veronese(ver, kappa)
        assert nu.table == {x: kappa.apply(ver.apply(x)) for x in ver.source.points()}
    with pytest.raises(SpaceMismatch):  # a collineation of the source plane
        compose_with_veronese(ver, random_semilinear(ver.source, SplitMix64(0)))


def test_map_file_roundtrip_bit_exact(tmp_path):
    pm = veronese_kappa_map(2, 3, 12)[0]
    path1 = tmp_path / "map1.json"
    path2 = tmp_path / "map2.json"
    save_point_map(pm, path1)
    loaded = load_point_map(path1)
    assert loaded == pm
    save_point_map(loaded, path2)
    assert path1.read_bytes() == path2.read_bytes()


def test_semilinear_file_roundtrip(tmp_path):
    from pgtool import reconstruct_kappa
    from pgtool.embeddings import load_semilinear, save_semilinear

    nu, kappa0 = veronese_kappa_map(2, 4, 2)
    rec = reconstruct_kappa(nu)
    path = tmp_path / "kappa.json"
    save_semilinear(rec.kappa, path)
    loaded = load_semilinear(rec.kappa.space, path)
    assert loaded.matrix == rec.kappa.matrix
    assert loaded.alpha == rec.kappa.alpha


@pytest.mark.parametrize(
    "data",
    [
        {"alpha_exponent": 0},
        {"matrix": 7, "alpha_exponent": 0},
        {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "alpha_exponent": "1"},
    ],
    ids=["missing-matrix", "non-list-matrix", "non-integer-alpha"],
)
def test_semilinear_file_malformed_is_usage_error(tmp_path, data):
    from pgtool.embeddings import load_semilinear
    from pgtool.errors import InvalidSemilinearMap

    path = tmp_path / "kappa.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvalidSemilinearMap):
        load_semilinear(space_for(2, 3), path)


def test_map_file_rejects_duplicate_source(tmp_path):
    pm = veronese_point_map(2, 2)
    data = json.loads(json.dumps(_map_dict(pm)))
    data["pairs"].append(data["pairs"][0])
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(data))
    from pgtool.errors import InvalidPointMap

    with pytest.raises(InvalidPointMap):
        load_point_map(path)


def _map_dict(pm):
    from pgtool.embeddings import point_map_to_dict

    return point_map_to_dict(pm)


# -- CLI ------------------------------------------------------------------


def test_cli_field(capsys):
    assert main(["field", "--p", "3", "--k", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["modulus"] == [1, 0, 1]
    assert out["automorphism_exponents"] == [0, 1]


def test_cli_field_op(capsys):
    assert main(["field", "--p", "2", "--k", "2", "--op", "mul", "--a", "2", "--b", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == 3


def test_cli_enum(capsys):
    assert main(["enum", "--n", "1", "--q", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 4
    assert out["points"] == [[0, 1], [1, 0], [1, 1], [1, 2]]


def test_cli_veronese_point(capsys):
    assert main(["veronese", "--n", "2", "--q", "3", "--point", "[1,2,0]"]) == 0
    assert json.loads(capsys.readouterr().out)["image"] == [1, 2, 0, 1, 0, 0]


def test_cli_closure(capsys):
    rc = main(["closure", "--n", "2", "--q", "3",
               "--points", "[[0,1,0],[0,0,1],[0,1,1]]"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["closure"] == [[0, 0, 1], [0, 1, 0], [0, 1, 1], [0, 1, 2]]
    assert out["certificate"]  # a line lies on quadrics


def test_cli_gen_verify_reconstruct(tmp_path, capsys):
    map_path = tmp_path / "nu.json"
    kappa_path = tmp_path / "kappa.json"
    assert main(["gen", "--kind", "veronese-kappa", "--n", "2", "--q", "3",
                 "--seed", "4", "--out", str(map_path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--map", str(map_path), "--mode", "reduced"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["is_embedding"] is True
    assert main(["regular", "--map", str(map_path)]) == 0
    capsys.readouterr()
    assert main(["reconstruct", "--map", str(map_path), "--out", str(kappa_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certificate"] == "passed"
    stored = json.loads(kappa_path.read_text())
    assert set(stored) == {"matrix", "alpha_exponent"}


def test_cli_verify_rejects_broken(tmp_path, capsys):
    map_path = tmp_path / "broken.json"
    assert main(["gen", "--kind", "broken", "--n", "2", "--q", "3",
                 "--seed", "2", "--out", str(map_path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--map", str(map_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["is_embedding"] is False and report["path"] == "scan"
    assert report["violated_set"]


def test_cli_reconstruct_exit_codes(tmp_path, capsys):
    # broken PG(2,3) seed 0 fails the certificate, seed 2 the frame step
    for seed in (0, 2):
        map_path = tmp_path / f"broken{seed}.json"
        assert main(["gen", "--kind", "broken", "--n", "2", "--q", "3",
                     "--seed", str(seed), "--out", str(map_path)]) == 0
        capsys.readouterr()
        assert main(["reconstruct", "--map", str(map_path)]) == 1
        assert capsys.readouterr().err.startswith("reconstruction failed:")
    line_path = tmp_path / "line.json"
    assert main(["gen", "--kind", "veronese", "--n", "1", "--q", "3",
                 "--out", str(line_path)]) == 0
    capsys.readouterr()
    assert main(["reconstruct", "--map", str(line_path)]) == 2  # DimensionMismatch
    assert capsys.readouterr().err.startswith("error:")


def test_cli_verify_certifies_large_map(tmp_path, capsys):
    map_path = tmp_path / "nu.json"
    assert main(["gen", "--kind", "veronese-kappa", "--n", "2", "--q", "9",
                 "--seed", "1", "--out", str(map_path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--map", str(map_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["path"] == "certificate" and report["is_embedding"] is True


def test_cli_verify_broken_large_map_gets_witness(tmp_path, capsys):
    # the certificate fails, and the scan stops at the witness that the
    # per-subset scan (tests/test_embeddings.py::_literal_reduced_scan)
    # reaches after 4419 subsets; C(91, 6) subsets would exceed REDUCED_CAP
    map_path = tmp_path / "broken.json"
    assert main(["gen", "--kind", "broken", "--n", "2", "--q", "9",
                 "--seed", "1", "--out", str(map_path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--map", str(map_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["path"] == "scan" and report["is_embedding"] is False
    assert report["violated_set"] == [[0, 0, 1], [0, 1, 2], [1, 5, 3]]


def test_cli_verify_scan_over_budget_is_usage_error(tmp_path, capsys, monkeypatch):
    from pgtool import embeddings

    map_path = tmp_path / "broken.json"
    assert main(["gen", "--kind", "broken", "--n", "2", "--q", "9",
                 "--seed", "1", "--out", str(map_path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(embeddings, "REDUCED_CAP", 100)
    assert main(["verify", "--map", str(map_path)]) == 2
    assert "reduced cap" in capsys.readouterr().err


def test_cli_usage_errors(capsys):
    assert main(["verify", "--map", "/nonexistent/x.json"]) == 2
    assert main(["suite", "--id", "not-a-suite"]) == 2
    assert main(["gen", "--kind", "frame-injection", "--n", "2", "--q", "5",
                 "--seed", "0", "--out", "/tmp/x.json"]) == 2
    capsys.readouterr()


def _map_text(**override) -> str:
    """A valid PG(2,3) map file with some fields replaced."""
    return json.dumps({**_map_dict(veronese_point_map(2, 3)), **override})


@pytest.mark.parametrize(
    "text",
    [
        '{"field": {"p": 2, "k": 1, "modulus": [0, 1]}, "n": 2, "pairs": []}',
        '{"field": {"p": 2, "k": 1, "modulus": [0, 1]}, "n": 2, "n_prime": 5,'
        ' "pairs": [[[0, 0, 1]]]}',
        "[]",
        _map_text(n=2.5),
        _map_text(n_prime=5.9),
    ],
    ids=["missing-key", "short-pair", "top-level-list", "float-n", "float-n-prime"],
)
def test_cli_malformed_map_is_usage_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["verify", "--map", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_segre(capsys):
    assert main(["segre", "--q", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"q": 2, "ovals": 28, "conics": 28, "non_conic_ovals": []}


def test_cli_segre_q8_reports_non_conic_ovals(capsys):
    assert main(["segre", "--q", "8"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert (out["ovals"], out["conics"]) == (327040, 32704)
    assert len(out["non_conic_ovals"]) == 441


def test_cli_suite_single(tmp_path, capsys):
    body_path = tmp_path / "report.json"
    assert main(["suite", "--id", "closure-transfer", "--json", str(body_path)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("PASS closure-transfer")
    body = json.loads(body_path.read_text())
    assert body[0]["passed"] is True
    assert "seconds" not in body[0]


def test_suite_registry():
    assert len(SUITE_ORDER) == 13
    assert set(BUDGETS) == set(SUITE_ORDER)
    with pytest.raises(UnknownSuite):
        run_suite("no-such-suite")


def test_suite_body_deterministic():
    a = run_suite("thm-3-7")[0].body()
    b = run_suite("thm-3-7")[0].body()
    assert a == b


def test_suite_threaded_matches_serial():
    wanted = ["closure-transfer", "eq-immsing"]
    serial = [run_suite(s)[0].body() for s in wanted]
    import pgtool.suites as suites_mod
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = [r.body() for r in pool.map(suites_mod._run_one, wanted)]
    assert serial == threaded


def test_traced_names_resolve_in_pgtool():
    # the traced benchmark run wraps these by name; a rename must fail here
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod, fn in tracer.SPANNED_FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"pgtool.{mod}"), fn, None)), (mod, fn)
    for mod, cls, meth in tracer.SPANNED_METHODS + tracer.COUNTED_METHODS:
        klass = getattr(importlib.import_module(f"pgtool.{mod}"), cls)
        assert meth in klass.__dict__, (mod, cls, meth)


def test_every_export_is_used_outside_the_tests():
    # an exported name must appear, off its own def or class line, in
    # another pgtool module or in the benchmark; nu_T is the exception,
    # kept to check that the quotient embedding does not depend on the
    # complement (test_extension_independent_of_complement)
    root = Path(__file__).resolve().parents[1]
    init = root / "src" / "pgtool" / "__init__.py"
    exported = [
        alias.asname or alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    sources = [p for p in (root / "src" / "pgtool").glob("*.py") if p != init]
    sources += (root / "perfbench").glob("*.py")
    lines = [line for path in sources for line in path.read_text().splitlines()]
    unused = []
    for name in exported:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert exported and unused == ["nu_T"]
