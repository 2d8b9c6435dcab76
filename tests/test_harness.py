"""Seeded generators, file formats, CLI behaviour, and suite plumbing."""

from __future__ import annotations

import json

import pytest

from pgtool import (
    SplitMix64,
    broken_map,
    frame_injection_map,
    generate_embedding,
    is_frame,
    load_point_map,
    save_point_map,
    veronese_kappa_map,
    veronese_point_map,
)
from pgtool.cli import main
from pgtool.errors import ParamOutOfRange, UnknownSuite
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
    assert is_frame(fi.target, fi.image())
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
    assert report["is_embedding"] is False
    assert report["violated_set"]


def test_cli_usage_errors(capsys):
    assert main(["verify", "--map", "/nonexistent/x.json"]) == 2
    assert main(["suite", "--id", "not-a-suite"]) == 2
    assert main(["gen", "--kind", "frame-injection", "--n", "2", "--q", "5",
                 "--seed", "0", "--out", "/tmp/x.json"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "text",
    [
        '{"field": {"p": 2, "k": 1, "modulus": [0, 1]}, "n": 2, "pairs": []}',
        '{"field": {"p": 2, "k": 1, "modulus": [0, 1]}, "n": 2, "n_prime": 5,'
        ' "pairs": [[[0, 0, 1]]]}',
        "[]",
    ],
    ids=["missing-key", "short-pair", "top-level-list"],
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
