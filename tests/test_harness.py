"""Seeded generators, file formats, CLI behaviour, and suite plumbing."""

from __future__ import annotations

import ast
import hashlib
import importlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

from pgtool import (
    PointMap,
    SemilinearMap,
    SplitMix64,
    broken_map,
    frame_injection_map,
    generate_embedding,
    load_point_map,
    random_semilinear,
    reconstruct_kappa,
    save_point_map,
    space_for,
    veronese_for,
    veronese_kappa_map,
    veronese_point_map,
)
from pgtool import linalg
from pgtool.cli import main
from pgtool.errors import ParamOutOfRange, SingularMatrix, SpaceMismatch, UnknownSuite
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


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_splitmix64_refuses_seed_outside_range(seed):
    # a 64-bit state would read -1 as 2**64 - 1 and 2**64 as 0, in every
    # seeded generator
    with pytest.raises(ParamOutOfRange):
        SplitMix64(seed)
    with pytest.raises(ParamOutOfRange):
        broken_map(2, 3, seed)
    with pytest.raises(ParamOutOfRange):
        veronese_kappa_map(2, 3, seed)


def test_generate_kinds():
    pm = generate_embedding("veronese", 2, 3)
    assert len(pm.table) == 13 and pm.target.n == 5
    pm2 = generate_embedding("veronese_kappa", 2, 3, seed=0)
    assert pm2.table != pm.table
    assert generate_embedding("veronese_kappa", 2, 3, seed=0) == pm2
    kappa, rec = veronese_kappa_map(2, 3, 0)[1], reconstruct_kappa(pm2)
    assert rec.alpha == kappa.alpha
    # the generating matrix up to a scalar: the flattened matrices have rank 1
    assert linalg.rank(kappa.space.field, [sum(kappa.matrix, ()), sum(rec.kappa.matrix, ())]) == 1
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


@pytest.mark.parametrize(
    "kind, seed",
    [("broken", -1), ("broken", 1 << 64), ("veronese-kappa", 1 << 64), ("veronese", 7)],
)
def test_cli_gen_refuses_seed_outside_range_or_unused(tmp_path, capsys, kind, seed):
    # SplitMix64 keeps 64 bits of a seed, so -1 would repeat 2**64 - 1
    # and 2**64 would repeat 0; veronese draws nothing
    out = tmp_path / "nu.json"
    assert main(["gen", "--kind", kind, "--n", "2", "--q", "3",
                 "--seed", str(seed), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_cli_gen_takes_seeds_at_both_ends_of_the_range(tmp_path):
    for seed in (0, (1 << 64) - 1):
        assert main(["gen", "--kind", "broken", "--n", "2", "--q", "3",
                     "--seed", str(seed), "--out", str(tmp_path / f"{seed}.json")]) == 0
    assert load_point_map(tmp_path / "0.json") == broken_map(2, 3, 0)


def test_generators_deterministic():
    a, ka = veronese_kappa_map(2, 4, 9)
    b, kb = veronese_kappa_map(2, 4, 9)
    assert a.table == b.table and ka.matrix == kb.matrix and ka.alpha == kb.alpha
    assert frame_injection_map(4).table == frame_injection_map(4).table
    assert broken_map(2, 3, 5).table == broken_map(2, 3, 5).table


# sha256 of the files `pgtool gen` writes on GEN_GRID, concatenated in
# grid order; recorded while every generated table still went through
# the table checks, so building them without the checks changes no byte
GEN_DIGEST = "ea7131c0a2f410234ad50eeae458cd3ad5b7151a8488de94df300ae2c8d84410"
GEN_GRID = (
    [("veronese", n, q, None) for n, q in [(1, 3), (2, 2), (2, 4), (3, 3)]]
    + [("veronese-kappa", n, q, s) for n, q in [(1, 4), (2, 2), (2, 3), (2, 9), (3, 2)]
       for s in (0, 1, (1 << 64) - 1)]
    + [("frame-injection", 2, 2, s) for s in (0, 1, (1 << 64) - 1)]
    + [("broken", n, q, s) for n, q in [(2, 2), (2, 3), (2, 4), (3, 2)] for s in (0, 1)]
)


def test_cli_gen_bytes_match_pinned_digest(tmp_path, capsys):
    # the reproducibility contract of pgtool.prng, end to end: the same
    # seed writes the same map file, for every kind
    digest = hashlib.sha256()
    out = tmp_path / "nu.json"
    for kind, n, q, seed in GEN_GRID:
        argv = ["gen", "--kind", kind, "--n", str(n), "--q", str(q), "--out", str(out)]
        assert main(argv + ([] if seed is None else ["--seed", str(seed)])) == 0
        digest.update(out.read_bytes())
    capsys.readouterr()
    assert digest.hexdigest() == GEN_DIGEST


def _literal_random_semilinear(space, rng, alpha=None):
    """The draw-and-retry loop through the checked constructor: (the map,
    the number of draws of a matrix)."""
    if alpha is None:
        alpha = rng.randbelow(space.field.k)
    q, size = space.field.q, space.n + 1
    attempts = 0
    while True:
        attempts += 1
        matrix = tuple(tuple(rng.randbelow(q) for _ in range(size)) for _ in range(size))
        try:
            return SemilinearMap(space, matrix, alpha), attempts
        except SingularMatrix:
            pass


def test_random_semilinear_draws_like_the_literal_loop(monkeypatch):
    # the same map, alpha and RNG state, with one elimination per drawn
    # matrix; singular draws are frequent over GF(2)
    echelons = []
    echelon = linalg._echelon

    def counted(*args):
        echelons.append(args)
        return echelon(*args)

    monkeypatch.setattr(linalg, "_echelon", counted)
    for q in (2, 3, 4, 5, 8, 9):
        for n in (1, 2, 5, 9) if q <= 3 else (1, 2, 5):
            space = space_for(n, q)
            k = space.field.k
            for alpha in (None, 0, k - 1, k, -1):
                for seed in range(10):
                    want_rng, got_rng = SplitMix64(seed), SplitMix64(seed)
                    want, attempts = _literal_random_semilinear(space, want_rng, alpha)
                    echelons.clear()
                    got = random_semilinear(space, got_rng, alpha)
                    assert (got, got.alpha, got_rng.state) == (want, want.alpha, want_rng.state)
                    assert len(echelons) == attempts
    space = space_for(2, 4)
    for alpha, want in ((-1, 1), (5, 1)):
        assert random_semilinear(space, SplitMix64(0), alpha).alpha == want
    for alpha in (1.0, True, "1"):
        with pytest.raises(SpaceMismatch) as exc:
            random_semilinear(space, SplitMix64(0), alpha)
        with pytest.raises(SpaceMismatch) as literal:
            _literal_random_semilinear(space, SplitMix64(0), alpha)
        assert str(exc.value) == str(literal.value) == f"alpha must be an integer, got {alpha!r}"


def _generated_tables(n, q):
    yield veronese_point_map(n, q)
    for seed in range(10):
        yield veronese_kappa_map(n, q, seed)[0]
        yield broken_map(n, q, seed)
        if (n, q) == (2, 2):
            yield frame_injection_map(seed)


@pytest.mark.parametrize(
    "n, q",
    [(1, q) for q in (2, 3, 4, 5)] + [(2, q) for q in (2, 3, 4, 5, 7, 8, 9)] + [(3, 2), (3, 3)],
)
def test_generated_tables_equal_validated_ones(n, q):
    # the generators build their tables without the table checks
    # (PointMap.from_images); the checked constructor must return each
    # table unchanged, in points() order with canonical tuple values
    for nu in _generated_tables(n, q):
        assert PointMap(nu.source, nu.target, dict(nu.table)) == nu
        assert list(nu.table) == nu.source.points()
        field = nu.target.field
        for y in nu.table.values():
            assert type(y) is tuple and {*map(type, y)} == {int}
            assert linalg.canonical(field, y) == y


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
        {"matrix": [[1, 2, 0], [2, 1, 0], [0, 0, 1]], "alpha_exponent": 0},
    ],
    ids=["missing-matrix", "non-list-matrix", "non-integer-alpha", "singular-matrix"],
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


@pytest.mark.parametrize(
    "argv",
    [
        ["closure", "--n", "2", "--q", "3", "--points", "[[" + "9" * 5001 + ",0,1]]"],
        ["veronese", "--n", "2", "--q", "3", "--point", "[" + "9" * 5001 + ",0,1]"],
    ],
    ids=["closure", "veronese"],
)
def test_cli_point_argument_over_the_digit_limit_exits_2(capsys, argv):
    # each of these once ended in a ValueError traceback and exit 1
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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
    # broken PG(2,3) seed 0 fails the certificate, seed 2 the fit;
    # stdout names the refusal as reconstruct_kappa raises it
    for seed, refusal, point in ((0, "VerificationFailed", [1, 1, 2]),
                                 (2, "FrameCheckFailed", None)):
        map_path = tmp_path / f"broken{seed}.json"
        assert main(["gen", "--kind", "broken", "--n", "2", "--q", "3",
                     "--seed", str(seed), "--out", str(map_path)]) == 0
        capsys.readouterr()
        assert main(["reconstruct", "--map", str(map_path)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("reconstruction failed:")
        body = json.loads(out)
        assert body == {"refusal": refusal, "message": err.split(": ", 1)[1].rstrip("\n"),
                        "point": point}
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


def test_cli_oversized_spaces_exit_2_without_a_point_count(tmp_path, capsys):
    # a few bytes of input name spaces far past the enumeration cap: each
    # is refused before its point count is built, and no count is printed
    path = tmp_path / "map.json"
    for argv, spaces in [
        (["gen", "--kind", "veronese", "--n", "40", "--q", "3", "--out", str(path)],
         [space_for(40, 3), veronese_for(space_for(40, 3)).target]),
        (["enum", "--n", "40", "--q", "3"], [space_for(40, 3)]),
    ]:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert not any(str(space.point_count) in err for space in spaces)
    assert "pairs" not in veronese_for(space_for(40, 3)).__dict__  # C(42, 2) monomials
    path.write_text(_map_text(n_prime=1000))
    assert main(["verify", "--map", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(space_for(1000, 3).point_count) not in err


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


@pytest.mark.parametrize(
    "descriptor",
    [
        {"p": 3.9, "k": 1, "modulus": [0, 1]},
        {"p": "3", "k": 1, "modulus": [0, 1]},
        {"p": 3, "k": True, "modulus": [0, 1]},
        {"p": 3, "k": 1, "modulus": [0.0, 1.0]},
    ],
    ids=["float-p", "string-p", "bool-k", "float-modulus"],
)
def test_cli_mistyped_field_descriptor_is_usage_error(tmp_path, capsys, descriptor):
    # each of these once read as GF(3) through int()
    path = tmp_path / "bad.json"
    path.write_text(_map_text(field=descriptor))
    assert main(["verify", "--map", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


_UNDECODABLE = {
    "int-over-digit-limit": _map_text(n="N").replace('"N"', "9" * 5001).encode(),
    "invalid-utf8": _map_text(n="N").replace('"N"', '"\udcff"').encode("utf-8", "surrogateescape"),
}


@pytest.mark.parametrize("command", ["verify", "regular", "reconstruct"])
@pytest.mark.parametrize("raw", list(_UNDECODABLE.values()), ids=list(_UNDECODABLE))
def test_cli_undecodable_map_is_usage_error(tmp_path, capsys, command, raw):
    # each of these once ended in a ValueError traceback and exit 1
    from pgtool.errors import InvalidPointMap

    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    with pytest.raises(InvalidPointMap):
        load_point_map(path)
    assert main([command, "--map", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_map_file_with_an_oversized_field_exits_2(tmp_path, capsys):
    # is_prime(p) once ran to sqrt(p) before the size cap was checked
    path = tmp_path / "map.json"
    path.write_text(_map_text(field={"p": 100000000000000003, "k": 1, "modulus": [0, 1]}))
    assert main(["verify", "--map", str(path)]) == 2
    assert "exceeds cap 256" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw",
    [b'{"matrix": ' + b"9" * 5001 + b', "alpha_exponent": 0}', b'{"matrix": "\xff"}'],
    ids=["int-over-digit-limit", "invalid-utf8"],
)
def test_undecodable_semilinear_file_is_usage_error(tmp_path, raw):
    from pgtool.embeddings import load_semilinear
    from pgtool.errors import InvalidSemilinearMap

    path = tmp_path / "kappa.json"
    path.write_bytes(raw)
    with pytest.raises(InvalidSemilinearMap):
        load_semilinear(space_for(2, 3), path)


@pytest.mark.parametrize(
    "argv",
    [
        ["closure", "--n", "2", "--q", "3", "--points", "5"],
        ["closure", "--n", "2", "--q", "3", "--points", "[5]"],
        ["closure", "--n", "2", "--q", "3", "--points", "null"],
        ["veronese", "--n", "2", "--q", "3", "--point", "null"],
        ["veronese", "--n", "2", "--q", "3", "--point", "7"],
        ["veronese", "--n", "2", "--q", "3", "--point", ""],
    ],
    ids=["points-int", "points-list-of-int", "points-null", "point-null", "point-int",
         "point-empty"],
)
def test_cli_json_of_the_wrong_shape_is_usage_error(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_suite_id_and_all_exclude_each_other(capsys, monkeypatch):
    import pgtool.cli as cli_mod

    with pytest.raises(SystemExit) as exc:
        main(["suite", "--id", "main-theorem", "--all"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
    asked = []

    def fake_run_suite(target):
        asked.append(target)
        return run_suite("closure-transfer")

    assert main(["suite", "--id", ""]) == 2  # an empty id names no suite
    assert "unknown suite ''" in capsys.readouterr().err
    monkeypatch.setattr(cli_mod, "run_suite", fake_run_suite)
    assert main(["suite", "--all"]) == main(["suite"]) == 0
    assert main(["suite", "--id", "thm-3-7"]) == 0
    assert asked == ["all", "all", "thm-3-7"]
    capsys.readouterr()


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
    # another pgtool module or in the benchmark
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
    assert exported and unused == []


def test_the_paper_reconstruction_runs_only_in_prop_x33():
    # in src, the Q-frame, its probe exponent and the tangent meet are
    # referenced only inside build_Q_frame and in suites.py, where
    # prop-x33 checks them against the fitted kappa: no other code
    # reconstructs a table a second time
    names = {"build_Q_frame", "recover_automorphism", "tangent_meet"}
    root = Path(__file__).resolve().parents[1] / "src" / "pgtool"
    found = []

    def visit(node, path, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name in names and isinstance(node, (ast.Name, ast.Attribute)):
            found.append((path.name, scope, name))
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope)

    for path in sorted(root.glob("*.py")):
        visit(ast.parse(path.read_text()), path, None)
    outside = [ref for ref in found if ref[0] != "suites.py" and ref[1] != "build_Q_frame"]
    assert outside == []
    assert ("embeddings.py", "build_Q_frame", "tangent_meet") in found
    assert {name for file, _, name in found if file == "suites.py"} == {
        "build_Q_frame", "recover_automorphism"
    }


def _load_tests_module(name):
    path = Path(__file__).resolve().parent / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"pgtool_tests_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_names_tests_and_finds_its_old_text_once():
    # the mutation gates run as their own CI step; a refactor that moves an
    # old text fails here first, and the entry is updated, not dropped
    root = Path(__file__).resolve().parents[1]
    mutants = _load_tests_module("mutants").MUTANTS
    assert len({m["name"] for m in mutants}) == len(mutants)
    for m in mutants:
        assert m["tests"] and (root / m["file"]).read_text().count(m["old"]) == 1, m["name"]


def test_mutant_runner_refuses_a_stale_entry(capsys, monkeypatch):
    runner = _load_tests_module("run_mutants")
    stale = {"name": "stale", "file": "src/pgtool/fields.py", "old": "no such text",
             "new": "", "tests": ["tests/test_fields.py"]}
    monkeypatch.setattr(runner, "MUTANTS", [stale])
    assert runner.main([]) == 1
    assert capsys.readouterr().out == "stale or empty entries:\n  stale\n"
