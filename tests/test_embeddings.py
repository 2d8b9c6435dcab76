"""Verifier, affine restriction/extension, frames, and reconstruction."""

from __future__ import annotations

from itertools import combinations

import pytest

from pgtool import (
    PlaneArc,
    PointMap,
    SplitMix64,
    broken_map,
    build_iota,
    build_Q_frame,
    closure_points,
    extend_beta,
    is_arc,
    is_quadratic_embedding,
    is_regular,
    frame_injection_map,
    random_complement,
    random_semilinear,
    reconstruct_kappa,
    recover_automorphism,
    space_for,
    tangent_meet,
    unisecants_at,
    veronese_for,
    veronese_kappa_map,
    veronese_point_map,
)
from pgtool import embeddings, linalg, quadrics
from pgtool.errors import (
    DimensionMismatch,
    FieldMismatch,
    ForeignTarget,
    FrameCheckFailed,
    ImageNotAPoint,
    InvalidPointMap,
    LinesNotConcurrent,
    ModeInfeasible,
    NoAutomorphismMatch,
    NotComplementary,
    NoUniqueUnisecant,
    NotACollineation,
    NotRegular,
    NotTotal,
    PgtoolError,
    PointNotInSubspace,
    SpaceMismatch,
    UsageError,
    VerificationFailed,
)
from pgtool.generate import compose_with_veronese
from pgtool.projective import SemilinearMap, scale_frame, standard_frame
from pgtool.quadrics import _context_for, closure_points_by_forms
from pgtool.veronese import monomial_pairs


# -- point map validation -------------------------------------------------


def test_point_map_rejects_partial_table():
    nu = veronese_point_map(2, 2)
    table = dict(nu.table)
    table.pop(next(iter(table)))
    with pytest.raises(NotTotal):
        PointMap(nu.source, nu.target, table)


def test_point_map_rejects_non_injective():
    nu2, nu3 = veronese_point_map(2, 2), veronese_point_map(2, 3)
    keys = list(nu2.table)
    fresh = next(y for y in nu3.target.points() if y not in set(nu3.table.values()))
    bad = [
        (nu2, {**nu2.table, keys[0]: nu2.table[keys[1]]}),
        # (0, 0, 2) is a second representative of (0, 0, 1); GF(2) has none
        (nu3, {**nu3.table, (0, 0, 2): fresh}),
    ]
    for nu, table in bad:
        with pytest.raises(InvalidPointMap):
            PointMap(nu.source, nu.target, table)


def test_point_map_field_compatibility():
    src = space_for(2, 2)
    tgt4 = space_for(5, 4)
    # a subfield target is accepted at construction
    table = {p: p + (0, 0, 0) for p in src.points()}
    PointMap(src, tgt4, table)
    with pytest.raises(FieldMismatch):
        PointMap(src, space_for(5, 3), table)
    with pytest.raises(FieldMismatch):
        PointMap(space_for(2, 4), space_for(5, 2), {})


# -- the verifier ----------------------------------------------------------


def test_verifier_accepts_veronese_exhaustive():
    report = is_quadratic_embedding(veronese_point_map(2, 2), mode="exhaustive")
    assert report.is_embedding and report.span_condition
    assert report.violated_set is None


def test_verifier_accepts_frame_injection():
    report = is_quadratic_embedding(frame_injection_map(3), mode="exhaustive")
    assert report.is_embedding


def test_verifier_rejects_collinear_image():
    # injection of the 4-point line into a plane with 3 collinear images
    src = space_for(1, 3)
    tgt = space_for(2, 3)
    images = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
    nu = PointMap(src, tgt, dict(zip(src.points(), images)))
    report = is_quadratic_embedding(nu, mode="exhaustive")
    assert not report.is_embedding
    witness = report.violated_set
    assert witness is not None and len(witness) in (2, 3)
    # re-check the witness from first principles
    clos = closure_points(src, witness)
    pivots, rows = linalg.rref(tgt.field, [nu.table[x] for x in witness])
    pre = {
        x
        for x in src.points()
        if linalg.in_rowspace(tgt.field, pivots, rows, nu.table[x])
    }
    assert clos != pre


def test_verifier_accepts_injection_onto_arc():
    # n = 1: any injection onto an arc of a plane is accepted
    src = space_for(1, 3)
    tgt = space_for(2, 3)
    field = tgt.field
    conic = [tgt.normalize((1, t, field.mul(t, t))) for t in field.elements()]
    conic.append((0, 0, 1))
    images = [conic[2], conic[0], conic[3], conic[1]]
    nu = PointMap(src, tgt, dict(zip(src.points(), images)))
    assert is_quadratic_embedding(nu, mode="exhaustive").is_embedding


def test_verifier_span_condition_only_failure():
    # embed the line's conic image into a bigger plane set? use a padded
    # target: images sit inside a hyperplane, closures all match but the
    # span condition fails
    src = space_for(1, 2)
    tgt = space_for(3, 2)
    images = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 0)]
    nu = PointMap(src, tgt, dict(zip(src.points(), images)))
    report = is_quadratic_embedding(nu, mode="exhaustive")
    assert not report.is_embedding
    assert not report.span_condition
    assert report.violated_set is None


def _verdict(report):
    return report.is_embedding, report.violated_set, report.span_condition


def _assert_reduced_matches_exhaustive(nu):
    a = is_quadratic_embedding(nu, mode="exhaustive")
    b = is_quadratic_embedding(nu, mode="reduced")
    assert _verdict(a) == _verdict(b)
    assert a.path == "scan"
    if nu.source.n >= 2 and nu.source.field == nu.target.field:
        # exhaustive accepts only tables that reconstruction certifies, so
        # a table the certificate rejects is not an embedding
        try:
            reconstruct_kappa(nu)
        except (NotRegular, VerificationFailed):
            assert not a.is_embedding
    return b


def _literal_reduced_scan(nu):
    """The per-subset reduced scan, as a verdict: every subset of up to
    n'+1 points in size-then-lex order, one closure and one span
    preimage elimination each."""
    source, target = nu.source, nu.target
    field = target.field
    images = nu.image()
    span_ok = linalg.rank(field, images) == target.n + 1
    closure = _context_for(source)
    npts = len(images)
    for size in range(min(npts, target.n + 1) + 1):
        for idx in combinations(range(npts), size):
            mask = sum(1 << i for i in idx)
            if closure.closure_mask(mask) != linalg.span_preimage_mask(field, images, idx):
                return False, frozenset(source.points()[i] for i in idx), span_ok
    return span_ok, None, span_ok


@pytest.fixture
def scan_only(monkeypatch):
    """Reduced mode with no certificate, so the subset scan decides."""

    monkeypatch.setattr(embeddings, "_fit_kappa", lambda nu: None)


def test_reduced_agrees_with_exhaustive_on_random_maps():
    # (n, q, n', q'); into PG(1,8) every pair is a witness of full image rank
    cases = [(2, 2, 5, 2), (1, 3, 2, 3), (2, 2, 1, 8)]
    for n, q, np_, qp in cases:
        src = space_for(n, q)
        tgt = space_for(np_, qp)
        tgt_pts = tgt.points()
        rng = SplitMix64(1000 * n + q)
        for _ in range(50):
            idxs = rng.sample_indices(len(tgt_pts), len(src.points()))
            perm = [tgt_pts[i] for i in idxs]
            rng.shuffle(perm)
            nu = PointMap(src, tgt, dict(zip(src.points(), perm)))
            report = _assert_reduced_matches_exhaustive(nu)
            assert _verdict(report) == _literal_reduced_scan(nu)


@pytest.mark.parametrize("n, q, seeds", [(2, 2, 2), (2, 3, 2), (3, 2, 1)])
def test_certificate_path_agrees_with_exhaustive_scan(n, q, seeds):
    for s in range(seeds):
        nu, _ = veronese_kappa_map(n, q, s)
        assert _assert_reduced_matches_exhaustive(nu).path == "certificate"
        report = _assert_reduced_matches_exhaustive(broken_map(n, q, s))
        assert report.path == "scan" and not report.is_embedding


def test_certificate_path_on_frame_injections():
    for seed in range(5):
        report = _assert_reduced_matches_exhaustive(frame_injection_map(seed))
        assert report.is_embedding and report.path == "certificate"


@pytest.mark.parametrize(
    "n, q, seeds", [(2, 3, 2), (3, 2, 1), (2, 4, 2), (2, 5, 1), (2, 7, 1)]
)
def test_reduced_scan_matches_literal_scan_on_broken_maps(n, q, seeds):
    for s in range(seeds):
        nu = broken_map(n, q, s)
        report = is_quadratic_embedding(nu)
        assert report.path == "scan" and not report.is_embedding
        assert _verdict(report) == _literal_reduced_scan(nu)


def test_reduced_scan_matches_literal_scan_on_accepted_maps(scan_only):
    # a full scan: no subset with independent images violates
    maps = [frame_injection_map(seed) for seed in range(5)]
    maps.append(veronese_kappa_map(2, 3, 0)[0])
    for nu in maps:
        report = is_quadratic_embedding(nu)
        assert report.path == "scan" and report.is_embedding
        assert _verdict(report) == _literal_reduced_scan(nu)


def _swapped_map(n, q, seed):
    """A kappa rho table with the images of two seeded points exchanged."""
    nu, _ = veronese_kappa_map(n, q, seed)
    pts = nu.source.points()
    a, b = SplitMix64(seed).sample_indices(len(pts), 2)
    table = dict(nu.table)
    table[pts[a]], table[pts[b]] = table[pts[b]], table[pts[a]]
    return PointMap(nu.source, nu.target, table)


def _scan_gate_maps(n, q):
    return [make(n, q, s) for make in (_swapped_map, _random_injection) for s in range(3)]


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_reduced_scan_matches_literal_scan_on_swapped_and_random_maps(n, q, scan_only):
    # over GF(2) a swap of two points of the frame rho(PG(2, 2)) is again
    # kappa rho, so the certificate is switched off and the scan decides
    for nu in _scan_gate_maps(n, q):
        report = is_quadratic_embedding(nu)
        assert report.path == "scan"
        assert _verdict(report) == _literal_reduced_scan(nu)
        if nu.source.point_count <= embeddings.EXHAUSTIVE_CAP:
            assert _verdict(report) == _verdict(is_quadratic_embedding(nu, mode="exhaustive"))


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_first_witness_mismatches_only_after_its_last_point(n, q):
    # why the scan keeps, at each prefix, only the points after its last one
    maps = _scan_gate_maps(n, q)
    if (n, q) in ((2, 3), (3, 2)):
        maps += [broken_map(n, q, s) for s in range(10)]
    closure = _context_for(space_for(n, q))
    witnesses = 0
    for nu in maps:
        field, images = nu.target.field, nu.image()
        witness = embeddings._first_violation(nu, linalg.rank(field, images))
        if witness is None:
            continue
        mask = sum(1 << i for i in witness)
        diff = closure.closure_mask(mask) ^ linalg.span_preimage_mask(field, images, witness)
        assert diff and diff & mask == 0
        assert all(i > witness[-1] for i in range(len(images)) if diff >> i & 1)
        witnesses += 1
    assert witnesses


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_reduce_residuals_returns_the_literal_tail(q):
    space = space_for(3, q)
    field, pts = space.field, space.points()
    rng = SplitMix64(q)
    for _ in range(60):
        res = [pts[rng.randbelow(len(pts))] if rng.randbelow(4) else None for _ in range(12)]
        p = rng.randbelow(len(res))
        v = res[p] = pts[rng.randbelow(len(pts))]
        j = next(k for k, x in enumerate(v) if x)
        out = linalg.reduce_residuals(field, res, p)
        assert len(out) == len(res) - p - 1
        for w, got in zip(res[p + 1:], out):
            want = None if w is None else linalg.canonical(
                field, [field.sub(a, field.mul(w[j], b)) for a, b in zip(w, v)]
            )
            assert got == want


def _partition(res):
    return sorted(linalg.residual_classes(res).values())


def test_packed_reduce_residuals_is_the_tuple_path_over_gf2():
    # the packed reducer and the tuple one, on the same residual lists over
    # a sequence of reductions: the same residuals, zero pattern and classes
    space = space_for(3, 2)
    field, pts = space.field, space.points()
    rng = SplitMix64(2)
    for _ in range(60):
        res = [pts[rng.randbelow(len(pts))] if rng.randbelow(4) else None for _ in range(14)]
        bits = linalg.residual_rows(field, [w for w in res if w is not None])
        packed = [None if w is None else bits.pop(0) for w in res]
        assert all(type(w) is int for w in packed if w is not None)
        while any(w is not None for w in res):
            live = [i for i, w in enumerate(res) if w is not None]
            p = live[rng.randbelow(len(live))]
            res = linalg.reduce_residuals(field, res, p)
            packed = linalg.reduce_residuals(field, packed, p)
            assert [w is None for w in packed] == [w is None for w in res]
            assert _partition(packed) == _partition(res)
            assert packed == [None if w is None else linalg.residual_rows(field, [w])[0] for w in res]


def test_scan_holds_gf2_residuals_as_bit_masks(monkeypatch):
    # each side is packed by its own field: into PG(1, 8) the rho side
    # (over GF(2)) is bits and the image side tuples
    seen = set()
    reduce = linalg.reduce_residuals

    def spy(field, res, p):
        seen.add((field.q, type(res[p])))
        assert all(type(w) is type(res[p]) for w in res if w is not None)
        return reduce(field, res, p)

    monkeypatch.setattr(linalg, "reduce_residuals", spy)
    made = _cold_contexts(monkeypatch)
    src = space_for(2, 2)
    for nu in (broken_map(2, 2, 0), broken_map(3, 2, 1), _random_injection(2, 2, 0)):
        _first_witness(nu)
    assert seen == {(2, int)}
    mixed = dict(zip(src.points(), space_for(1, 8).points()))
    _first_witness(PointMap(src, space_for(1, 8), mixed))
    assert seen == {(2, int), (8, tuple)}
    assert all(type(w) is int for w in made[src].rho_root()[0])


@pytest.mark.parametrize("n, q", [(2, 2), (3, 2)])
def test_bit_mask_scan_matches_literal_and_exhaustive_scans(n, q, scan_only):
    # swapped and random tables over GF(2) are in the swapped-and-random gate
    maps = [broken_map(n, q, s) for s in range(6)]
    if (n, q) == (2, 2):
        maps += [frame_injection_map(seed) for seed in range(3)]
    for nu in maps:
        report = is_quadratic_embedding(nu)
        assert report.path == "scan"
        assert _verdict(report) == _literal_reduced_scan(nu)
        assert _verdict(report) == _verdict(is_quadratic_embedding(nu, mode="exhaustive"))


def _literal_compared_count(nu, witness):
    """The ordinal of the witness among the subsets with independent
    images, in size-then-lex order: the subsets the scan compares."""
    field, images = nu.target.field, nu.image()
    count = 0
    for size in range(1, len(witness) + 1):
        for idx in combinations(range(len(images)), size):
            if linalg.rank(field, [images[i] for i in idx]) == size:
                count += 1
            if idx == witness:
                return count
    raise AssertionError("the witness is not a subset of its size")


@pytest.mark.parametrize("n, seed", [(2, 0), (3, 0), (3, 1)])
def test_reduced_scan_cap_counts_compared_subsets_over_gf2(n, seed, monkeypatch):
    nu = broken_map(n, 2, seed)
    witness = _first_witness(nu)
    count = _literal_compared_count(nu, witness)
    monkeypatch.setattr(embeddings, "REDUCED_CAP", count - 1)
    with pytest.raises(ModeInfeasible, match="reduced cap"):
        _first_witness(nu)
    monkeypatch.setattr(embeddings, "REDUCED_CAP", count)
    assert _first_witness(nu) == witness


@pytest.mark.parametrize("seed", [1, 3])
def test_pg42_witness_violates_and_nothing_smaller_does(seed):
    nu = broken_map(4, 2, seed)
    report = is_quadratic_embedding(nu)
    witness = report.violated_set
    assert report.path == "scan" and len(witness) == 4
    assert closure_points_by_forms(nu.source, witness) != embeddings.span_preimage(nu, witness)
    field, images = nu.target.field, nu.image()
    closure = _context_for(nu.source)
    for size in range(1, 4):
        for idx in combinations(range(len(images)), size):
            mask = sum(1 << i for i in idx)
            assert closure.closure_mask(mask) == linalg.span_preimage_mask(field, images, idx)


@pytest.mark.parametrize("n, q", [(2, 3), (3, 2), (2, 5)])
def test_fitted_kappa_stands_in_for_the_image_rank(n, q, monkeypatch):
    # a fitted kappa skips the rank; the report is the one the literal rank gives
    # at PG(3, 2) the fit gives a kappa on few broken tables, so take 40
    maps = _scan_gate_maps(n, q) + [broken_map(n, q, s) for s in range(40)]
    ranks, rank = [], linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda field, rows: ranks.append(1) or rank(field, rows))
    fitted = 0
    for nu in maps:
        del ranks[:]
        report = is_quadratic_embedding(nu)
        if report.path == "certificate":
            continue
        assert ranks == ([] if nu._fit[0] is not None else [1])
        fitted += nu._fit[0] is not None
        full = rank(nu.target.field, nu.image())
        witness = embeddings._first_violation(nu, full)
        assert report.span_condition == (full == nu.target.n + 1)
        assert report.violated_set == (
            None if witness is None else frozenset(nu.source.points()[i] for i in witness)
        )
        assert report.path == "scan"
    assert fitted


def test_reduced_scan_cap_counts_compared_subsets(monkeypatch):
    # the witness is the 143rd subset the scan compares; an up-front count
    # would charge all 4096 subsets of up to six points
    nu = broken_map(2, 3, 0)
    witness = is_quadratic_embedding(nu).violated_set
    monkeypatch.setattr(embeddings, "REDUCED_CAP", 142)
    with pytest.raises(ModeInfeasible, match="reduced cap"):
        is_quadratic_embedding(nu)
    monkeypatch.setattr(embeddings, "REDUCED_CAP", 143)
    assert is_quadratic_embedding(nu).violated_set == witness


def _veronese_read_in_gf16():
    """The Veronese table of PG(2,4) read in PG(5,16) through GF(4) in GF(16)."""
    big = space_for(5, 16)
    f16 = big.field
    omega = next(w for w in f16.elements() if f16.add(f16.mul(w, w), f16.add(w, 1)) == 0)
    into16 = [0, 1, omega, f16.add(omega, 1)]  # the GF(4) codes 0, 1, x, x + 1
    base = veronese_point_map(2, 4)
    table = {x: tuple(into16[c] for c in y) for x, y in base.table.items()}
    return PointMap(base.source, big, table)


def test_reduced_scan_reads_closures_over_the_source_field(monkeypatch):
    # the table is a quadratic embedding, as ranks do not change under
    # field extension; its closures must be computed over GF(4), and no
    # subset may violate
    monkeypatch.setattr(embeddings, "REDUCED_CAP", 3000)
    with pytest.raises(ModeInfeasible):  # the budget runs out before any witness
        is_quadratic_embedding(_veronese_read_in_gf16())


def _cold_contexts(monkeypatch) -> dict:
    """Give the scan fresh closure contexts, kept in the returned dict."""
    made = {}

    def context_for(space):
        if space not in made:
            made[space] = quadrics._ClosureContext(space)
        return made[space]

    monkeypatch.setattr(embeddings, "_context_for", context_for)
    return made


def _first_witness(nu):
    return embeddings._first_violation(nu, linalg.rank(nu.target.field, nu.image()))


def _memo_gate_maps(n, q):
    maps = _scan_gate_maps(n, q)
    if (n, q) in ((2, 3), (3, 2)):
        maps += [broken_map(n, q, s) for s in range(10)]
    return maps


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_rho_tail_memo_keeps_every_witness(n, q, monkeypatch):
    maps = _memo_gate_maps(n, q)
    warm = _cold_contexts(monkeypatch)
    with_memo = [_first_witness(nu) for nu in maps]
    assert warm[maps[0].source].tail_entries > 0
    monkeypatch.setattr(quadrics, "RHO_TAIL_CAP", 0)
    cold = _cold_contexts(monkeypatch)
    assert [_first_witness(nu) for nu in maps] == with_memo
    assert list(cold[maps[0].source]._tail_memo) == [()]


def test_rho_tail_memo_does_not_depend_on_table_order(monkeypatch):
    # the memo is shared by every table over a source, so a table decided
    # after others, over its source or another, must get the witness it
    # gets on a cold context
    maps = _memo_gate_maps(2, 3) + _memo_gate_maps(3, 2)
    alone = []
    for nu in maps:
        _cold_contexts(monkeypatch)
        alone.append(_first_witness(nu))
    assert any(alone)
    for order in (maps, maps[::-1], maps[::2] + maps[1::2]):
        _cold_contexts(monkeypatch)
        witnesses = {id(nu): _first_witness(nu) for nu in order}
        assert [witnesses[id(nu)] for nu in maps] == alone


def test_rho_tail_memo_lives_on_the_source_space(monkeypatch):
    # each stored tail says, over GF(4), which tail points span the same
    # line with span rho(P): equal residuals, and None for rho(P) itself
    nu = _veronese_read_in_gf16()
    made = _cold_contexts(monkeypatch)
    monkeypatch.setattr(embeddings, "REDUCED_CAP", 3000)
    with pytest.raises(ModeInfeasible):
        _first_witness(nu)
    assert list(made) == [nu.source]
    ctx = made[nu.source]
    field, rows = nu.source.field, ctx.rho_rows
    assert len(ctx._tail_memo) > 1
    for prefix, (tail, _classes) in ctx._tail_memo.items():
        if not prefix:
            continue
        base = [rows[i] for i in prefix]
        after = range(prefix[-1] + 1, len(rows))
        for y, res in zip(after, tail):
            assert (res is None) == (linalg.rank(field, base + [rows[y]]) == len(prefix))
        live = [(y, res) for y, res in zip(after, tail) if res is not None]
        for (y, a), (z, b) in combinations(live, 2):
            same = linalg.rank(field, base + [rows[y], rows[z]]) == len(prefix) + 1
            assert same == (a == b)


def test_rho_tail_memo_stays_within_its_budget(monkeypatch):
    nu = broken_map(4, 2, 1)
    witnesses = []
    for cap in (500, quadrics.RHO_TAIL_CAP):
        made = _cold_contexts(monkeypatch)
        monkeypatch.setattr(quadrics, "RHO_TAIL_CAP", cap)
        witnesses.append(_first_witness(nu))
        ctx = made[nu.source]
        stored = sum(len(tail) for prefix, (tail, _classes) in ctx._tail_memo.items() if prefix)
        assert stored == ctx.tail_entries <= cap
    assert witnesses[0] is not None
    assert witnesses[0] == witnesses[1]


def test_unknown_mode():
    with pytest.raises(ModeInfeasible):
        is_quadratic_embedding(veronese_point_map(2, 2), mode="sampled")


def test_exhaustive_cap():
    with pytest.raises(ModeInfeasible):
        is_quadratic_embedding(veronese_point_map(2, 4), mode="exhaustive")


def _closure_is_span_preimage(nu, subset):
    # nu is injective, so this says the closure image is the image set cut
    # with the image span, and a closure is closed on the source side
    return closure_points(nu.source, subset) == embeddings.span_preimage(nu, subset)


def test_check_closure_image():
    nu = veronese_point_map(2, 3)
    src = nu.source
    assert _closure_is_span_preimage(nu, [(1, 1, 1)])
    line = src.span([(1, 0, 0), (0, 1, 0)]).points()
    assert _closure_is_span_preimage(nu, line)
    nu4 = veronese_point_map(2, 4)
    pts4 = nu4.source.points()
    rng = SplitMix64(44)
    for _ in range(20):
        size = rng.randbelow(len(pts4) + 1)
        subset = [pts4[i] for i in rng.sample_indices(len(pts4), size)]
        assert _closure_is_span_preimage(nu4, subset)
    broken = broken_map(2, 3, 0)
    witness = is_quadratic_embedding(broken).violated_set
    assert not _closure_is_span_preimage(broken, sorted(witness))


# -- regularity -------------------------------------------------------------


def _unisecant_count(nu, point, line):
    """Unisecants at nu(point) in the plane of the line image."""
    imgs = [nu.table[x] for x in line.points()]
    arc = PlaneArc(nu.target.span(imgs), frozenset(imgs))
    return len(unisecants_at(arc, nu.table[point]))


def test_regularity_of_veronese():
    nu = veronese_point_map(2, 3)
    src = nu.source
    line = src.span([(1, 0, 0), (0, 1, 0)])
    assert _unisecant_count(nu, (1, 0, 0), line) == 1
    assert is_regular(nu)


def test_regularity_of_twisted_veronese():
    nu, _ = veronese_kappa_map(2, 4, 5)
    assert is_regular(nu)


def test_one_pair_regularity_propagates():
    # for generated embeddings with n >= 2: regular at one incident pair
    # implies regular everywhere
    for seed in range(3):
        nu, _ = veronese_kappa_map(2, 3, seed)
        src = nu.source
        line = src.lines()[0]
        point = line.points()[0]
        assert _unisecant_count(nu, point, line) == 1
        assert is_regular(nu)


def _regular_by_unisecants(nu):
    """Literal oracle: every line image is a plane arc, and each of its
    points has exactly one unisecant in that plane."""
    for line in nu.source.lines():
        imgs = [nu.table[x] for x in line.points()]
        plane = nu.target.span(imgs)
        if plane.dim != 2:
            return False
        arc = PlaneArc(plane, frozenset(imgs))
        if not is_arc(arc):
            return False
        if any(len(unisecants_at(arc, y)) != 1 for y in imgs):
            return False
    return True


def _random_injection(n, q, seed):
    """Random injective table PG(n, q) -> PG(C(n+2,2)-1, q)."""
    source = space_for(n, q)
    target = veronese_for(source).target
    images = list(target.points())
    SplitMix64(seed).shuffle(images)
    return PointMap(source, target, dict(zip(source.points(), images)))


def _kappa_rho_gate_maps(n, q):
    """kappa rho tables: seeded ones, and one for every Frobenius twist,
    so GF(4) gets alpha = 1."""
    ver = veronese_for(space_for(n, q))
    maps = [veronese_kappa_map(n, q, s)[0] for s in range(2)]
    maps += [
        compose_with_veronese(ver, random_semilinear(ver.target, SplitMix64(7), alpha))
        for alpha in ver.source.field.automorphism_exponents()
    ]
    if (n, q) == (2, 2):
        maps += [frame_injection_map(s) for s in range(5)]
    return maps


def _regularity_gate_maps(n, q):
    """Tables of the form kappa rho, and tables that are not."""
    others = [broken_map(n, q, s) for s in range(3)]
    others += [_random_injection(n, q, s) for s in range(3)]
    return _kappa_rho_gate_maps(n, q), others


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (2, 4), (3, 2), (2, 5), (3, 3)])
def test_is_regular_matches_unisecant_oracle(n, q, monkeypatch):
    # is_regular asks the certificate first; the line scan and the
    # unisecant count are the oracles, and certified tables must never
    # reach the scan
    kappa_rho, others = _regularity_gate_maps(n, q)
    maps = kappa_rho + others
    line_scan = [
        all(embeddings._line_image_is_arc(nu, line) for line in nu.source.lines())
        for nu in maps
    ]
    assert line_scan == [_regular_by_unisecants(nu) for nu in maps]
    certified = set()
    for nu in maps:  # on a copy, so `is_regular` below meets a fresh table
        try:
            reconstruct_kappa(PointMap(nu.source, nu.target, dict(nu.table)))
            certified.add(id(nu))
        except (NotRegular, VerificationFailed):
            pass
    assert certified >= {id(nu) for nu in kappa_rho}
    if q == 2:  # three non-collinear points are an arc, so these reach the scan
        assert any(reg and id(nu) not in certified for nu, reg in zip(maps, line_scan))

    line_image_is_arc = embeddings._line_image_is_arc

    def scan_uncertified(nu, line):
        assert id(nu) not in certified, "a certified table reached the line scan"
        return line_image_is_arc(nu, line)

    monkeypatch.setattr(embeddings, "_line_image_is_arc", scan_uncertified)
    assert [is_regular(nu) for nu in maps] == line_scan


def test_is_regular_false_over_larger_target_field():
    src = space_for(2, 2)
    tgt4 = space_for(5, 4)
    # the linear map from test_point_map_field_compatibility: line images
    # are collinear, so no line image is an arc
    linear = PointMap(src, tgt4, {p: p + (0, 0, 0) for p in src.points()})
    # the Veronese table read over GF(4): every line image is an arc, but
    # each of its points lies on 4+1-2 = 3 unisecants of the GF(4) plane
    ver = veronese_point_map(2, 2)
    wide = PointMap(src, tgt4, ver.table)
    for nu in (linear, wide):
        assert is_regular(nu) is False
        assert _regular_by_unisecants(nu) is False
    line = src.span([(1, 0, 0), (0, 1, 0)])
    assert _unisecant_count(wide, (1, 0, 0), line) == 3
    assert _unisecant_count(ver, (1, 0, 0), line) == 1


def _sampled_injection(n, q, seed):
    """Random injective table, its images drawn by index through `point_at`."""
    source = space_for(n, q)
    target = veronese_for(source).target
    rng, images = SplitMix64(seed), {}
    while len(images) < source.point_count:
        images.setdefault(target.point_at(rng.randbelow(target.point_count)), None)
    return PointMap(source, target, dict(zip(source.points(), images)))


def _refused_gate_maps(n, q):
    maps = [broken_map(n, q, s) for s in range(3)]
    maps += [_swapped_map(n, q, s) for s in range(2)]
    maps += [_sampled_injection(n, q, s) for s in range(2)]
    if (n, q) == (2, 2):
        maps += [frame_injection_map(s) for s in range(5)]
    return maps


def _first_failing_line(nu, lines):
    return next((line for line in lines if not embeddings._line_image_is_arc(nu, line)), None)


@pytest.mark.parametrize(
    "n, q", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 7), (2, 8), (2, 9), (3, 2), (3, 3), (3, 4)]
)
def test_is_regular_scans_only_lines_through_d(n, q, monkeypatch):
    # D against the literal composition with the fitted kappa, and the
    # verdict against the full scan and the unisecant oracle; the scan
    # tests the lines that meet D, in lines() order, up to the full
    # scan's first failing line
    ver = veronese_for(space_for(n, q))
    line_image_is_arc = embeddings._line_image_is_arc
    fitted = 0
    for nu in _refused_gate_maps(n, q):
        lines = nu.source.lines()
        full = _first_failing_line(nu, lines)
        assert (full is None) == _regular_by_unisecants(nu)
        kappa = embeddings._fit_kappa(nu)
        fresh = PointMap(nu.source, nu.target, dict(nu.table))
        tested = []

        def recorded(nu_, line):
            tested.append(line)
            return line_image_is_arc(nu_, line)

        monkeypatch.setattr(embeddings, "_line_image_is_arc", recorded)
        assert is_regular(fresh) == (full is None)
        monkeypatch.setattr(embeddings, "_line_image_is_arc", line_image_is_arc)
        if fresh._fit[1] == frozenset():  # frame injections are kappa rho
            assert full is None and not tested
            continue
        d = fresh._fit[1]
        if kappa is None:
            assert d is None
            expect = lines
        else:
            fitted += 1
            pts = ver.source.points()
            assert d == {x for x in pts if kappa.apply(ver.apply(x)) != nu.table[x]}
            expect = [line for line in lines if not d.isdisjoint(line.points())]
        assert tested == expect[: len(expect) if full is None else expect.index(full) + 1]
    # over GF(2) the fit reads nearly every point, so it refuses these tables
    assert fitted or q == 2


# -- affine restriction and extension ----------------------------------------


def _tee_setup(q=3):
    nu = veronese_point_map(2, q)
    src, tgt = nu.source, nu.target
    hyper = src.span([(0, 1, 0), (0, 0, 1)])  # the line x0 = 0
    eprime = tgt.span([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)])
    return nu, src, tgt, hyper, eprime


def test_build_iota_affine_chart():
    nu, src, tgt, hyper, eprime = _tee_setup()
    iota = build_iota(nu, hyper, eprime)
    assert len(iota) == 9
    for a, image in iota.items():
        # the cut recovers the affine coordinates in the first block
        assert image == a + (0, 0, 0)
    # dimension preservation for small subsets
    affine = sorted(iota)
    from itertools import combinations

    for size in (0, 1, 2, 3):
        for subset in combinations(affine, size):
            want = linalg.rank(src.field, list(subset)) - 1
            got = linalg.rank(tgt.field, [iota[x] for x in subset]) - 1
            assert got == want


def test_build_iota_not_complementary():
    nu, src, tgt, hyper, _ = _tee_setup()
    bad = tgt.span([(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0)])
    with pytest.raises(NotComplementary):
        build_iota(nu, hyper, bad)


def test_extend_beta_veronese():
    nu, src, tgt, hyper, eprime = _tee_setup()
    beta = extend_beta(nu, hyper, eprime)
    assert beta.map.alpha == 0
    assert len(beta.table) == 13
    # restriction to the affine part is the iota map
    iota = build_iota(nu, hyper, eprime)
    for a, img in iota.items():
        assert beta.table[a] == img
    # the extension lands inside the complement
    for x, img in beta.table.items():
        assert eprime.contains(img)


def test_extend_beta_recovers_frobenius():
    nu = _twisted_veronese(4)
    hyper = nu.source.span([(0, 1, 0), (0, 0, 1)])
    beta = extend_beta(nu, hyper)
    assert beta.map.alpha == 1


def test_extend_beta_q2():
    nu = veronese_point_map(2, 2)
    hyper = nu.source.span([(0, 1, 0), (0, 0, 1)])
    beta = extend_beta(nu, hyper)
    assert beta.map.alpha == 0
    assert len(beta.table) == 7


def _nu_T(nu, hyperplane, beta):
    """The quotient embedding of the paper: each source point joined to
    the image span of the hyperplane by its extension image."""
    target = nu.target
    base = target.span([nu.table[x] for x in hyperplane.points()])
    return {x: target.subspace(base.rows + (beta.table[x],)) for x in nu.source.points()}


def _is_subspace_of(sub, other):
    field = sub.space.field
    return all(linalg.in_rowspace(field, other.pivots, other.rows, r) for r in sub.rows)


def test_extension_independent_of_complement():
    # neither the induced hyperplane image nor the quotient map may
    # depend on the complement choice
    nu, src, tgt, hyper, eprime = _tee_setup()
    rng = SplitMix64(99)
    base = tgt.span([nu.table[x] for x in hyper.points()])
    h_images = set()
    quotients = []
    for complement in (eprime, random_complement(tgt, base, rng)):
        beta = extend_beta(nu, hyper, complement)
        h = tgt.span(
            [nu.table[x] for x in hyper.points()]
            + [beta.table[x] for x in hyper.points()]
        )
        h_images.add(h)
        quotients.append(_nu_T(nu, hyper, beta))
    assert len(h_images) == 1
    assert quotients[0] == quotients[1]


def test_nu_t_bijection():
    nu, src, tgt, hyper, eprime = _tee_setup()
    beta = extend_beta(nu, hyper, eprime)
    quotient = _nu_T(nu, hyper, beta)
    values = set(quotient.values())
    assert len(values) == len(src.points())
    base = tgt.span([nu.table[x] for x in hyper.points()])
    assert base.dim == 2  # rho maps the hyperplane, a line, onto a conic's plane
    for x, sub in quotient.items():
        # no extension image lies in the base, so each join is a point of the quotient
        assert sub.dim == base.dim + 1
        assert _is_subspace_of(base, sub) and sub.contains(beta.table[x])


# `build_iota` and `extend_beta` as first written, kept as oracles: each
# cut a `meet` of span(T, nu(A)) with the complement after a `meet` and a
# `join` test, and the extension by target-space spans and meets over
# `lines_through` pencils, with a `_coords_of` pass before the fit.


def _coords_of(sub, vec):
    """Coefficients of a member point against the reduced basis."""
    vec = sub.space.normalize(vec)
    if not sub.contains(vec):
        raise PointNotInSubspace(f"{vec} is not in the subspace")
    return tuple(vec[c] for c in sub.pivots)


def _literal_build_iota(nu, hyperplane, complement):
    source, target = nu.source, nu.target
    if hyperplane.dim != source.n - 1:
        raise DimensionMismatch("expected a hyperplane of the source")
    base = target.span([nu.table[x] for x in hyperplane.points()])
    join = target.subspace(base.rows + complement.rows)
    if target.meet(base, complement).dim != -1 or join.dim != target.n:
        raise NotComplementary("complement does not complement the image span")
    out = {}
    hyper_pts = set(hyperplane.points())
    for a in source.points():
        if a in hyper_pts:
            continue
        cut = target.meet(target.subspace(base.rows + (nu.table[a],)), complement)
        if cut.dim != 0:
            raise ImageNotAPoint(f"image of {a} cuts the complement in dimension {cut.dim}")
        out[a] = cut.rows[0]
    return out


def _literal_extend_beta(nu, hyperplane, complement=None, iota=None):
    # iota, when given, is what _literal_build_iota returns
    source, target = nu.source, nu.target
    if source.n < 2:
        raise DimensionMismatch("extension needs source dimension >= 2")
    if complement is None:
        complement = _literal_default_complement(
            target, target.span([nu.table[x] for x in hyperplane.points()])
        )
    if iota is None:
        iota = _literal_build_iota(nu, hyperplane, complement)
    table = dict(iota)
    for p in hyperplane.points():
        carrier = None
        for g in source.lines_through(p):
            if _is_subspace_of(g, hyperplane):
                continue
            span_img = target.span([iota[x] for x in g.points() if x != p])
            if span_img.dim != 1:
                raise LinesNotConcurrent(
                    f"iota image of a punctured line spans dimension {span_img.dim}"
                )
            carrier = span_img if carrier is None else target.meet(carrier, span_img)
        if carrier.dim != 0:
            raise LinesNotConcurrent(f"candidate lines at {p} do not meet in a single point")
        table[p] = carrier.rows[0]
    coords_of = {x: _coords_of(complement, y) for x, y in table.items()}
    return embeddings.AffineExtension(table, embeddings._fit_semilinear(source, coords_of))


def _outcome(fn, *args):
    """What fn returns, or the type and message of the pgtool error it raises."""
    try:
        return fn(*args)
    except PgtoolError as exc:
        return type(exc), str(exc)


def _assert_like_literal(nu, hyper, complement=None):
    """build_iota and extend_beta agree with the oracles; returns the
    extension outcome.  Without a complement, build_iota gets the
    default one, which extend_beta takes."""
    target = nu.target
    if complement is None:
        base = target.span([nu.table[x] for x in hyper.points()])
        iota_complement = _literal_default_complement(target, base)
    else:
        iota_complement = complement
    iota = _outcome(_literal_build_iota, nu, hyper, iota_complement)
    assert _outcome(build_iota, nu, hyper, iota_complement) == iota
    got = _outcome(extend_beta, nu, hyper, complement)
    if type(iota) is tuple:
        assert got == iota
    else:
        assert got == _outcome(_literal_extend_beta, nu, hyper, iota_complement, iota)
    return got


def _twisted_veronese(q):
    ver = veronese_for(space_for(2, q))
    size = ver.target.n + 1
    ident = tuple(tuple(int(j == i) for j in range(size)) for i in range(size))
    twist = SemilinearMap(ver.target, ident, 1)
    return PointMap(
        ver.source, ver.target, {x: twist.apply(ver.apply(x)) for x in ver.source.points()}
    )


def test_iota_and_beta_match_literal_on_kappa_rho():
    tables = [veronese_kappa_map(n, q, seed)[0] for n, q in ((2, 3), (2, 4), (3, 2)) for seed in range(2)]
    tables.append(_twisted_veronese(4))
    for nu in tables:
        for hyper in nu.source.hyperplanes():
            beta = _assert_like_literal(nu, hyper)
            assert isinstance(beta, embeddings.AffineExtension)
    assert beta.map.alpha == 1  # the twist is read off the complement coordinates


def test_extend_beta_refusals_on_broken_maps():
    # a broken table either extends or is refused by one of the three
    # property types, none of which is bad input, as the oracles are
    for cls in (ImageNotAPoint, LinesNotConcurrent, NotACollineation):
        assert not issubclass(cls, UsageError)
    # PG(3, 3) has 40 hyperplanes, so it runs on 5 seeds, the others on 30
    outcomes = {}
    for n, q in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)):
        for seed in range(5 if (n, q) == (3, 3) else 30):
            nu = broken_map(n, q, seed)
            for hyper in nu.source.hyperplanes():
                got = _assert_like_literal(nu, hyper)
                kind = type(got).__name__ if type(got) is not tuple else got[0].__name__
                outcomes[kind] = outcomes.get(kind, 0) + 1
    assert outcomes == {
        "LinesNotConcurrent": 2050,
        "ImageNotAPoint": 547,
        "NotACollineation": 70,
        "AffineExtension": 143,
    }


def test_iota_and_beta_match_literal_on_frame_injections():
    for seed in range(10):
        nu = frame_injection_map(seed)
        for hyper in nu.source.hyperplanes():
            _assert_like_literal(nu, hyper)


def test_iota_and_beta_match_literal_on_chosen_complements():
    # random complements, and random subspaces, which mostly fail to
    # complement the image span (NotComplementary on both sides)
    rng = SplitMix64(23)
    tables = [veronese_kappa_map(2, 3, 5)[0], veronese_point_map(3, 2), broken_map(2, 3, 4)]
    refused = 0
    for nu in tables:
        target, pts = nu.target, nu.target.points()
        for hyper in nu.source.hyperplanes():
            base = target.span([nu.table[x] for x in hyper.points()])
            _assert_like_literal(nu, hyper, random_complement(target, base, rng))
            size = 1 + rng.randbelow(target.n + 1)
            other = target.span([pts[rng.randbelow(len(pts))] for _ in range(size)])
            got = _assert_like_literal(nu, hyper, other)
            refused += got == (NotComplementary, "complement does not complement the image span")
    assert refused > 20


def _literal_concurrence(space, punctured):
    carrier = None
    for pts in punctured:
        span = space.span(pts)
        if span.dim != 1:
            raise LinesNotConcurrent(f"iota image of a punctured line spans dimension {span.dim}")
        carrier = span if carrier is None else space.meet(carrier, span)
    return carrier.rows[0] if carrier.dim == 0 else None


@pytest.mark.parametrize("k", [2, 3, 4])
def test_concurrence_matches_span_and_meet(k):
    # lines through one center, with now and then a line off it, a
    # repeated line, a set of equal points or q random points
    for q in (2, 3, 4, 5):
        space = space_for(k - 1, q)
        pts = space.points()
        rng = SplitMix64(100 * k + q)
        outcomes = set()
        for _ in range(60):
            center = pts[rng.randbelow(len(pts))]
            sets = []
            for _ in range(2 + rng.randbelow(3)):
                kind = rng.randbelow(10)
                if kind == 0:
                    sets.append([pts[rng.randbelow(len(pts))] for _ in range(q)])
                elif kind == 1:
                    sets.append([center] * q)
                elif kind == 2 and sets:
                    sets.append(list(sets[-1]))
                else:
                    through = center if kind > 3 else pts[rng.randbelow(len(pts))]
                    others = [x for x in pts if x != through]
                    line = list(space.span([through, others[rng.randbelow(len(others))]]).points())
                    rng.shuffle(line)
                    sets.append(line[:q])
            got = _outcome(embeddings._concurrence, space.field, k, sets)
            assert got == _outcome(_literal_concurrence, space, sets)
            outcomes.add("point" if type(got) is tuple and type(got[0]) is int else str(got)[:40])
        # on PG(1, q) every line is the whole space, so lines never meet in a point
        assert "None" in outcomes and ("point" in outcomes) == (k > 2)


def _table_with_hyperplane_rank(q, rank, seed):
    """An injective PG(2, q) -> PG(5, q) table whose first hyperplane has
    images spanning a subspace of the given rank, and the other points
    random images off that subspace, so that each cuts the complement."""
    ver = veronese_for(space_for(2, q))
    source, target = ver.source, ver.target
    rng = SplitMix64(seed)
    pts = target.points()
    hyper = source.hyperplanes()[0]
    while True:
        sub = target.span([pts[rng.randbelow(len(pts))] for _ in range(rank)])
        chosen = list(sub.points())
        rng.shuffle(chosen)
        chosen = chosen[: len(hyper.points())]
        if sub.dim == rank - 1 and target.span(chosen) == sub:
            break
    rest = [y for y in pts if not sub.contains(y)]
    rng.shuffle(rest)
    table = dict(zip(hyper.points(), chosen))
    table.update(zip((x for x in source.points() if x not in table), rest))
    return PointMap(source, target, table), hyper


def test_iota_and_beta_match_literal_for_every_complement_dimension():
    # complements of dimension n - 1, n, n + 1 and 0 for n = 2: C is a
    # line, a plane, a solid or a point.  A point is PG(0, q), which
    # cannot be built; its punctured lines span dimension 0 on both sides.
    seen = {}
    for q in (4, 5):  # q + 1 hyperplane points can span a rank of 5
        for rank in (2, 3, 4, 5):
            for seed in range(4):
                nu, hyper = _table_with_hyperplane_rank(q, rank, seed)
                got = _assert_like_literal(nu, hyper)
                dim = nu.target.n - rank
                seen.setdefault(dim, set()).add(got[0].__name__ if type(got) is tuple else "extended")
    assert sorted(seen) == [0, 1, 2, 3]
    assert seen[0] == {"LinesNotConcurrent"}


def test_iota_and_beta_refuse_a_foreign_hyperplane():
    # a line of PG(2, 4) holds codes a PG(2, 3) table has no entry for,
    # and a line of PG(2, 2) names PG(2, 3) points but is no line there
    nu = veronese_point_map(2, 3)
    complement = embeddings.default_complement(
        nu.target, nu.target.span([nu.table[x] for x in nu.source.hyperplanes()[0].points()])
    )
    for q in (4, 2):
        hyper = space_for(2, q).hyperplanes()[0]
        with pytest.raises(SpaceMismatch):
            build_iota(nu, hyper, complement)
        for args in ((), (complement,)):
            with pytest.raises(SpaceMismatch):
                extend_beta(nu, hyper, *args)


# -- distinguished frame and reconstruction ----------------------------------


def _canonical_columns_and_sum(field, basis):
    total = [0] * len(basis[0])
    for col in basis:
        total = [field.add(a, b) for a, b in zip(total, col)]
    return [linalg.canonical(field, col) for col in basis], linalg.canonical(field, total)


def test_q_frame_of_veronese_is_standard():
    for q in (2, 3, 4):
        nu = veronese_point_map(2, q)
        columns, total = _canonical_columns_and_sum(nu.target.field, build_Q_frame(nu))
        dim = nu.target.n + 1
        assert len(columns) == len(monomial_pairs(2)) == dim
        assert columns == [tuple(1 if j == flat else 0 for j in range(dim)) for flat in range(dim)]
        assert total == tuple(1 for _ in range(dim))


def test_q_frame_equivariance_under_projective_kappa():
    ver = veronese_for(space_for(2, 3))
    rng = SplitMix64(17)
    kappa = random_semilinear(ver.target, rng, alpha=0)
    nu = PointMap(
        ver.source, ver.target, {x: kappa.apply(ver.apply(x)) for x in ver.source.points()}
    )
    field = ver.target.field
    base, base_total = _canonical_columns_and_sum(field, build_Q_frame(veronese_point_map(2, 3)))
    twisted, twisted_total = _canonical_columns_and_sum(field, build_Q_frame(nu))
    assert twisted == [kappa.apply(col) for col in base]
    assert twisted_total == kappa.apply(base_total)


def test_recover_automorphism():
    nu = veronese_point_map(2, 3)
    assert recover_automorphism(nu, build_Q_frame(nu)) == 0
    nu22 = veronese_point_map(2, 2)
    assert recover_automorphism(nu22, build_Q_frame(nu22)) == 0
    nu4 = _twisted_veronese(4)
    assert recover_automorphism(nu4, build_Q_frame(nu4)) == 1
    # every Frobenius twist over GF(8) and GF(9), read off one elimination
    for q in (8, 9):
        ver = veronese_for(space_for(2, q))
        for alpha in ver.source.field.automorphism_exponents():
            kappa = random_semilinear(ver.target, SplitMix64(alpha), alpha)
            nu = compose_with_veronese(ver, kappa)
            assert recover_automorphism(nu, build_Q_frame(nu)) == alpha


def _frame_gate_maps(n, q):
    """Accepted, broken and two-swapped tables."""
    return [
        make(n, q, s)
        for make in (lambda *a: veronese_kappa_map(*a)[0], broken_map, _swapped_map)
        for s in range(3)
    ]


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2)])
def test_line_arc_matches_literal_plane_arc(n, q):
    # the trusted construction against the constructor's checked one,
    # on every line image: same plane, points and coords, in order
    for nu in _frame_gate_maps(n, q):
        for line in nu.source.lines():
            imgs = [nu.table[x] for x in line.points()]
            plane = nu.target.span(imgs)
            arc = embeddings.line_arc(nu, line)
            if plane.dim != 2:
                assert arc is None
                continue
            literal = PlaneArc(plane, frozenset(imgs))
            assert arc == literal
            assert list(arc.coords.items()) == list(literal.coords.items())


def _literal_frame(nu):
    """`build_Q_frame` spelled out: each frame line spanned by an
    elimination, its tangent meet found on the line_arc image, the
    points gathered by monomial pair, then scaled."""
    source = nu.source
    *units, unit = standard_frame(source)
    points = {(i, i): nu.table[e] for i, e in enumerate(units)}
    for i, j in combinations(range(source.n + 1), 2):
        arc = embeddings.line_arc(nu, source.span((units[i], units[j])))
        if arc is None:
            raise FrameCheckFailed(f"image of the frame line e{i} e{j} spans no plane")
        points[i, j] = tangent_meet(arc, nu.table[units[i]], nu.table[units[j]])
    frame = [points[pair] for pair in monomial_pairs(source.n)] + [nu.table[unit]]
    scaled = scale_frame(nu.target, frame)
    if scaled is None:
        raise FrameCheckFailed("assembled points do not form a target frame")
    return scaled


def _frame_outcome(build, nu):
    try:
        return build(nu)
    except NotRegular as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2)])
def test_q_frame_matches_literal_frame(n, q):
    # the same basis, or the same first refusal, on every gate table
    outcomes = []
    for nu in _frame_gate_maps(n, q):
        got = _frame_outcome(build_Q_frame, nu)
        assert got == _frame_outcome(_literal_frame, nu)
        outcomes.append(got)
    assert sum(type(o) is list for o in outcomes) >= 3  # the accepted tables
    assert any(type(o) is tuple for o in outcomes)  # some table is refused


def _assert_probe_block_is_per_probe_solves(space, scaled, images):
    block = embeddings._probe_block(space, scaled, images)
    assert list(zip(*block)) == [
        linalg.solve_columns(space.field, scaled, images[(1, t) + (0,) * (space.n - 1)])
        for t in space.field.elements()
    ]


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2)])
def test_probe_block_matches_per_probe_solves(n, q):
    framed = 0
    for nu in _frame_gate_maps(n, q):
        try:
            scaled = build_Q_frame(nu)
        except NotRegular:
            continue
        framed += 1
        _assert_probe_block_is_per_probe_solves(nu.source, scaled, nu.table)
    assert framed > 3  # more than the accepted tables


@pytest.mark.parametrize("q", [4, 8, 9])
def test_probe_block_matches_per_probe_solves_in_semilinear_fits(q):
    # the _fit_semilinear inputs of a collineation with alpha != 0
    space = space_for(2, q)
    for alpha in range(1, space.field.k):
        for seed in range(3):
            sigma = random_semilinear(space, SplitMix64(seed), alpha)
            coords_of = dict(zip(space.points(), sigma.images(space.points())))
            scaled = scale_frame(space, [coords_of[u] for u in standard_frame(space)])
            _assert_probe_block_is_per_probe_solves(space, scaled, coords_of)
            fitted = embeddings._fit_semilinear(space, coords_of)
            assert fitted.alpha == alpha
            assert _equal_up_to_scalar(space.field, fitted.matrix, sigma.matrix)


def test_reconstruction_elimination_count(monkeypatch):
    # A certified table costs one elimination: `_fit_kappa` solves the
    # scalar images and, when q is not prime, the automorphism probes
    # against the basis images in one `rref`, and the certificate makes
    # none, and no Q-frame is built.  So a warm reconstruction, with the
    # point lists and the Veronese map cached, makes 1 elimination
    # whatever n and q are, and the verdicts of `is_regular` and reduced
    # verification share it.
    calls = 0
    rref = linalg.rref

    def counted(*args):
        nonlocal calls
        calls += 1
        return rref(*args)

    monkeypatch.setattr(linalg, "rref", counted)
    counts = {}
    for n, q in [(2, 3), (2, 8), (2, 9), (3, 2), (3, 3), (4, 2)]:
        nu, _ = veronese_kappa_map(n, q, 1)
        reconstruct_kappa(nu)  # warms the caches
        calls = 0
        reconstruct_kappa(PointMap(nu.source, nu.target, nu.table))
        counts[n, q] = calls
        calls = 0
        fresh = PointMap(nu.source, nu.target, nu.table)
        assert is_regular(fresh) and is_quadratic_embedding(fresh).path == "certificate"
        reconstruct_kappa(fresh)
        assert calls == 1
    assert counts == {(2, 3): 1, (2, 8): 1, (2, 9): 1, (3, 2): 1, (3, 3): 1, (4, 2): 1}


def _equal_up_to_scalar(field, a, b):
    """Some nonzero c has c * a == b, entry by entry."""
    return any(
        all(field.mul(c, x) == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))
        for c in range(1, field.q)
    )


def test_reconstruct_veronese_gives_identity():
    rec = reconstruct_kappa(veronese_point_map(2, 3))
    assert rec.alpha == 0
    size = len(rec.kappa.matrix)
    ident = tuple(tuple(1 if j == i else 0 for j in range(size)) for i in range(size))
    assert _equal_up_to_scalar(rec.kappa.space.field, rec.kappa.matrix, ident)
    assert rec.points_checked == 13


@pytest.mark.parametrize("q", [3, 4, 5, 9])
def test_reconstruct_recovers_kappa(q):
    for seed in range(10):
        nu, kappa0 = veronese_kappa_map(2, q, seed)
        rec = reconstruct_kappa(nu)
        assert rec.kappa.space == kappa0.space
        assert _equal_up_to_scalar(kappa0.space.field, rec.kappa.matrix, kappa0.matrix)
        assert rec.alpha == kappa0.alpha


def test_reconstruct_frame_injection():
    for seed in range(5):
        nu = frame_injection_map(seed)
        rec = reconstruct_kappa(nu)
        assert rec.points_checked == 7


def test_reconstruct_rejects_broken():
    from pgtool import broken_map

    for seed in range(5):
        nu = broken_map(2, 3, seed)
        with pytest.raises((NotRegular, VerificationFailed)):
            reconstruct_kappa(nu)


@pytest.mark.parametrize("n, q", [(2, 3), (2, 4), (3, 2)])
def test_certificate_witness_is_first_literal_mismatch(n, q):
    ver = veronese_for(space_for(n, q))
    failed = 0
    for seed in range(12):
        nu = broken_map(n, q, seed)
        kappa = embeddings._fit_kappa(nu)
        try:
            reconstruct_kappa(nu)
        except FrameCheckFailed:
            assert kappa is None
            continue  # no kappa, so no certificate
        except VerificationFailed as exc:
            witness = exc.point
        else:
            pytest.fail(f"broken table {seed} certified")
        assert witness == next(
            x for x in nu.source.points() if kappa.apply(ver.apply(x)) != nu.table[x]
        )
        failed += 1
    assert failed  # the certificate itself rejected some table
    for seed in range(3):
        nu, _ = veronese_kappa_map(n, q, seed)
        assert reconstruct_kappa(nu).points_checked == nu.source.point_count


@pytest.mark.parametrize("n, q", [(2, 3), (2, 4), (3, 2)])
def test_certificate_stops_at_first_mismatch(n, q, monkeypatch):
    # the certificate compares the whole kappa rho table, once per table,
    # and its refusal names the first mismatch in points() order: on one
    # fresh table, is_regular, reduced verification and two
    # reconstructions make one kappa_rho call when the fit gives a kappa
    # and none when it does not
    calls = 0
    kappa_rho = embeddings.kappa_rho

    def counted(source, kappa):
        nonlocal calls
        calls += 1
        return kappa_rho(source, kappa)

    ver = veronese_for(space_for(n, q))
    pts = ver.source.points()
    monkeypatch.setattr(embeddings, "kappa_rho", counted)
    fitted = unfitted = 0
    for gate in [make(n, q, s) for make in (broken_map, _swapped_map) for s in range(12)]:
        kappa = embeddings._fit_kappa(gate)
        nu = PointMap(gate.source, gate.target, dict(gate.table))
        calls = 0
        is_regular(nu)
        is_quadratic_embedding(nu)
        refusals = [_reconstruction_outcome(reconstruct_kappa, nu) for _ in range(2)]
        if kappa is None:
            assert calls == 0
            assert refusals[0] == refusals[1] and refusals[0][0] is FrameCheckFailed
            unfitted += 1
            continue
        assert calls == 1
        first = next(x for x in pts if kappa.apply(ver.apply(x)) != gate.table[x])
        assert refusals == [(VerificationFailed, f"certificate fails at {first}", first)] * 2
        fitted += 1
    assert fitted and unfitted
    nu, _ = veronese_kappa_map(n, q, 0)
    fresh = PointMap(nu.source, nu.target, dict(nu.table))
    calls = 0
    assert is_regular(fresh) and is_quadratic_embedding(fresh).path == "certificate"
    assert reconstruct_kappa(fresh).points_checked == len(pts) and calls == 1


@pytest.mark.parametrize(
    "n, q",
    [(1, 2), (1, 3), (1, 4), (1, 8), (1, 9), (1, 16), (1, 121), (1, 125), (1, 128), (1, 243),
     (1, 251), (1, 256), (2, 2), (2, 3), (2, 4), (2, 5), (2, 7), (2, 8), (2, 9), (2, 16),
     (2, 27), (2, 32), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2)],
)
def test_kappa_rho_is_the_literal_composition(n, q, monkeypatch):
    # every point, every Frobenius twist, against kappa.apply(rho(x)); each
    # kappa_rho call is one kernel call and no per-point product.  GF(251)
    # sums past a byte lane, GF(121), GF(125) and GF(243) add base-p digits
    ver = veronese_for(space_for(n, q))
    pts, _ = ver.source.points(), ver.columns  # rho(P) and its columns, before the count
    calls = {}

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] = calls.get(fn.__name__, 0) + 1
            return fn(*args)
        return wrapper

    for alpha in ver.source.field.automorphism_exponents():
        kappa = random_semilinear(ver.target, SplitMix64(q + n + alpha), alpha)
        literal = [kappa.apply(ver.apply(x)) for x in pts]
        calls.clear()
        with monkeypatch.context() as patched:
            for name in ("canonical_products", "mat_vec", "canonical"):
                patched.setattr(linalg, name, counted(getattr(linalg, name)))
            images = embeddings.kappa_rho(ver.source, kappa)
        assert calls == {"canonical_products": 1}
        assert images == literal


@pytest.mark.parametrize(
    "n, q",
    [(2, 2), (2, 3), (2, 4), (2, 5), (2, 7), (2, 8), (2, 9), (3, 2), (3, 3), (3, 4), (4, 2), (5, 2)],
)
def test_fit_kappa_is_the_q_frame_on_kappa_rho_tables(n, q):
    # the fit's columns are build_Q_frame's basis, entry for entry, and
    # its alpha is recover_automorphism's, for every Frobenius twist
    alphas = set()
    for nu in _kappa_rho_gate_maps(n, q):
        kappa = embeddings._fit_kappa(nu)
        scaled = build_Q_frame(nu)
        assert list(linalg.transpose(kappa.matrix)) == scaled
        assert kappa.alpha == recover_automorphism(nu, scaled)
        alphas.add(kappa.alpha)
    assert alphas == set(space_for(n, q).field.automorphism_exponents())


def _reconstruction_outcome(reconstruct, nu):
    try:
        rec = reconstruct(nu)
    except PgtoolError as exc:
        return type(exc), str(exc), getattr(exc, "point", None)
    return rec.kappa.matrix, rec.alpha, rec.points_checked


def _paper_kappa(nu):
    """The paper's reconstruction spelled out: the Q-frame, the probe
    exponent, the collineation they give, and a literal comparison of its
    composition with the Veronese map at every point; None when a step
    refuses or the comparison fails."""
    try:
        scaled = build_Q_frame(nu)
        alpha = recover_automorphism(nu, scaled)
    except NotRegular:
        return None
    kappa = SemilinearMap(nu.target, linalg.transpose(scaled), alpha)
    ver = veronese_for(nu.source)
    if any(kappa.apply(ver.apply(x)) != nu.table[x] for x in nu.source.points()):
        return None
    return kappa


@pytest.mark.parametrize(
    "n, q", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 7), (2, 8), (2, 9), (3, 2), (3, 3), (3, 4), (4, 2)]
)
def test_fit_certifies_exactly_what_the_q_frame_certifies(n, q):
    # the paper path is the oracle for which tables are certified, with
    # which kappa; a refused table raises FrameCheckFailed exactly when the
    # fit gives no kappa, and otherwise VerificationFailed at the first
    # point of D, which is the literal mismatch set in points() order
    ver = veronese_for(space_for(n, q))
    pts = ver.source.points()
    maps = [
        make(n, q, s) for make in (broken_map, _swapped_map, _sampled_injection) for s in range(4)
    ]
    if (n, q) == (2, 2):
        maps += [frame_injection_map(s) for s in range(5, 15)]
    maps += _kappa_rho_gate_maps(n, q)
    certified = 0
    for nu in maps:
        paper = _paper_kappa(nu)
        kappa = embeddings._fit_kappa(nu)
        outcome = _reconstruction_outcome(reconstruct_kappa, nu)
        assert _reconstruction_outcome(reconstruct_kappa, nu) == outcome
        if paper is not None:
            assert outcome == (paper.matrix, paper.alpha, len(pts))
            certified += 1
        elif kappa is None:
            assert nu._fit == (None, None)
            assert outcome == (
                FrameCheckFailed,
                "the images of the points with 0/1 coordinates fit no collineation",
                None,
            )
        else:
            d = [x for x in pts if kappa.apply(ver.apply(x)) != nu.table[x]]
            assert d and nu._fit == (kappa, set(d))  # the fit certifies no table the paper refuses
            assert outcome == (VerificationFailed, f"certificate fails at {d[0]}", d[0])
    assert 0 < certified < len(maps)


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)])
def test_each_table_is_fitted_once(n, q, monkeypatch):
    # is_regular, reduced verification and two reconstructions on one
    # fresh table read one fit and, when it gives a kappa, one kappa rho
    # table; a refused table's second reconstruction raises the first
    # one's type, message and point
    fit_kappa, fitted = embeddings._fit_kappa, []
    monkeypatch.setattr(embeddings, "_fit_kappa", lambda nu: fitted.append(nu) or fit_kappa(nu))
    kappa_rho, composed = embeddings.kappa_rho, []
    monkeypatch.setattr(
        embeddings, "kappa_rho", lambda source, kappa: composed.append(kappa) or kappa_rho(source, kappa)
    )
    refusals = []
    for gate in _kappa_rho_gate_maps(n, q) + _refused_gate_maps(n, q):
        nu = PointMap(gate.source, gate.target, dict(gate.table))
        del fitted[:], composed[:]
        is_regular(nu)
        is_quadratic_embedding(nu)
        first = _reconstruction_outcome(reconstruct_kappa, nu)
        assert _reconstruction_outcome(reconstruct_kappa, nu) == first
        assert fitted == [nu]
        assert composed == ([] if nu._fit[0] is None else [nu._fit[0]])
        if type(first[0]) is not tuple:  # a refusal type, not a matrix
            refusals.append(first)
    assert refusals


def test_certificate_refusals_are_not_regular():
    for cls in (FrameCheckFailed, NoUniqueUnisecant, NoAutomorphismMatch):
        assert issubclass(cls, NotRegular) and not issubclass(cls, UsageError)
    # a table the fit refuses is refused as not regular
    with pytest.raises(FrameCheckFailed):
        reconstruct_kappa(broken_map(2, 3, 2))


def test_reconstruct_rejects_foreign_target():
    src = space_for(2, 2)
    tgt = space_for(5, 4)
    table = {p: p + (0, 0, 0) for p in src.points()}
    nu = PointMap(src, tgt, table)
    with pytest.raises(ForeignTarget):
        reconstruct_kappa(nu)


def test_reconstruct_rejects_line_source():
    nu = veronese_point_map(1, 3)
    with pytest.raises(DimensionMismatch):
        reconstruct_kappa(nu)


def test_generated_embeddings_verify_and_are_regular():
    # reduced mode certifies these tables, so even q = 9, where a full
    # scan would exceed REDUCED_CAP, is decided
    for q in (2, 3, 4, 5, 9):
        for seed in range(3):
            nu, _ = veronese_kappa_map(2, q, seed)
            report = is_quadratic_embedding(nu, mode="reduced")
            assert report.is_embedding and report.path == "certificate"
    for seed in range(3):
        nu, _ = veronese_kappa_map(2, 9, seed)
        assert is_regular(nu)


def _literal_random_complement(space, sub, rng):
    # the draw loop as first written: test for room, then draw
    pts = space.points()
    rows = list(sub.rows)
    added = []
    need = space.n + 1 - len(rows)
    while len(added) < need:
        cand = pts[rng.randbelow(len(pts))]
        if linalg.rank(space.field, rows + added + [cand]) > len(rows) + len(added):
            added.append(cand)
    return space.span(added)


def _literal_default_complement(space, sub):
    rows = list(sub.rows)
    added = []
    for i in range(space.n + 1):
        unit = tuple(1 if j == i else 0 for j in range(space.n + 1))
        if linalg.rank(space.field, rows + added + [unit]) > len(rows) + len(added):
            added.append(unit)
    return space.span(added)


@pytest.mark.parametrize("n,q", [(5, 2), (3, 3), (2, 4), (2, 3), (3, 2)])
def test_complements_draw_like_literal_loops(n, q):
    # a shared rng must leave each complement in the state the literal
    # loop leaves it, so later draws (prop-h2 shares one rng) agree.
    # For n <= 3 the hyperplane images of the Veronese map of PG(n, q)
    # are complemented too, in turn from one rng per seed, as prop-h2
    # draws them; the Veronese target of PG(5, 2) is too large to list.
    space = space_for(n, q)
    pts = space.points()
    pick = SplitMix64(7)
    subs = [space.span([]), space.span(pts), space.span([pts[0]])]
    for size in range(2, n + 1):
        subs.append(space.span([pts[pick.randbelow(len(pts))] for _ in range(size)]))
    for seed, sub in enumerate(subs):
        ours, theirs = SplitMix64(seed), SplitMix64(seed)
        assert random_complement(space, sub, ours) == _literal_random_complement(
            space, sub, theirs
        )
        assert ours.next_u64() == theirs.next_u64()
        assert embeddings.default_complement(space, sub) == _literal_default_complement(
            space, sub
        )
    if n > 3:
        return
    nu = veronese_point_map(n, q)
    target = nu.target
    bases = [target.span([nu.table[x] for x in h.points()]) for h in nu.source.hyperplanes()]
    for seed in range(3):
        ours, theirs = SplitMix64(seed), SplitMix64(seed)
        for base in bases:
            assert random_complement(target, base, ours) == _literal_random_complement(
                target, base, theirs
            )
            assert ours.state == theirs.state
