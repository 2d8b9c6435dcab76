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
    nu_T,
    random_complement,
    random_semilinear,
    reconstruct_kappa,
    recover_automorphism,
    space_for,
    unisecants_at,
    veronese_for,
    veronese_kappa_map,
    veronese_point_map,
)
from pgtool import embeddings, linalg
from pgtool.errors import (
    DimensionMismatch,
    FieldMismatch,
    ForeignTarget,
    FrameCheckFailed,
    InvalidPointMap,
    ModeInfeasible,
    NoAutomorphismMatch,
    NotComplementary,
    NoUniqueUnisecant,
    NotRegular,
    NotTotal,
    UsageError,
    VerificationFailed,
)
from pgtool.generate import compose_with_veronese
from pgtool.projective import SemilinearMap
from pgtool.quadrics import _context_for
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

    def no_certificate(nu):
        raise NotRegular("no certificate in this test")

    monkeypatch.setattr(embeddings, "reconstruct_kappa", no_certificate)


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


def test_reduced_scan_reads_closures_over_the_source_field(monkeypatch):
    # the Veronese table of PG(2,4) read in PG(5,16) is a quadratic
    # embedding, as ranks do not change under field extension; its
    # closures must be computed over GF(4), and no subset may violate
    big = space_for(5, 16)
    f16 = big.field
    omega = next(w for w in f16.elements() if f16.add(f16.mul(w, w), f16.add(w, 1)) == 0)
    into16 = [0, 1, omega, f16.add(omega, 1)]  # the GF(4) codes 0, 1, x, x + 1
    base = veronese_point_map(2, 4)
    table = {x: tuple(into16[c] for c in y) for x, y in base.table.items()}
    monkeypatch.setattr(embeddings, "REDUCED_CAP", 3000)
    with pytest.raises(ModeInfeasible):  # the budget runs out before any witness
        is_quadratic_embedding(PointMap(base.source, big, table))


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
        if plane.dim != 2 or not is_arc(nu.target, imgs, plane):
            return False
        arc = PlaneArc(plane, frozenset(imgs))
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


def _regularity_gate_maps(n, q):
    """Tables of the form kappa rho, and tables that are not."""
    ver = veronese_for(space_for(n, q))
    kappa_rho = [veronese_kappa_map(n, q, s)[0] for s in range(2)]
    # every Frobenius twist, so GF(4) gets alpha = 1
    kappa_rho += [
        compose_with_veronese(ver, random_semilinear(ver.target, SplitMix64(7), alpha))
        for alpha in ver.source.field.automorphism_exponents()
    ]
    if (n, q) == (2, 2):
        kappa_rho += [frame_injection_map(s) for s in range(5)]
    others = [broken_map(n, q, s) for s in range(3)]
    others += [_random_injection(n, q, s) for s in range(3)]
    return kappa_rho, others


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
    ver = veronese_for(space_for(2, 4))
    from pgtool import SemilinearMap

    size = ver.target.n + 1
    ident = tuple(tuple(1 if j == i else 0 for j in range(size)) for i in range(size))
    twist = SemilinearMap(ver.target, ident, 1)
    nu = PointMap.from_function(
        ver.source, ver.target, lambda x: twist.apply(ver.apply(x))
    )
    hyper = ver.source.span([(0, 1, 0), (0, 0, 1)])
    beta = extend_beta(nu, hyper)
    assert beta.map.alpha == 1


def test_extend_beta_q2():
    nu = veronese_point_map(2, 2)
    hyper = nu.source.span([(0, 1, 0), (0, 0, 1)])
    beta = extend_beta(nu, hyper)
    assert beta.map.alpha == 0
    assert len(beta.table) == 7


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
        quotients.append(nu_T(nu, hyper, beta))
    assert len(h_images) == 1
    assert quotients[0] == quotients[1]


def test_nu_t_bijection():
    nu, src, tgt, hyper, eprime = _tee_setup()
    beta = extend_beta(nu, hyper, eprime)
    quotient = nu_T(nu, hyper, beta)
    values = set(quotient.values())
    assert len(values) == len(src.points())
    base = tgt.span([nu.table[x] for x in hyper.points()])
    for sub in values:
        assert sub.dim == base.dim + 1
        assert base.is_subspace_of(sub)


# -- distinguished frame and reconstruction ----------------------------------


def test_q_frame_of_veronese_is_standard():
    for q in (2, 3, 4):
        nu = veronese_point_map(2, q)
        data = build_Q_frame(nu)
        dim = nu.target.n + 1
        for flat, pair in enumerate(monomial_pairs(2)):
            unit = tuple(1 if j == flat else 0 for j in range(dim))
            assert data.q_points[pair] == unit
        assert data.e_point == tuple(1 for _ in range(dim))


def test_q_frame_equivariance_under_projective_kappa():
    ver = veronese_for(space_for(2, 3))
    rng = SplitMix64(17)
    kappa = random_semilinear(ver.target, rng, alpha=0)
    nu = PointMap.from_function(
        ver.source, ver.target, lambda x: kappa.apply(ver.apply(x))
    )
    base = build_Q_frame(veronese_point_map(2, 3))
    twisted = build_Q_frame(nu)
    for pair in monomial_pairs(2):
        assert twisted.q_points[pair] == kappa.apply(base.q_points[pair])
    assert twisted.e_point == kappa.apply(base.e_point)


def test_recover_automorphism():
    nu = veronese_point_map(2, 3)
    assert recover_automorphism(nu, build_Q_frame(nu)) == 0
    nu22 = veronese_point_map(2, 2)
    assert recover_automorphism(nu22, build_Q_frame(nu22)) == 0
    ver = veronese_for(space_for(2, 4))
    from pgtool import SemilinearMap

    size = ver.target.n + 1
    ident = tuple(tuple(1 if j == i else 0 for j in range(size)) for i in range(size))
    twist = SemilinearMap(ver.target, ident, 1)
    nu4 = PointMap.from_function(
        ver.source, ver.target, lambda x: twist.apply(ver.apply(x))
    )
    assert recover_automorphism(nu4, build_Q_frame(nu4)) == 1


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
    failed = 0
    for seed in range(12):
        nu = broken_map(n, q, seed)
        try:
            reconstruct_kappa(nu)
        except NotRegular:
            continue  # refused before the certificate
        except VerificationFailed as exc:
            witness = exc.point
        else:
            pytest.fail(f"broken table {seed} certified")
        frame_data = build_Q_frame(nu)
        alpha = recover_automorphism(nu, frame_data)
        kappa = SemilinearMap(nu.target, linalg.transpose(frame_data.scaled), alpha)
        ver = veronese_for(nu.source)
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
    # each kappa rho image costs one mat_vec call, and no earlier step of
    # the reconstruction makes one
    calls = 0
    mat_vec = linalg.mat_vec

    def counted(*args):
        nonlocal calls
        calls += 1
        return mat_vec(*args)

    monkeypatch.setattr(linalg, "mat_vec", counted)
    pts = space_for(n, q).points()
    stops = []
    for seed in range(12):
        nu = broken_map(n, q, seed)
        calls = 0
        try:
            reconstruct_kappa(nu)
        except VerificationFailed as exc:
            assert calls == 1 + pts.index(exc.point)
            stops.append(calls)
        except NotRegular:
            assert calls == 0  # refused before the certificate
        else:
            pytest.fail(f"broken table {seed} certified")
    assert stops and min(stops) < len(pts)  # some certificate stopped early
    nu, _ = veronese_kappa_map(n, q, 0)
    calls = 0
    assert reconstruct_kappa(nu).points_checked == calls == len(pts)


def test_certificate_refusals_are_not_regular():
    for cls in (FrameCheckFailed, NoUniqueUnisecant, NoAutomorphismMatch):
        assert issubclass(cls, NotRegular) and not issubclass(cls, UsageError)
    # the frame step's own type reaches the caller, with no re-raise
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


@pytest.mark.parametrize("n,q", [(5, 2), (3, 3), (2, 4)])
def test_complements_draw_like_literal_loops(n, q):
    # a shared rng must leave each complement in the state the literal
    # loop leaves it, so later draws (prop-h2 shares one rng) agree
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
