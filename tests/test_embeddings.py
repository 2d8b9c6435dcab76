"""Verifier, affine restriction/extension, frames, and reconstruction."""

from __future__ import annotations

import pytest

from pgtool import (
    PlaneArc,
    PointMap,
    SplitMix64,
    broken_map,
    build_iota,
    build_Q_frame,
    check_closure_image,
    closure_points,
    extend_beta,
    is_arc,
    is_quadratic_embedding,
    is_regular,
    is_regular_at,
    frame_injection_map,
    nu_T,
    overnu,
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
from pgtool import linalg
from pgtool.errors import (
    DimensionMismatch,
    FieldMismatch,
    ForeignTarget,
    InvalidPointMap,
    ModeInfeasible,
    NotComplementary,
    NotRegular,
    NotTotal,
    VerificationFailed,
)
from pgtool.veronese import monomial_pairs


# -- point map validation -------------------------------------------------


def test_point_map_rejects_partial_table():
    nu = veronese_point_map(2, 2)
    table = dict(nu.table)
    table.pop(next(iter(table)))
    with pytest.raises(NotTotal):
        PointMap(nu.source, nu.target, table)


def test_point_map_rejects_non_injective():
    nu = veronese_point_map(2, 2)
    table = dict(nu.table)
    keys = list(table)
    table[keys[0]] = table[keys[1]]
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


def test_reduced_agrees_with_exhaustive_on_random_maps():
    cases = [(2, 2, 5, 2), (1, 3, 2, 3)]  # (n, q, n', q')
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
            a = is_quadratic_embedding(nu, mode="exhaustive")
            b = is_quadratic_embedding(nu, mode="reduced")
            assert a.is_embedding == b.is_embedding


def test_sampled_mode_deterministic():
    nu = veronese_point_map(2, 3)
    a = is_quadratic_embedding(nu, mode="sampled", seed=11, trials=40)
    b = is_quadratic_embedding(nu, mode="sampled", seed=11, trials=40)
    assert a == b and a.is_embedding
    with pytest.raises(ModeInfeasible):
        is_quadratic_embedding(nu, mode="sampled")


def test_exhaustive_cap():
    with pytest.raises(ModeInfeasible):
        is_quadratic_embedding(veronese_point_map(2, 4), mode="exhaustive")


def test_check_closure_image():
    nu = veronese_point_map(2, 3)
    src = nu.source
    assert check_closure_image(nu, [(1, 1, 1)])
    line = src.span([(1, 0, 0), (0, 1, 0)]).points()
    assert check_closure_image(nu, line)
    nu4 = veronese_point_map(2, 4)
    pts4 = nu4.source.points()
    rng = SplitMix64(44)
    for _ in range(20):
        size = rng.randbelow(len(pts4) + 1)
        subset = [pts4[i] for i in rng.sample_indices(len(pts4), size)]
        assert check_closure_image(nu4, subset)
    broken = broken_map(2, 3, 0)
    witness = is_quadratic_embedding(broken).violated_set
    assert not check_closure_image(broken, witness)


# -- regularity -------------------------------------------------------------


def test_regularity_of_veronese():
    nu = veronese_point_map(2, 3)
    src = nu.source
    line = src.span([(1, 0, 0), (0, 1, 0)])
    assert is_regular_at(nu, (1, 0, 0), line)
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
        if is_regular_at(nu, point, line):
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


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_is_regular_matches_unisecant_oracle(n, q):
    maps = [veronese_kappa_map(n, q, s)[0] for s in range(2)]
    maps += [broken_map(n, q, s) for s in range(2)]
    verdicts = [is_regular(nu) for nu in maps]
    assert verdicts == [_regular_by_unisecants(nu) for nu in maps]
    assert verdicts[:2] == [True, True]


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
    assert not is_regular_at(wide, (1, 0, 0), line)
    assert is_regular_at(ver, (1, 0, 0), line)


def test_is_regular_at_errors():
    nu = veronese_point_map(2, 3)
    src = nu.source
    line = src.span([(1, 0, 0), (0, 1, 0)])
    from pgtool.errors import NotIncident

    with pytest.raises(NotIncident):
        is_regular_at(nu, (0, 0, 1), line)


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
    assert beta.alpha == 0
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
    assert beta.alpha == 1


def test_extend_beta_q2():
    nu = veronese_point_map(2, 2)
    hyper = nu.source.span([(0, 1, 0), (0, 0, 1)])
    beta = extend_beta(nu, hyper)
    assert beta.alpha == 0
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


def test_overnu_injective_and_preimage_identity():
    for n, q in ((2, 2), (2, 3)):
        nu = veronese_point_map(n, q)
        images = overnu(nu)
        assert len(set(images.values())) == len(images)
        for hp, h_img in images.items():
            assert h_img.dim == nu.target.n - 1
            pre = {x for x in nu.source.points() if h_img.contains(nu.table[x])}
            assert pre == set(hp.points())


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


def test_reconstruct_veronese_gives_identity():
    rec = reconstruct_kappa(veronese_point_map(2, 3))
    assert rec.alpha == 0
    size = len(rec.kappa.matrix)
    ident = tuple(tuple(1 if j == i else 0 for j in range(size)) for i in range(size))
    from pgtool.projective import _scale_matrix

    assert _scale_matrix(rec.kappa.space.field, rec.kappa.matrix) == ident
    assert rec.points_checked == 13


@pytest.mark.parametrize("q", [3, 4, 5, 9])
def test_reconstruct_recovers_kappa(q):
    for seed in range(10):
        nu, kappa0 = veronese_kappa_map(2, q, seed)
        rec = reconstruct_kappa(nu)
        assert rec.kappa.proj_equal(kappa0)
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
    # reduced mode where the subset count stays small; seeded sampling for
    # the larger fields, where even the reduced scan is out of reach
    for q in (2, 3):
        for seed in range(3):
            nu, _ = veronese_kappa_map(2, q, seed)
            assert is_quadratic_embedding(nu, mode="reduced").is_embedding
    for q in (4, 5, 9):
        for seed in range(3):
            nu, _ = veronese_kappa_map(2, q, seed)
            report = is_quadratic_embedding(nu, mode="sampled", seed=seed, trials=60)
            assert report.is_embedding
    for seed in range(3):
        nu, _ = veronese_kappa_map(2, 9, seed)
        assert is_regular(nu)
