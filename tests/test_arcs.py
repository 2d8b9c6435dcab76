"""Arcs, unisecants, conic recognition, tangent intersections, plane scans."""

from __future__ import annotations

from itertools import combinations

import pytest

from pgtool import (
    PlaneArc,
    SemilinearMap,
    SplitMix64,
    broken_map,
    is_arc,
    is_regular_conic,
    lemma_h6_set,
    random_semilinear,
    segre_scan,
    space_for,
    tangent_meet,
    unisecants_at,
    veronese_for,
    veronese_kappa_map,
)
from pgtool import QuadraticForm, linalg
from pgtool.arcs import _pencil
from pgtool.embeddings import line_arc
from pgtool.veronese import monomial_pairs
from pgtool.projective import _coefficient_reps
from pgtool.errors import (
    DimensionMismatch,
    NoUniqueUnisecant,
    PointNotOnArc,
    PointOutsidePlane,
    SigmaFixesLine,
    SigmaFixesP0,
    SizeCapExceeded,
)


def _conic_points(space):
    """(1, t, t^2) for all t, plus (0, 0, 1)."""
    field = space.field
    pts = [(1, t, field.mul(t, t)) for t in field.elements()]
    pts.append((0, 0, 1))
    return [space.normalize(p) for p in pts]


def _plane_arc(space, points):
    """Arc carried by the span of its points, which must be a plane."""
    pts = [space.normalize(p) for p in points]
    return PlaneArc(space.span(pts), frozenset(pts))


def test_is_arc_examples():
    space = space_for(2, 3)
    plane = space.full_subspace()

    def arc_in_plane(pts):
        return is_arc(PlaneArc(plane, frozenset(pts)))

    triangle = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert arc_in_plane(triangle)
    conic = _conic_points(space)
    assert len(set(conic)) == space.field.q + 1 and arc_in_plane(conic)
    assert not arc_in_plane([(0, 1, 0), (0, 0, 1), (0, 1, 1)])
    # two representatives of one point are one point
    assert arc_in_plane([(1, 0, 0), (2, 0, 0), (0, 1, 0)])
    # the carrier is checked before its points
    line = space.span([(1, 0, 0), (0, 1, 0)])
    with pytest.raises(DimensionMismatch):
        PlaneArc(line, frozenset(triangle))
    with pytest.raises(DimensionMismatch):
        PlaneArc(line, frozenset([(1, 0, 0), (0, 1, 0)]))
    solid = space_for(3, 3)
    plane_in_solid = solid.span([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    with pytest.raises(PointOutsidePlane):
        PlaneArc(plane_in_solid, frozenset([(1, 0, 0, 0), (0, 0, 0, 1)]))


@pytest.mark.parametrize("q", [3, 4, 5])
def test_plane_arc_coords_read_pivots_in_sorted_order(q):
    # from either constructor, coords maps each point, in sorted order,
    # to its entries at the plane's pivot columns
    nu, _ = veronese_kappa_map(2, q, 1)
    for line in nu.source.lines()[:6]:
        imgs = [nu.table[x] for x in line.points()]
        plane = nu.target.span(imgs)
        expect = [(p, tuple(p[c] for c in plane.pivots)) for p in sorted(imgs)]
        for arc in (PlaneArc(plane, frozenset(imgs)), PlaneArc.from_span(plane, imgs)):
            assert list(arc.coords.items()) == expect


def test_unisecants_on_conic_pg23():
    space = space_for(2, 3)
    arc = _plane_arc(space, _conic_points(space))
    lines = unisecants_at(arc, (1, 0, 0))
    assert len(lines) == 1
    assert lines[0] == space.span([(1, 0, 0), (0, 1, 0)])  # last coordinate zero


def test_unisecant_triangle_fano():
    space = space_for(2, 2)
    arc = _plane_arc(space, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    for vertex in arc.points:
        assert len(unisecants_at(arc, vertex)) == 1
    with pytest.raises(PointNotOnArc):
        unisecants_at(arc, (1, 1, 1))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_conic_has_unique_tangent_everywhere(q):
    space = space_for(2, q)
    arc = _plane_arc(space, _conic_points(space))
    for p in arc.points:
        assert len(unisecants_at(arc, p)) == 1


@pytest.mark.parametrize("q", [2, 3, 4])
def test_conic_is_regular_conic(q):
    space = space_for(2, q)
    arc = _plane_arc(space, _conic_points(space))
    ok, witness = is_regular_conic(arc)
    assert ok
    assert witness is not None
    # the witness vanishes exactly on the arc, in plane coordinates
    field = space.field
    from pgtool.veronese import monomial_pairs

    zeros = set()
    for pt in space.points():
        coords = tuple(pt[c] for c in arc.plane.pivots)  # the plane is all of PG(2, q)
        acc = 0
        for (i, j), c in zip(monomial_pairs(2), witness):
            acc = field.add(acc, field.mul(c, field.mul(coords[i], coords[j])))
        if not acc:
            zeros.add(pt)
    assert zeros == arc.points


def test_subconic_is_not_regular_conic():
    space = space_for(2, 5)
    four = _conic_points(space)[:4]
    arc = _plane_arc(space, four)
    ok, witness = is_regular_conic(arc)
    assert not ok and witness is None  # size 4 != q+1


def test_pointed_conic_with_nucleus_is_not_a_conic():
    # replace one conic point by the tangent concurrence point: still an
    # oval in even characteristic, but no form has exactly that zero set
    space = space_for(2, 8)
    conic = _conic_points(space)
    arc = _plane_arc(space, conic)
    nucleus = tangent_meet(arc, conic[0], conic[1])
    assert nucleus == (0, 1, 0)
    swapped = [p for p in conic if p != (1, 0, 0)] + [nucleus]
    assert len(set(swapped)) == space.field.q + 1 and is_arc(_plane_arc(space, swapped))
    ok, witness = is_regular_conic(_plane_arc(space, swapped))
    assert not ok


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_line_is_not_a_regular_conic(q):
    # a line is the zero set of a repeated linear form and has q+1 points,
    # but it is no arc
    space = space_for(2, q)
    plane = space.full_subspace()
    for line in space.lines():
        assert is_regular_conic(PlaneArc(plane, frozenset(line.points()))) == (False, None)


def _zero_sets(space):
    """The zero set of every plane quadratic form, by literal evaluation."""
    return {
        frozenset(x for x in space.points() if not QuadraticForm(space, coeffs).evaluate(x))
        for coeffs in _coefficient_reps(space.field, 6)
    }


def _literal_regular_conic(arc):
    """The conic search written out with explicit monomials: each
    combination of the basis of forms vanishing on the arc, in
    coefficient order, until one whose zeros, by a literal sum over the
    plane, are the arc."""
    field = arc.plane.space.field
    if len(arc.points) != field.q + 1:
        return False, None
    coords = [tuple(p[c] for c in arc.plane.pivots) for p in sorted(arc.points)]
    if linalg.rank(field, coords) != 3:
        return False, None
    pairs = monomial_pairs(2)
    rows = [tuple(field.mul(c[i], c[j]) for i, j in pairs) for c in coords]
    basis = linalg.nullspace(field, rows, 6)
    if not basis:
        return False, None
    add, mul = field.add, field.mul
    for coeff_rep in _coefficient_reps(field, len(basis)):
        form = [0] * 6
        for c, b in zip(coeff_rep, basis):
            for idx, x in enumerate(b):
                form[idx] = add(form[idx], mul(c, x))
        zeros = set()
        for pt in _coefficient_reps(field, 3):
            acc = 0
            for (i, j), c in zip(pairs, form):
                acc = add(acc, mul(c, mul(pt[i], pt[j])))
            if not acc:
                zeros.add(pt)
        if zeros == set(coords):
            return True, tuple(form)
    return False, None


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_is_regular_conic_matches_literal_oracle(q):
    space = space_for(2, q)
    plane = space.full_subspace()
    pts = space.points()
    zero_sets = _zero_sets(space)
    conic = _conic_points(space)
    rng = SplitMix64(100 + q)
    cases = []
    for _ in range(10):
        cases.append([pts[i] for i in rng.sample_indices(len(pts), q + 1)])
        kappa = random_semilinear(space, rng)
        image = [kappa.apply(p) for p in conic]
        off = [p for p in pts if p not in image]
        cases += [image, image[1:] + [off[rng.randbelow(len(off))]]]
    for subset in cases:
        arc = PlaneArc(plane, frozenset(subset))
        ok, witness = is_regular_conic(arc)
        assert (ok, witness) == _literal_regular_conic(arc)
        assert ok == (is_arc(arc) and frozenset(subset) in zero_sets)
        if ok:
            form = QuadraticForm(space, witness)
            assert frozenset(x for x in pts if not form.evaluate(x)) == frozenset(subset)
        else:
            assert witness is None


def test_tangent_meet_examples():
    s23 = space_for(2, 3)
    arc = _plane_arc(s23, _conic_points(s23))
    assert tangent_meet(arc, (1, 0, 0), (0, 0, 1)) == (0, 1, 0)
    assert tangent_meet(arc, (0, 0, 1), (1, 0, 0)) == (0, 1, 0)  # symmetric
    # the meet never lies on the chord through the two points
    for p1, p2 in combinations(sorted(arc.points), 2):
        chord = s23.span([p1, p2])
        assert not chord.contains(tangent_meet(arc, p1, p2))


def test_tangent_meet_on_veronese_line_image():
    # image of the line through the first two unit points: tangents at the
    # image endpoints meet in the unit point of the mixed coordinate
    for q in (2, 3, 4):
        space = space_for(2, q)
        ver = veronese_for(space)
        line = space.span([(1, 0, 0), (0, 1, 0)])
        imgs = [ver.apply(x) for x in line.points()]
        arc = PlaneArc(ver.target.span(imgs), frozenset(imgs))
        meet = tangent_meet(arc, ver.apply((1, 0, 0)), ver.apply((0, 1, 0)))
        assert meet == (0, 1, 0, 0, 0, 0)


def _meet_of_unisecants(arc, p1, p2):
    """Literal oracle: meet of the enumerated unisecants at two arc points."""
    space = arc.plane.space
    (t1,), (t2,) = unisecants_at(arc, p1), unisecants_at(arc, p2)
    return space.normalize(space.meet(t1, t2).rows[0])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_tangent_meet_matches_unisecant_oracle(q):
    space = space_for(2, q)
    arcs = [_plane_arc(space, _conic_points(space))]
    ver = veronese_for(space)
    sample = space.lines()[:: max(1, len(space.lines()) // 4)]
    for line in sample:
        imgs = [ver.apply(x) for x in line.points()]
        arcs.append(PlaneArc(ver.target.span(imgs), frozenset(imgs)))
    # line images as the frame step builds them: of a kappa rho table, and
    # of broken tables on the lines through their moved point, where
    # line_arc also meets images that span no plane
    arcs += filter(None, (line_arc(veronese_kappa_map(2, q, 3)[0], line) for line in sample))
    for seed in range(2):
        nu = broken_map(2, q, seed)
        (moved,) = (x for x, y in nu.table.items() if y != ver.apply(x))
        arcs += filter(None, (line_arc(nu, line) for line in space.lines_through(moved)))
    for arc in arcs:
        pts = sorted(arc.points)
        for p1, p2 in [(pts[0], p) for p in pts[1:]] + [(pts[-1], pts[1])]:
            assert tangent_meet(arc, p1, p2) == _meet_of_unisecants(arc, p1, p2)


def test_tangent_meet_rejects_non_arc():
    space = space_for(2, 3)
    # three collinear points on z = 0 plus (0, 0, 1): from (1, 0, 0) the
    # other three points lie on two of its four lines, leaving two unisecants
    pts = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
    arc = _plane_arc(space, pts)
    assert len(unisecants_at(arc, (1, 0, 0))) == 2
    with pytest.raises(NoUniqueUnisecant):
        tangent_meet(arc, (1, 0, 0), (0, 0, 1))


def test_tangent_concurrence_even_characteristic():
    space = space_for(2, 4)
    conic = _conic_points(space)
    arc = _plane_arc(space, conic)
    meets = {
        tangent_meet(arc, p1, p2) for p1, p2 in combinations(sorted(arc.points), 2)
    }
    assert meets == {(0, 1, 0)}  # all tangents pass through the nucleus


def _cyclic_frobenius_sigma(q):
    space = space_for(2, q)
    matrix = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    return space, SemilinearMap(space, matrix, 1)


def test_lemma_h6_frozen_points_gf4():
    # twisted companion: the intersection set contains three points of the
    # line "first coordinate equals last", computed by hand over GF(4)
    space, sigma = _cyclic_frobenius_sigma(4)
    cset = lemma_h6_set(sigma, (1, 0, 0))
    expected = {(1, 1, 1), (1, 3, 1), (1, 2, 1)}  # codes: 1, w^2=3, w=2
    assert expected <= cset
    assert linalg.rank(space.field, sorted(expected)) == 2


def test_lemma_h6_twisted_parametrization():
    # the set is exactly {(a a^f, a b^f, b b^f)} for the cyclic frobenius map
    for q in (4, 9):
        space, sigma = _cyclic_frobenius_sigma(q)
        field = space.field
        cset = lemma_h6_set(sigma, (1, 0, 0))
        expected = set()
        for a in field.elements():
            for b in field.elements():
                if a == b == 0:
                    continue
                fa, fb = field.frobenius(a, 1), field.frobenius(b, 1)
                expected.add(
                    space.normalize(
                        (field.mul(a, fa), field.mul(a, fb), field.mul(b, fb))
                    )
                )
        assert cset == expected


def _has_collinear_triple(space, pts):
    return any(
        linalg.rank(space.field, list(t)) <= 2 for t in combinations(sorted(pts), 3)
    )


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_is_arc_matches_triple_oracle_on_random_subsets(q):
    space = space_for(2, q)
    plane = space.full_subspace()
    pts = space.points()
    rng = SplitMix64(100 + q)
    verdicts = set()
    for _ in range(100):
        size = 3 + rng.randbelow(q + 1)
        subset = [pts[i] for i in rng.sample_indices(len(pts), size)]
        got = is_arc(PlaneArc(plane, frozenset(subset)))
        assert got == (not _has_collinear_triple(space, subset))
        verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("q", [2, 3, 4])
def test_is_arc_matches_triple_oracle_in_line_image_planes(q):
    # carrier planes of line images in PG(5, q), and random point sets in them
    rng = SplitMix64(200 + q)
    pivots, verdicts = set(), set()
    for nu in (veronese_kappa_map(2, q, q)[0], broken_map(2, q, q)):
        for line in nu.source.lines():
            imgs = [nu.table[x] for x in line.points()]
            plane = nu.target.span(imgs)
            if plane.dim != 2:
                continue
            pivots.add(plane.pivots)
            plane_pts = plane.points()
            sampled = [plane_pts[i] for i in rng.sample_indices(len(plane_pts), 4)]
            for pts in (imgs, sampled):
                got = is_arc(PlaneArc(plane, frozenset(pts)))
                assert got == (not _has_collinear_triple(nu.target, pts))
                verdicts.add(got)
    assert pivots - {(0, 1, 2)}
    assert verdicts == {True, False}


@pytest.mark.parametrize("q", [4, 9])
def test_lemma_h6_dichotomy_sampled(q):
    space = space_for(2, q)
    pts = space.points()
    rng = SplitMix64(q)
    done_proj = done_twist = 0
    while done_proj < 10 or done_twist < 10:
        alpha = 0 if done_proj < 10 else 1
        p0 = pts[rng.randbelow(len(pts))]
        sigma = random_semilinear(space, rng, alpha=alpha)
        p2 = sigma.apply(p0)
        if p2 == p0:
            continue
        joining = space.span((p0, p2))
        a, b = joining.rows
        if space.span((sigma.apply(a), sigma.apply(b))) == joining:
            continue
        cset = lemma_h6_set(sigma, p0)
        if alpha == 0:
            assert not _has_collinear_triple(space, cset)
            # the stronger direction: the set is an entire conic
            ok, _ = is_regular_conic(_plane_arc(space, cset))
            assert ok
            done_proj += 1
        else:
            assert _has_collinear_triple(space, cset)
            done_twist += 1


def test_lemma_h6_rejects_bad_sigma():
    space = space_for(2, 3)
    ident = SemilinearMap(space, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), 0)
    with pytest.raises(SigmaFixesP0):
        lemma_h6_set(ident, (1, 0, 0))
    # swap of the outer coordinates moves (1,0,0) to (0,0,1) but fixes the line
    swap = SemilinearMap(space, ((0, 0, 1), (0, 1, 0), (1, 0, 0)), 0)
    with pytest.raises(SigmaFixesLine):
        lemma_h6_set(swap, (1, 0, 0))


def _literal_lemma_h6_set(sigma, p0):
    """`lemma_h6_set` by spans and `meet`: the joining line, then each
    line through p0, its image and their meet."""
    space = sigma.space
    p0 = space.normalize(p0)
    p2 = sigma.apply(p0)
    if p2 == p0:
        raise SigmaFixesP0(f"collineation fixes {p0}")
    joining = space.span((p0, p2))
    if space.span(tuple(sigma.images(joining.rows))) == joining:
        raise SigmaFixesLine("collineation fixes the joining line")
    out = set()
    for line in space.lines_through(p0):
        image = space.span(tuple(sigma.images(line.rows)))
        if image == line:
            continue
        meet = space.meet(line, image)
        if meet.dim == 0:
            out.add(meet.rows[0])
    return frozenset(out)


def _h6_outcome(construct, sigma, p0):
    try:
        return construct(sigma, p0)
    except (SigmaFixesP0, SigmaFixesLine) as exc:
        return type(exc)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_lemma_h6_set_matches_span_and_meet(q):
    # the cross products give the literal construction's set, and raise
    # on the same draws, at every p0
    space = space_for(2, q)
    rng = SplitMix64(q + 700)
    twists = (0, 1) if space.field.k > 1 else (0,)
    sigmas = [random_semilinear(space, rng, alpha=a) for a in twists for _ in range(2)]
    # the swap of the outer coordinates fixes points and the line x1 = 0
    sigmas.append(SemilinearMap(space, ((0, 0, 1), (0, 1, 0), (1, 0, 0)), 0))
    outcomes = set()
    for sigma in sigmas:
        for p0 in space.points():
            got = _h6_outcome(lemma_h6_set, sigma, p0)
            assert got == _h6_outcome(_literal_lemma_h6_set, sigma, p0), (sigma, p0)
            outcomes.add(got if isinstance(got, type) else frozenset)
    assert outcomes == {frozenset, SigmaFixesP0, SigmaFixesLine}


def test_segre_scan_small():
    r2 = segre_scan(2)
    assert (r2.ovals, r2.conics, r2.non_conic_ovals) == (28, 28, ())
    r3 = segre_scan(3)
    assert (r3.ovals, r3.conics, r3.non_conic_ovals) == (234, 234, ())
    with pytest.raises(SizeCapExceeded):
        segre_scan(11)


def test_oval_counts_match_conic_formula():
    # nondegenerate conic count q^5 - q^2 is classical; the census must agree
    for q in (2, 3, 4, 5, 7, 9):
        report = segre_scan(q)
        assert report.ovals == report.conics == q**5 - q**2
        assert report.non_conic_ovals == ()


def _exhaustive_oval_census(q):
    """Literal oracle: scan every (q+1)-subset of PG(2, q) for ovals.

    Returns the oval and conic counts and the non-conic ovals through the
    fundamental triangle, each sorted, in sorted order.
    """
    space = space_for(2, q)
    pts = space.points()
    npts = len(pts)
    # line_rest[a][b]: points of the line through a and b, minus a and b
    line_rest = [[0] * npts for _ in range(npts)]
    for i, j in combinations(range(npts), 2):
        mask = 0
        for p in space.span((pts[i], pts[j])).points():
            mask |= 1 << space.point_index(p)
        line_rest[i][j] = line_rest[j][i] = mask & ~(1 << i) & ~(1 << j)
    ovals = []
    for combo in combinations(range(npts), q + 1):
        mask = 0
        for i in combo:
            mask |= 1 << i
        good = True
        for ai, a in enumerate(combo):
            rest_a = line_rest[a]
            for b in combo[ai + 1 :]:
                if rest_a[b] & mask:
                    good = False
                    break
            if not good:
                break
        if good:
            ovals.append(tuple(pts[i] for i in combo))
    plane = space.full_subspace()
    non_conic = [
        o for o in ovals if not is_regular_conic(PlaneArc(plane, frozenset(o)))[0]
    ]
    triangle = {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    through_t = sorted(o for o in non_conic if triangle <= set(o))
    return len(ovals), len(ovals) - len(non_conic), tuple(through_t)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_segre_scan_matches_exhaustive_oracle(q):
    report = segre_scan(q)
    got = (report.ovals, report.conics, report.non_conic_ovals)
    assert got == _exhaustive_oval_census(q)


def test_segre_scan_finds_non_conic_ovals_at_q8():
    # each regular hyperoval of PG(2, 8) holds one conic and nine pointed
    # conics, so there are ten ovals per conic
    q = 8
    report = segre_scan(q)
    assert report.conics == q**5 - q**2 == 32704
    assert report.ovals == 10 * report.conics
    assert len(report.non_conic_ovals) == 441
    assert list(report.non_conic_ovals) == sorted(report.non_conic_ovals)
    space = space_for(2, q)
    plane = space.full_subspace()
    for oval in report.non_conic_ovals:
        assert list(oval) == sorted(oval)
        assert {(1, 0, 0), (0, 1, 0), (0, 0, 1)} <= set(oval)
        assert len(set(oval)) == q + 1 and is_arc(PlaneArc(plane, frozenset(oval)))
        assert not is_regular_conic(_plane_arc(space, oval))[0]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_pencil_basis_matches_nullspace(q):
    # the closed-form pencil basis is the canonical basis nullspace returns
    space = space_for(2, q)
    for p in space.points():
        u, v, _ = _pencil(space.field, p, [])
        assert (u, v) == linalg.nullspace(space.field, (p,), 3)
