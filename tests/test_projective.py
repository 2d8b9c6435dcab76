"""PG(n, q) enumeration, subspace lattice, frames, and collineations."""

from __future__ import annotations

import dataclasses
from itertools import combinations, product

import pytest

from pgtool import (
    ProjectiveSpace,
    SemilinearMap,
    SplitMix64,
    create_field,
    space_for,
    standard_frame,
    veronese_for,
    veronese_point_map,
)
from pgtool import linalg, projective
from pgtool.embeddings import point_map_from_dict, point_map_to_dict
from pgtool.fields import prime_power
from pgtool.projective import scale_frame
from pgtool.errors import (
    DimensionMismatch,
    PointNotInSubspace,
    SingularMatrix,
    SizeCapExceeded,
    SpaceMismatch,
)


def _span_oracle(space, pts):
    """All nonzero linear combinations of the given points, normalized.

    Independent of the row-reduction path: plain coefficient enumeration.
    """
    field = space.field
    out = set()
    for coeffs in product(field.elements(), repeat=len(pts)):
        acc = [0] * (space.n + 1)
        for c, p in zip(coeffs, pts):
            for i, x in enumerate(p):
                acc[i] = field.add(acc[i], field.mul(c, x))
        if any(acc):
            out.add(space.normalize(acc))
    return out


@pytest.mark.parametrize(
    "n,q,count", [(1, 2, 3), (2, 3, 13), (5, 4, 1365), (2, 2, 7), (3, 2, 15)]
)
def test_point_counts(n, q, count):
    space = space_for(n, q)
    pts = space.points()
    assert len(pts) == count == space.point_count
    assert len(set(pts)) == count
    assert pts == sorted(pts)  # lexicographic by codes
    assert all(p[next(i for i, x in enumerate(p) if x)] == 1 for p in pts)


def test_point_enum_cap():
    space = ProjectiveSpace(create_field(2, 4), 5)  # (16^6-1)/15 = 1118481 > 10^6
    with pytest.raises(SizeCapExceeded):
        space.points()


def test_normalize():
    space = space_for(1, 3)
    assert space.normalize((2, 1)) == (1, 2)  # scale by inverse of 2
    with pytest.raises(SpaceMismatch):
        space.normalize((0, 0))


def test_span_examples():
    space = space_for(2, 3)
    assert space.span([]).dim == -1
    assert space.span([(1, 0, 0), (0, 1, 0)]).dim == 1
    conic = [(1, 0, 0), (1, 1, 1), (1, 2, 1), (0, 0, 1)]  # (1,t,t^2) and (0,0,1)
    sub = space.span(conic)
    assert sub.dim == 2
    assert set(sub.points()) == _span_oracle(space, conic)


def test_span_is_closure_operator_fano():
    space = space_for(2, 2)
    pts = space.points()
    spans = {}
    for size in range(len(pts) + 1):
        for subset in combinations(pts, size):
            sub = space.span(subset)
            member = set(sub.points())
            assert set(subset) <= member
            spans[subset] = member
            assert set(space.span(member).points()) == member  # idempotent
    for small, big in spans.items():
        for other, bigger in spans.items():
            if set(small) <= set(other):
                assert big <= bigger  # monotone


def test_span_closure_properties_sampled_pg24():
    space = space_for(2, 4)
    pts = space.points()
    rng = SplitMix64(24)
    for _ in range(50):
        subset = [pts[rng.randbelow(len(pts))] for _ in range(rng.randbelow(5))]
        member = set(space.span(subset).points())
        assert set(subset) <= member
        assert set(space.span(member).points()) == member
        assert member <= set(space.span(subset + [pts[0]]).points())


def _join(space, a, b):
    """The span of two subspaces of `space`."""
    return space.subspace(a.rows + b.rows)


def test_meet_join_examples():
    space = space_for(2, 3)
    l1 = space.span([(1, 0, 0), (0, 1, 0)])
    assert space.meet(l1, l1) == l1
    l2 = space.span([(1, 0, 0), (0, 0, 1)])
    p = space.meet(l1, l2)
    assert p.dim == 0 and p.rows[0] == (1, 0, 0)
    assert _join(space, l1, l2).dim == 2


def test_meet_complementary_plane_example():
    # image span of the line x0 = 0 meets the first coordinate plane trivially
    s23 = space_for(2, 3)
    from pgtool import veronese_for

    ver = veronese_for(s23)
    t_line = s23.span([(0, 1, 0), (0, 0, 1)])
    base = ver.target.span([ver.apply(x) for x in t_line.points()])
    eprime = ver.target.span(
        [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)]
    )
    assert base.dim == 2
    assert ver.target.meet(base, eprime).dim == -1


@pytest.mark.parametrize("n, q", [(1, 2), (2, 3), (3, 4)])
def test_full_subspace_is_the_span_of_every_point(n, q):
    # the same value as the checked span: pivots 0..n and the unit rows
    space = space_for(n, q)
    full = space.full_subspace()
    assert full == space.span(space.points())
    assert full.rows == projective.standard_frame(space)[:-1]
    assert full.points() == tuple(space.points())


def _all_subspaces(space):
    subs = {space.subspace([]), space.full_subspace()}
    pts = space.points()
    for p in pts:
        subs.add(space.span([p]))
    for size in (2, 3):
        for subset in combinations(pts, size):
            subs.add(space.span(subset))
    return subs


def test_grassmann_identity_pg32():
    space = space_for(3, 2)
    subs = _all_subspaces(space)
    assert len(subs) == 67  # 1 + 15 + 35 + 15 + 1
    for a in subs:
        for b in subs:
            j, m = _join(space, a, b), space.meet(a, b)
            assert j.dim + m.dim == a.dim + b.dim


def _meet_by_complements(space, a, b):
    """The literal meet: the null space of the two null spaces' union."""
    n1 = space.n + 1
    pa = linalg.nullspace(space.field, a.rows, n1)
    pb = linalg.nullspace(space.field, b.rows, n1)
    return space.subspace(linalg.nullspace(space.field, pa + pb, n1))


def _random_subspace(space, rng):
    pts = [space.point_at(rng.randbelow(space.point_count)) for _ in range(rng.randbelow(space.n + 2))]
    return space.span(pts)


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2)])
def test_meet_matches_complements_on_every_pair(n, q):
    space = space_for(n, q)
    subs = sorted(_all_subspaces(space), key=lambda s: s.rows)
    for a in subs:
        for b in subs:
            assert space.meet(a, b) == _meet_by_complements(space, a, b)


@pytest.mark.parametrize("n,q", [(3, 3), (2, 4), (2, 9), (5, 3)])
def test_meet_matches_complements_on_random_pairs(n, q):
    space = space_for(n, q)
    rng = SplitMix64(n * 100 + q)
    seen = set()
    for _ in range(60):
        a, c = _random_subspace(space, rng), _random_subspace(space, rng)
        b = _join(space, a, c)
        for x, y, case in [
            (a, c, None),
            (a, a, "equal"),
            (a, b, "contained"),
            (b, a, "contained"),
            (space.subspace([]), c, "empty"),
            (c, space.subspace([]), "empty"),
        ]:
            got = space.meet(x, y)
            assert got == _meet_by_complements(space, x, y)
            if case is None and x.rows and y.rows:
                case = "trivial" if got.dim == -1 else "proper"
            seen.add(case)
    assert {"equal", "contained", "empty", "trivial", "proper"} <= seen


def test_lines_through_and_line_points():
    fano = space_for(2, 2)
    assert len(fano.lines_through((1, 0, 0))) == 3
    s23 = space_for(2, 3)
    assert len(s23.lines_through((1, 1, 1))) == 4
    line = s23.span([(1, 0, 0), (0, 1, 0)])
    assert len(line.points()) == 4
    with pytest.raises(PointNotInSubspace):
        s23.lines_through((0, 0, 1), line)


def _lines_by_pairwise_span(space):
    """Oracle: span every point pair, dedupe by reduced basis, sort."""
    seen = {}
    for p, q in combinations(space.points(), 2):
        line = space.span((p, q))
        seen.setdefault(line.rows, line)
    return [seen[k] for k in sorted(seen)]


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_lines_match_pairwise_span_oracle(n, q):
    space = space_for(n, q)
    lines = space.lines()
    assert lines == _lines_by_pairwise_span(space)
    assert all(line.dim == 1 for line in lines)


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2)])
def test_lines_are_built_once_per_space(n, q):
    built = projective._lines_cached.__wrapped__(space_for(n, q))
    first = space_for(n, q).lines()
    assert first == list(built)
    # a second space object over the same field and n shares the lines
    again = ProjectiveSpace(create_field(*prime_power(q)), n)
    assert again.lines() == first and again.lines()[0] is first[0]
    first.reverse()
    first.append(None)
    assert again.lines() == list(built)


def test_spaces_are_frozen_values():
    space = space_for(2, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        space.n = 3
    again = ProjectiveSpace(create_field(3, 1), 2)
    assert again is not space and again == space and hash(again) == hash(space)
    assert again != space_for(3, 3) and again != space_for(2, 9) and repr(again) == "PG(2,3)"
    with pytest.raises(DimensionMismatch, match=r"^projective dimension must be >= 1, got 0$"):
        ProjectiveSpace(create_field(3, 1), 0)


def test_equal_spaces_share_one_point_table():
    # a space rebuilt from a map file reads the points and index an equal
    # space enumerated, and enumerates nothing itself
    assert space_for(2, 8).points() is space_for(2, 8).points()
    source = veronese_for(space_for(2, 8)).source
    source.points()
    data = point_map_to_dict(veronese_point_map(2, 8))
    built = projective._point_table.cache_info().misses
    nu = point_map_from_dict(data)
    assert nu.source is not source and nu.source.points() is source.points()
    assert [nu.source.point_index(p) for p in nu.source.points()] == list(range(73))
    assert projective._point_table.cache_info().misses == built


def _pencil_by_span_and_dedupe(space, point, inside):
    """Oracle: span the point with every other point of the subspace,
    dedupe by reduced basis, sort."""
    seen = {}
    for x in inside.points():
        if x != space.normalize(point):
            line = space.span((point, x))
            seen.setdefault(line.rows, line)
    return [seen[k] for k in sorted(seen)]


@pytest.mark.parametrize(
    "n, q, rows",
    [
        (2, 3, None),
        (2, 4, None),
        (3, 2, None),
        (3, 3, None),
        # a plane of PG(3,3) whose points lead in columns 0, 1 and 2
        (3, 3, [(1, 2, 0, 1), (0, 1, 1, 0), (0, 0, 1, 2)]),
        # the plane x0 = 0 of PG(3,3): no point leads in column 0
        (3, 3, [(0, 1, 0, 2), (0, 0, 1, 1), (0, 0, 0, 1)]),
        # a solid of PG(4,2)
        (4, 2, [(1, 1, 0, 0, 1), (0, 1, 1, 0, 0), (0, 0, 0, 1, 1), (0, 0, 1, 0, 1)]),
    ],
)
def test_lines_through_matches_span_and_dedupe_oracle(n, q, rows):
    space = space_for(n, q)
    inside = space.span(rows) if rows else None
    sub = inside or space.full_subspace()
    assert sub.dim == (n if rows is None else len(rows) - 1)
    leads = set()
    for point in sub.points():
        leads.add(point.index(1))
        pencil = space.lines_through(point, inside)
        assert pencil == _pencil_by_span_and_dedupe(space, point, sub)
        assert all(line.dim == 1 and line.contains(point) for line in pencil)
    assert leads - {0}  # points leading in a column other than 0 were tested


def _pencil_by_spans(space, point, inside):
    """Oracle: span the point with each point of the section x[j] = 0 of
    the subspace, j the point's leading column, and sort."""
    point = space.normalize(point)
    j = point.index(1)
    return sorted(
        (space.span((point, x)) for x in inside.points() if not x[j]),
        key=lambda line: line.rows,
    )


def _plane_of(space):
    """A plane with points leading in columns 0, 1 and n - 1 (the whole
    space when n = 2)."""
    n = space.n
    if n == 2:
        return space.full_subspace()
    unit = [tuple(int(c == i) for c in range(n + 1)) for i in range(n + 1)]
    add = space.field.add
    rows = [
        tuple(add(add(a, b), c) for a, b, c in zip(unit[0], unit[2], unit[n])),
        tuple(add(a, b) for a, b in zip(unit[1], unit[2])),
        tuple(add(a, b) for a, b in zip(unit[n - 1], unit[n])),
    ]
    return space.span(rows)


@pytest.mark.parametrize(
    "n, q",
    [(2, q) for q in (2, 3, 4, 5, 7, 8, 9)] + [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2)],
)
def test_closed_form_pencils_equal_spanned_pencils(n, q):
    # every point of the space, and every point of a plane inside it;
    # the pencils are compared as subspaces, pivots and rows both
    space = space_for(n, q)
    plane = _plane_of(space)
    assert plane.dim == 2
    full = space.full_subspace()
    for point in space.points():
        assert space.lines_through(point) == _pencil_by_spans(space, point, full)
    for point in plane.points():
        assert space.lines_through(point, plane) == _pencil_by_spans(space, point, plane)
    leads = {point.index(1) for point in plane.points()}
    assert len(leads) == 3  # both k < j and k > j occur inside the plane


def test_pencil_size_in_solid():
    space = space_for(3, 3)
    pencil = space.lines_through((1, 0, 0, 0))
    assert len(pencil) == (3**3 - 1) // 2  # (q^d - 1)/(q - 1), d = 3


def test_points_refuses_a_huge_space_without_counting():
    # q^n >= 2^n, so PG(n, q) with n >= POINT_ENUM_CAP.bit_length() has
    # more points than the cap, and its count is never built
    space = space_for(10**5, 3)
    with pytest.raises(SizeCapExceeded, match="more points than the cap 1000000"):
        space.points()
    assert "point_count" not in space.__dict__


@pytest.mark.parametrize(
    "n, q", [(1, 2), (1, 3), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)]
)
def test_point_at_inverts_point_index(n, q):
    space = space_for(n, q)
    assert [space.point_at(i) for i in range(space.point_count)] == space.points()
    for i in (-1, space.point_count):
        with pytest.raises(SpaceMismatch):
            space.point_at(i)


def test_point_at_beyond_the_enumeration_cap():
    space = space_for(5, 16)
    assert space.point_count > 10**6
    assert space.point_at(0) == (0, 0, 0, 0, 0, 1)
    assert space.point_at(space.point_count - 1) == (1,) + (15,) * 5
    with pytest.raises(SizeCapExceeded):
        space.points()


def test_hyperplane_count():
    for n, q in ((2, 2), (2, 3), (3, 2)):
        space = space_for(n, q)
        hps = space.hyperplanes()
        assert len(hps) == space.point_count
        assert all(h.dim == n - 1 for h in hps)
        assert len(set(hps)) == len(hps)


def _frame_coordinates(space, scaled, point):
    """Coordinates of a point against the scaled frame columns."""
    return linalg.canonical(space.field, linalg.solve_columns(space.field, scaled, point))


def _is_frame_by_subsets(space, points):
    """Literal oracle: n+2 points, any n+1 of them independent."""
    n1 = space.n + 1
    return len(points) == n1 + 1 and all(
        linalg.rank(space.field, list(sub)) == n1 for sub in combinations(points, n1)
    )


def test_standard_frame_coordinates():
    space = space_for(2, 3)
    frame = standard_frame(space)
    scaled = scale_frame(space, list(frame))
    assert scaled == list(frame[:-1])  # the unit columns already sum to (1, 1, 1)
    assert _frame_coordinates(space, scaled, (1, 1, 1)) == (1, 1, 1)
    assert _frame_coordinates(space, scaled, (1, 2, 0)) == (1, 2, 0)
    for i, pt in enumerate(frame[:-1]):
        unit = tuple(1 if j == i else 0 for j in range(3))
        assert _frame_coordinates(space, scaled, pt) == unit


def test_is_frame_negative():
    space = space_for(2, 3)
    assert scale_frame(space, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]) is None
    assert scale_frame(space, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]) is None
    # a repeated point: two equal columns, or the last point equal to one
    assert scale_frame(space, [(1, 0, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1)]) is None
    assert scale_frame(space, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 0)]) is None


@pytest.mark.parametrize("n,q", [(2, 4), (3, 3)])
def test_random_frames_coordinate_normalization(n, q):
    # scale_frame returns None exactly for non-frames, which build_Q_frame
    # relies on; on frames, the scaled columns make the frame standard
    space = space_for(n, q)
    pts = space.points()
    rng = SplitMix64(n * 100 + q)
    found = rejected = 0
    while found < 100:
        idxs = rng.sample_indices(len(pts), n + 2)
        frame = [pts[i] for i in idxs]
        scaled = scale_frame(space, frame)
        assert (scaled is not None) == _is_frame_by_subsets(space, frame)
        if scaled is None:
            rejected += 1
            continue
        found += 1
        ones = tuple(1 for _ in range(n + 1))
        assert _frame_coordinates(space, scaled, frame[-1]) == ones
        for i, pt in enumerate(frame[:-1]):
            unit = tuple(1 if j == i else 0 for j in range(n + 1))
            assert _frame_coordinates(space, scaled, pt) == unit
    assert rejected  # both verdicts were compared with the oracle


@pytest.mark.parametrize("n,q", [(2, 4), (3, 3)])
def test_from_basis_equals_the_checked_constructor(n, q):
    # from_basis skips the checks for scale_frame columns, which are a basis
    space = space_for(n, q)
    pts = space.points()
    rng = SplitMix64(n * 10 + q)
    built = 0
    while built < 20:
        scaled = scale_frame(space, [pts[i] for i in rng.sample_indices(len(pts), n + 2)])
        if scaled is None:
            continue
        for alpha in space.field.automorphism_exponents():
            checked = SemilinearMap(space, linalg.transpose(scaled), alpha)
            assert SemilinearMap.from_basis(space, scaled, alpha) == checked
        built += 1


def test_semilinear_examples():
    s13 = space_for(1, 3)
    ident = SemilinearMap(s13, ((1, 0), (0, 1)), 0)
    assert all(ident.apply(p) == p for p in s13.points())
    swap = SemilinearMap(s13, ((0, 1), (1, 0)), 0)
    # (1,2) -> (2,1), normalized by 2^-1 = 2 back to (1,2)
    assert swap.apply((1, 2)) == (1, 2)
    assert swap.apply((1, 1)) == (1, 1)
    assert swap.apply((0, 1)) == (1, 0)

    s14 = space_for(1, 4)
    frob = SemilinearMap(s14, ((1, 0), (0, 1)), 1)
    assert frob.apply((1, 2)) == (1, 3)  # omega -> omega^2


def test_semilinear_preserves_collinearity():
    space = space_for(2, 4)
    pts = space.points()
    rng = SplitMix64(7)
    from pgtool import random_semilinear

    kappa = random_semilinear(space, rng)
    field = space.field
    for _ in range(1000):
        triple = [pts[rng.randbelow(len(pts))] for _ in range(3)]
        before = linalg.rank(field, triple)
        after = linalg.rank(field, [kappa.apply(p) for p in triple])
        assert before == after


def test_semilinear_rejects_singular():
    space = space_for(1, 3)
    with pytest.raises(SingularMatrix):
        SemilinearMap(space, ((1, 2), (2, 1)), 0)  # det = 1 - 4 = 0 mod 3


@pytest.mark.parametrize(
    "matrix, alpha",
    [
        (((-1, 0, 0), (0, 1, 0), (0, 0, 1)), 0),
        (((7, 0, 0), (0, 1, 0), (0, 0, 1)), 0),
        (((1.0, 0, 0), (0, 1, 0), (0, 0, 1)), 0),
        (((1, 0, 0), (0, 1, 0), (0, 0, 1)), 1.0),
    ],
    ids=["negative-code", "code-out-of-range", "float-code", "float-alpha"],
)
def test_semilinear_rejects_malformed_entries(matrix, alpha):
    # over GF(4): -1 would index the field tables as code 3
    with pytest.raises(SpaceMismatch):
        SemilinearMap(space_for(2, 4), matrix, alpha)
