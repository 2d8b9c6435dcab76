"""Row reduction, null spaces, and solves, cross-checked by enumeration."""

from __future__ import annotations

from itertools import combinations, product

import pytest

from pgtool import SplitMix64, create_field, prime_power
from pgtool import linalg


def _random_matrix(field, rows, cols, rng):
    return [
        tuple(rng.randbelow(field.q) for _ in range(cols)) for _ in range(rows)
    ]


def _rank_oracle(field, rows, cols):
    """Rank as the log-size of the row span, by full enumeration."""
    span = set()
    for coeffs in product(field.elements(), repeat=len(rows)):
        acc = [0] * cols
        for c, row in zip(coeffs, rows):
            for i, x in enumerate(row):
                acc[i] = field.add(acc[i], field.mul(c, x))
        span.add(tuple(acc))
    size = len(span)
    rank = 0
    while field.q**rank < size:
        rank += 1
    assert field.q**rank == size
    return rank


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_rank_matches_enumeration(q):
    field = create_field(*prime_power(q))
    rng = SplitMix64(q)
    for _ in range(25):
        rows = _random_matrix(field, rng.randbelow(4), 3, rng)
        assert linalg.rank(field, rows) == _rank_oracle(field, rows, 3)


def _rank_cases(field, rng):
    """Seeded tall, wide, empty, zero-row and repeated-row matrices."""
    cases = [[], [(0,) * 5], [(0,) * 5] * 4]
    for _ in range(6):
        cases.append(_random_matrix(field, 9, 4, rng))  # tall
        cases.append(_random_matrix(field, 3, 8, rng))  # wide
        rows = _random_matrix(field, 4, 6, rng)
        rows[rng.randbelow(4)] = (0,) * 6
        cases.append(rows)  # a zero row
        row = _random_matrix(field, 1, 6, rng)[0]
        scaled = tuple(field.mul(rng.randbelow(field.q - 1) + 1, x) for x in row)
        cases.append([row, scaled] + _random_matrix(field, 2, 6, rng) + [row])  # repeated rows
        cases.append([row] * 3)
    return cases


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_forward_rank_matches_rref(q):
    # rank stops after forward elimination; the pivots it counts are rref's
    field = create_field(*prime_power(q))
    rng = SplitMix64(q + 300)
    for rows in _rank_cases(field, rng):
        got = linalg.rank(field, rows)
        assert got == len(linalg.rref(field, rows)[0])
        if field.q ** len(rows) <= 4096:  # rank and rref share one loop
            assert got == _rank_oracle(field, rows, len(rows[0]) if rows else 0)


def _subset_rank_cases(field, rng):
    """Seeded tall, wide, zero-row and repeated-row matrices, small
    enough for the enumeration oracle on most index tuples."""
    row = _random_matrix(field, 1, 3, rng)[0]
    scaled = tuple(field.mul(rng.randbelow(field.q - 1) + 1, x) for x in row)
    with_zero = _random_matrix(field, 4, 3, rng)
    with_zero[rng.randbelow(4)] = (0,) * 3
    return [
        [],
        [(0,) * 4] * 3,
        _random_matrix(field, 5, 3, rng),  # tall
        _random_matrix(field, 3, 6, rng),  # wide
        with_zero,
        [row, scaled, (0,) * 3, _random_matrix(field, 1, 3, rng)[0], row],  # repeated rows
    ]


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_subset_ranks_match_rank_on_every_index_tuple(q):
    # one residual walk gives the rank of every subset; each must equal
    # the elimination's rank, and the enumeration's where q^rows <= 4096
    field = create_field(*prime_power(q))
    rng = SplitMix64(q + 600)
    for rows in _subset_rank_cases(field, rng):
        full = linalg.subset_ranks(field, rows, len(rows) + 2)
        assert set(full) == {
            idx for size in range(len(rows) + 1) for idx in combinations(range(len(rows)), size)
        }
        for idx, got in full.items():
            sub = [rows[i] for i in idx]
            assert got == linalg.rank(field, sub), (rows, idx)
            if field.q ** len(idx) <= 4096:
                assert got == _rank_oracle(field, sub, len(sub[0]) if sub else 0), (rows, idx)
        for max_size in (0, 1, 2):
            want = {idx: r for idx, r in full.items() if len(idx) <= max_size}
            assert linalg.subset_ranks(field, rows, max_size) == want


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_rref_canonical_and_idempotent(q):
    field = create_field(*prime_power(q))
    rng = SplitMix64(q + 100)
    for _ in range(25):
        rows = _random_matrix(field, 4, 5, rng)
        pivots, rrows = linalg.rref(field, rows)
        assert list(pivots) == sorted(pivots)
        for k, (c, row) in enumerate(zip(pivots, rrows)):
            assert row[c] == 1
            assert all(other[c] == 0 for i, other in enumerate(rrows) if i != k)
        assert linalg.rref(field, rrows) == (pivots, rrows)
        # row space is preserved
        for row in rows:
            assert linalg.in_rowspace(field, pivots, rrows, row)


@pytest.mark.parametrize("q", [2, 3, 5, 8])
def test_nullspace_is_exact_kernel(q):
    field = create_field(*prime_power(q))
    rng = SplitMix64(q + 200)
    for _ in range(20):
        rows = _random_matrix(field, 3, 4, rng)
        basis = linalg.nullspace(field, rows, 4)
        assert len(basis) == 4 - linalg.rank(field, rows)
        for vec in basis:
            assert all(
                not _dot(field, row, vec) for row in rows
            )
        # every kernel vector is caught (enumeration over the kernel)
        kernel = {
            v
            for v in product(field.elements(), repeat=4)
            if all(not _dot(field, row, v) for row in rows)
        }
        spanned = set()
        for coeffs in product(field.elements(), repeat=len(basis)):
            acc = [0] * 4
            for c, b in zip(coeffs, basis):
                for i, x in enumerate(b):
                    acc[i] = field.add(acc[i], field.mul(c, x))
            spanned.add(tuple(acc))
        assert spanned == kernel


def _dot(field, a, b):
    acc = 0
    for x, y in zip(a, b):
        acc = field.add(acc, field.mul(x, y))
    return acc


@pytest.mark.parametrize("q", [3, 4, 7])
def test_solve_columns(q):
    field = create_field(*prime_power(q))
    rng = SplitMix64(q + 300)
    for _ in range(20):
        cols = [tuple(rng.randbelow(field.q) for _ in range(3)) for _ in range(3)]
        x = [rng.randbelow(field.q) for _ in range(3)]
        target = tuple(
            _dot(field, [cols[j][i] for j in range(3)], x) for i in range(3)
        )
        sol = linalg.solve_columns(field, cols, target)
        assert sol is not None
        rebuilt = tuple(
            _dot(field, [cols[j][i] for j in range(3)], sol) for i in range(3)
        )
        assert rebuilt == target
    # inconsistent system
    assert (
        linalg.solve_columns(field, [(1, 0, 0), (0, 1, 0)], (0, 0, 1)) is None
    )


def _literal_mat_mul(field, a, b):
    return tuple(tuple(_dot(field, row, col) for col in zip(*b)) for row in a)


@pytest.mark.parametrize("q", [2, 3, 9])
def test_matrix_inverse(q):
    # column i of the inverse solves m x = e_i; a singular m leaves some
    # e_i outside its column span
    field = create_field(*prime_power(q))
    rng = SplitMix64(q + 400)
    ident = tuple(
        tuple(1 if i == j else 0 for j in range(3)) for i in range(3)
    )
    found = singular = 0
    while found < 10:
        m = tuple(
            tuple(rng.randbelow(field.q) for _ in range(3)) for _ in range(3)
        )
        cols = linalg.transpose(m)
        inv_cols = [linalg.solve_columns(field, cols, e) for e in ident]
        if linalg.rank(field, m) < 3:
            assert None in inv_cols
            singular += 1
            continue
        found += 1
        inv = linalg.transpose(inv_cols)
        assert _literal_mat_mul(field, m, inv) == ident
        assert _literal_mat_mul(field, inv, m) == ident
    assert singular  # the singular branch was compared too


def _literal_rref(field, rows):
    """Gauss-Jordan elimination through field.add, field.mul and field.inv."""
    mat = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(len(mat[0]) if mat else 0):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        f = field.inv(mat[r][c])
        mat[r] = [field.mul(f, y) for y in mat[r]]
        for i, other in enumerate(mat):
            if i != r:
                g = field.neg(other[c])
                mat[i] = [field.add(x, field.mul(g, y)) for x, y in zip(other, mat[r])]
        pivots.append(c)
        r += 1
    return tuple(pivots), tuple(tuple(row) for row in mat[:r])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_table_arithmetic_matches_literal_field_ops(q):
    # mat_vec, rref and residual index the dense tables directly
    field = create_field(*prime_power(q))
    rng = SplitMix64(q + 500)
    for _ in range(20):
        rows, inner = (1 + rng.randbelow(5) for _ in range(2))
        a = _random_matrix(field, rows, inner, rng)
        vec = tuple(rng.randbelow(field.q) for _ in range(inner))
        assert linalg.mat_vec(field, a, vec) == tuple(_dot(field, row, vec) for row in a)
        pivots, rrows = linalg.rref(field, a)
        assert (pivots, rrows) == _literal_rref(field, a)
        res = linalg.residual(field, pivots, rrows, vec)
        v = list(vec)
        for c, row in zip(pivots, rrows):
            g = field.neg(v[c])
            v = [field.add(x, field.mul(g, y)) for x, y in zip(v, row)]
        assert res == tuple(v)


@pytest.mark.parametrize(
    "q, ncols",
    [(2, 40), (2, 300), (3, 1), (3, 200), (9, 30), (16, 12), (121, 5), (243, 8), (251, 1),
     (251, 2), (251, 40), (251, 200), (256, 6)],
)
def test_canonical_products_matches_mat_vec(q, ncols):
    # lane widths 1, 2 (GF(251), 40 columns: b = 10,000) and 3 (200 columns:
    # b = 50,000 >= 2^15), XOR lanes past 255 terms (GF(2), 300 columns),
    # and 1, 2 and 5 base-p digits.  Row r of the matrix reads
    # only the first (r + 1) ncols / nrows coordinates, and a vector starts
    # with a random number of zeros, so the leads fall in every row that
    # reads a coordinate the rows above it do not
    field = create_field(*prime_power(q))
    rng = SplitMix64(q * 1000 + ncols)
    nrows = 2 + rng.randbelow(7)
    matrix = [
        [x if c < (r + 1) * ncols // nrows else 0 for c, x in enumerate(row)]
        for r, row in enumerate(_random_matrix(field, nrows, ncols, rng))
    ]
    vecs = []
    for _ in range(300):
        zeros = rng.randbelow(ncols)
        vecs.append((0,) * zeros + tuple(rng.randbelow(q) for _ in range(ncols - zeros)))
    vecs = [v for v in vecs if any(linalg.mat_vec(field, matrix, v))]
    columns = [bytes(col) for col in zip(*vecs)]
    want = [linalg.canonical(field, linalg.mat_vec(field, matrix, v)) for v in vecs]
    reads = [(r + 1) * ncols // nrows for r in range(-1, nrows)]
    assert {w.index(1) for w in want} >= {r for r in range(nrows) if reads[r + 1] > reads[r]}
    assert linalg.canonical_products(field, matrix, columns) == want
