"""Dense exact linear algebra over a finite field.

All matrices are small (at most a few dozen rows/columns), so plain
Gaussian elimination on lists of integer codes is used throughout.  The
inner loops index the field's dense addition and multiplication tables
directly.
Row-echelon forms are fully reduced (pivots 1, zeros above and below),
which makes them canonical: two row sets span the same space iff their
reduced forms are identical.
"""

from __future__ import annotations

from .fields import GaloisField


def rref(field: GaloisField, rows) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Reduced row echelon form.

    Args:
        field: coefficient field.
        rows: iterable of equal-length code sequences.

    Returns:
        (pivot_cols, reduced_rows) with zero rows dropped; both tuples,
        canonical per row space.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return (), ()
    ncols = len(mat[0])
    nrows = len(mat)
    add, neg, mul, inv = field.add_table, field.neg_table, field.mul_table, field.inv
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        row = mat[r]
        f = inv(row[c])
        if f != 1:
            times_f = mul[f]
            row[:] = [times_f[y] for y in row]
        terms = [(j, y) for j, y in enumerate(row) if y]
        for i in range(nrows):
            other = mat[i]
            g = other[c]
            if g and i != r:
                minus_g = mul[neg[g]]
                for j, y in terms:
                    other[j] = add[other[j]][minus_g[y]]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(pivots), tuple(tuple(row) for row in mat[:r])


def canonical(field: GaloisField, vec) -> tuple[int, ...] | None:
    """The multiple of vec whose first nonzero entry is 1, or None for 0.

    Trusts its input to be field codes and checks nothing; input from
    outside goes through `ProjectiveSpace.normalize`.
    """
    lead = next(filter(None, vec), 0)
    if not lead:
        return None
    if lead == 1:
        return tuple(vec)
    g = field.mul_table[field.inv(lead)]
    return tuple([g[a] for a in vec])


def rank(field: GaloisField, rows) -> int:
    return len(rref(field, rows)[0])


def residual(field: GaloisField, pivots, rrows, vec) -> tuple[int, ...]:
    """Reduce vec against reduced rows; zero tuple iff vec is in the row space."""
    v = list(vec)
    add, neg, mul = field.add_table, field.neg_table, field.mul_table
    for c, row in zip(pivots, rrows):
        f = v[c]
        if f:
            minus_f = mul[neg[f]]
            for j, y in enumerate(row):
                if y:
                    v[j] = add[v[j]][minus_f[y]]
    return tuple(v)


def in_rowspace(field: GaloisField, pivots, rrows, vec) -> bool:
    return not any(residual(field, pivots, rrows, vec))


def span_preimage_mask(field: GaloisField, rows, idx) -> int:
    """Bitmask of the positions i whose rows[i] lies in the span of the
    rows at the positions in `idx`.

    This is the paper's identity clos M = rho^-1(span rho(M)) read on
    indices: with the rows rho(x) of all source points it gives the
    quadratic closure, and with the rows nu(x) of a candidate table the
    span preimage that a quadratic embedding must match.
    """
    chosen = [rows[i] for i in idx]
    pivots, rrows = rref(field, chosen)
    if chosen and len(pivots) == len(chosen[0]):
        return (1 << len(rows)) - 1
    mask = 0
    for i in idx:
        mask |= 1 << i
    for i, y in enumerate(rows):
        if not mask >> i & 1 and in_rowspace(field, pivots, rrows, y):
            mask |= 1 << i
    return mask


def nullspace(field: GaloisField, rows, ncols: int) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of {v : M v = 0} for the matrix with the given rows."""
    pivots, rrows = rref(field, rows)
    pivot_set = set(pivots)
    neg = field.neg
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for c, row in zip(pivots, rrows):
            v[c] = neg(row[free])
        basis.append(tuple(v))
    return tuple(basis)


def solve_columns(field: GaloisField, cols, target) -> tuple[int, ...] | None:
    """Solve A x = target where A has the given columns.

    Returns the coefficient tuple, or None if the system is inconsistent.
    Free variables (dependent columns) are set to 0.
    """
    ncols = len(cols)
    nrows = len(target)
    aug = [[cols[j][i] for j in range(ncols)] + [target[i]] for i in range(nrows)]
    pivots, rrows = rref(field, aug)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for c, row in zip(pivots, rrows):
        x[c] = row[ncols]
    return tuple(x)


def mat_vec(field: GaloisField, matrix, vec) -> tuple[int, ...]:
    """matrix . vec.  Only the nonzero entries x of vec contribute, each
    through its multiplication row, so a row costs one lookup pair per
    such entry.
    """
    add, mul = field.add_table, field.mul_table
    terms = [(j, mul[x]) for j, x in enumerate(vec) if x]
    out = []
    for row in matrix:
        acc = 0
        for j, times_x in terms:
            acc = add[acc][times_x[row[j]]]
        out.append(acc)
    return tuple(out)


def transpose(rows) -> tuple[tuple[int, ...], ...]:
    return tuple(zip(*rows)) if rows else ()
