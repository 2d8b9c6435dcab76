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

import functools
import operator

from .fields import GaloisField


def _echelon(field: GaloisField, rows, reduce_above: bool) -> tuple[list, list]:
    """Gaussian elimination: (the rows as lists, the pivot columns).

    Each pivot row is scaled to lead with 1 and cleared from the rows
    below it.  With reduce_above it is cleared from the rows above too,
    so the first len(pivots) rows are the reduced row echelon form;
    without it they are a row echelon form, which fixes the rank.
    Only the nonzero entries of the pivot row are added into the rows
    it clears.
    """
    mat = [list(r) for r in rows]
    pivots = []
    if not mat:
        return mat, pivots
    ncols = len(mat[0])
    nrows = len(mat)
    add, neg, mul, inv = field.add_table, field.neg_table, field.mul_table, field.inv
    r = 0
    for c in range(ncols):
        for pr in range(r, nrows):
            if mat[pr][c]:
                break
        else:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        row = mat[r]
        f = inv(row[c])
        if f != 1:
            times_f = mul[f]
            row[:] = [times_f[y] for y in row]
        terms = [(j, y) for j, y in enumerate(row) if y]
        for other in mat if reduce_above else mat[r + 1:]:
            g = other[c]
            if g and other is not row:
                minus_g = mul[neg[g]]
                for j, y in terms:
                    other[j] = add[other[j]][minus_g[y]]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def rref(field: GaloisField, rows) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Reduced row echelon form.

    Args:
        field: coefficient field.
        rows: iterable of equal-length code sequences.

    Returns:
        (pivot_cols, reduced_rows) with zero rows dropped; both tuples,
        canonical per row space.
    """
    mat, pivots = _echelon(field, rows, True)
    return tuple(pivots), tuple(tuple(row) for row in mat[:len(pivots)])


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
    """The rank of the rows, after forward elimination only.

    Clearing a pivot's column from the rows above it, as `rref` does,
    moves no pivot: each of those rows keeps its own pivot further
    left.  So forward elimination finds rref's pivot columns, and their
    number is the rank, with no reduced rows built.
    """
    return len(_echelon(field, rows, False)[1])


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


def residual_rows(field: GaloisField, rows) -> list:
    """Canonical rows as the witness scan holds its residuals: over GF(2)
    each as an int with coordinate k at bit k, otherwise as the tuple.

    A nonzero GF(2) vector is its own canonical form, so the packing is
    one-to-one on canonical rows and `reduce_residuals` needs no
    `canonical` on it.
    """
    if field.q == 2:
        return [int("".join(map(str, reversed(row))), 2) for row in rows]
    return list(rows)


def reduce_residuals(field: GaloisField, res: list, p: int) -> list:
    """The residuals after res[p], modulo res[p] too: a list of
    len(res) - p - 1 entries.

    Entries come from `residual_rows`, or are None for a zero residual;
    the pivot res[p] must be nonzero.  A tuple entry is canonical and is
    reduced at the pivot's leading coordinate; an int entry (GF(2)) is
    reduced by one XOR when it has the pivot's lowest set bit, which is
    the same coordinate.  Any pivot coordinate gives the same classes:
    the reductions compose to a linear projection with kernel span(P),
    so "zero" and "proportional" mean the same modulo span(P).  The
    witness scan of `embeddings._first_violation` extends span(P) by one
    point p with it, on the image side and, through
    `quadrics._ClosureContext`, on the rho side.
    """
    v = res[p]
    out = res[p + 1:]
    if type(v) is int:
        low = v & -v
        return [(w ^ v or None) if w is not None and w & low else w for w in out]
    add_rows, neg, mul_rows = field.add_table, field.neg_table, field.mul_table
    j = v.index(1)  # the leading coordinate, as v is canonical
    minus = {}
    for i, w in enumerate(out):
        if w is None or not w[j]:
            continue
        f = w[j]
        cols = minus.get(f)
        if cols is None:  # cols[k][a] = a - f * v[k], the add row of -(f * v[k])
            mf = mul_rows[f]
            cols = minus[f] = [add_rows[neg[mf[x]]] for x in v]
        out[i] = canonical(field, [c[a] for c, a in zip(cols, w)])
    return out


def subset_ranks(field: GaloisField, rows, max_size: int) -> dict:
    """Sorted index tuple idx of at most max_size entries -> the rank of
    the rows at idx, for every such tuple, without an elimination.

    rank(S + c) = rank(S) + [the residual of c modulo span S is
    nonzero], so a depth-first walk over the prefixes finds them all: at
    each prefix it holds the residuals of the later rows modulo its span
    and, when the prefix grew by a nonzero residual, takes one
    `reduce_residuals` step to extend them (a zero one leaves the span
    and the residuals as they were).  Rows may be zero or repeated.
    """
    canon = [canonical(field, r) for r in rows]
    packed = iter(residual_rows(field, [c for c in canon if c is not None]))
    ranks = {(): 0}

    def walk(prefix, rank, res, start):
        # res[i]: the residual of rows[start + i] modulo span rows[prefix]
        for i, w in enumerate(res):
            idx = prefix + (start + i,)
            grown = rank + (w is not None)
            ranks[idx] = grown
            if len(idx) < max_size and i + 1 < len(res):
                tail = res[i + 1 :] if w is None else reduce_residuals(field, res, i)
                walk(idx, grown, tail, start + i + 1)

    if max_size > 0:
        walk((), 0, [c and next(packed) for c in canon], 0)  # zero rows stay None
    return ranks


def residual_classes(res: list) -> dict:
    """Nonzero residual -> bitmask of the positions holding it."""
    cls = {}
    for i, w in enumerate(res):
        if w is not None:
            cls[w] = cls.get(w, 0) | 1 << i
    return cls


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


def canonical_products(field: GaloisField, matrix, columns) -> list[tuple[int, ...]]:
    """canonical(matrix . v) for many vectors v at once, in their order.

    ``columns[c]`` is a bytes object holding coordinate c of every v, one
    code per byte.  No product may be zero.  The work is done column by
    column with `bytes.translate` and integer arithmetic, each call one
    C-level pass over every vector, through ``field.byte_tables``:

    1. Products.  For each column c and each row r, translating the
       column by ``digits[j][a_rc]`` gives digit j of every a_rc v_c.
       The pieces are joined in (digit, row, vector) order and read as
       one little-endian int.  Each vector's digit then sits in a lane of
       W bytes, its own for every (digit, row).
    2. Sums.  Over characteristic 2 the ints are XORed, and a lane is the
       code of the sum: b = 0 below.  Otherwise they are added, so a lane
       sums one base-p digit of m = len(columns) products, at most
       b = m(p - 1).  W is 1 when b < 256.  Otherwise W is the least
       width with b < 2^(8W - 1), and each column is first spread to
       W-byte lanes; ``translate`` keeps the padding 0, since every
       table maps 0 to 0.  So no lane carries into the next.  For
       `embeddings.kappa_rho`, m = C(n+2, 2) and POINT_ENUM_CAP bounds
       n.  An odd q has N > q^n >= 3^n points, so n <= 12 under
       N <= 10^6, and b <= 91 * 250 < 2^15: W is 1 or 2.
    3. Reduction mod p.  While b > 255, one step subtracts M, the
       largest p 2^j <= b, from each lane holding s >= M.  Adding
       2^(8W-1) - M to a lane sets its top bit exactly when s >= M.  The
       sum stays in the lane, since s <= b < 2^(8W-1) and M <= b.  The
       bound becomes max(b - M, M - 1), and the steps stop when it is
       at most 255.  The low byte of each lane, mapped through
       ``residue``, is then the digit mod p.  Over GF(p^k) with p odd,
       the code is the sum of p^j times digit j, at most q - 1 < 256 in
       a byte lane.
    4. Canonical multiples.  A lead mask takes each vector's first
       nonzero coordinate, row by row, while some vector is still open.
       Each lead value a then names a class: the vectors leading with a.
       All the rows are scaled by 1/a in one ``translate``, and the mask
       of the class keeps that class's vectors.  One ``zip`` gives the
       tuples.
    """
    tables, p = field.byte_tables, field.p
    npts, nrows = len(columns[0]), len(matrix)
    bound = 0 if p == 2 else len(columns) * (p - 1)
    width = 1 if bound < 256 else (bound.bit_length() + 8) // 8
    if width > 1:
        padded, spread = bytearray(width * npts), []
        for col in columns:
            padded[::width] = col
            spread.append(bytes(padded))
        columns = spread
    acc = functools.reduce(
        operator.xor if p == 2 else operator.add,
        (
            int.from_bytes(b"".join([col.translate(d[a]) for d in tables.digits for a in coefs]), "little")
            for col, coefs in zip(columns, zip(*matrix))
        ),
    )
    size = nrows * npts  # codes per digit
    lanes = size * len(tables.digits)
    if bound > 255:
        top = 8 * width - 1
        ones = int.from_bytes((b"\x01" + bytes(width - 1)) * lanes, "little")
        while bound > 255:
            step = p << (bound // p).bit_length() - 1
            acc -= ((acc + ones * ((1 << top) - step)) >> top & ones) * step
            bound = max(bound - step, step - 1)
    codes = acc.to_bytes(width * lanes, "little")[::width]
    if p != 2:
        codes = codes.translate(tables.residue)
        if field.k > 1:
            acc = 0
            for j in reversed(range(field.k)):
                acc = acc * p + int.from_bytes(codes[j * size:(j + 1) * size], "little")
            codes = acc.to_bytes(size, "little")
    rows = [codes[r:r + npts] for r in range(0, size, npts)]
    lead, open_ = 0, (1 << 8 * npts) - 1
    for row in rows:
        lead |= int.from_bytes(row, "little") & open_
        open_ &= ~int.from_bytes(row.translate(tables.nonzero), "little")
        if not open_:
            break
    leads, whole, out = lead.to_bytes(npts, "little"), int.from_bytes(codes, "little"), 0
    for a in set(leads):
        scaled = whole if a == 1 else int.from_bytes(codes.translate(tables.unscale[a]), "little")
        out |= scaled & int.from_bytes(leads.translate(tables.equal[a]) * nrows, "little")
    codes = out.to_bytes(size, "little")
    return list(zip(*(codes[r:r + npts] for r in range(0, size, npts))))


def transpose(rows) -> tuple[tuple[int, ...], ...]:
    return tuple(zip(*rows)) if rows else ()
