"""Quadratic forms, quadrics, and the closure operator they induce.

The closure of a point set M is the intersection of all quadrics
containing M (the whole space when no quadric does).  It is computed
through Veronese coordinates: a point X lies in the closure iff its
monomial vector lies in the row space spanned by the monomial vectors
of M.  The dual computation through vanishing forms is kept as an
independent cross-check, and the basis of vanishing forms is returned
as the certificate of every closed set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import linalg
from .errors import DimensionMismatch, OracleSizeCap, SpaceMismatch
from .projective import ProjectiveSpace
from .veronese import delta, veronese_for

CHAIN_ORACLE_CAP = 13
RHO_TAIL_CAP = 1 << 12


@dataclass(frozen=True)
class QuadraticForm:
    """Coefficient vector of a quadratic form, stored modulo scalars.

    Coefficients follow the monomial pair order of the Veronese map;
    the class keeps the first nonzero coefficient scaled to 1.  Entries
    must be element codes (`GaloisField.are_codes`), not all zero.
    """

    space: ProjectiveSpace
    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if len(coeffs) != delta(self.space.n):
            raise DimensionMismatch(
                f"expected {delta(self.space.n)} coefficients, got {len(coeffs)}"
            )
        field = self.space.field
        if not field.are_codes(coeffs):
            raise SpaceMismatch(f"form coefficients must be integer codes in [0, {field.q})")
        coeffs = linalg.canonical(field, coeffs)
        if coeffs is None:
            raise DimensionMismatch("the zero vector is not a quadratic form")
        object.__setattr__(self, "coeffs", coeffs)

    def evaluate(self, point) -> int:
        """Value f . rho(x) at the canonical representative x of the point.

        Rescaling a representative by t multiplies the value by t^2, so
        whether the value is zero does not depend on the representative.
        """
        rho = veronese_for(self.space).apply(point)
        (value,) = linalg.mat_vec(self.space.field, (self.coeffs,), rho)
        return value


@dataclass(frozen=True)
class ClosedSet:
    """A closed point set with the basis of forms vanishing on it.

    An empty certificate means no quadric contains the set, i.e. the
    closure is the whole space (the whole space itself counts as a
    member of the quadric family).
    """

    points: frozenset[tuple[int, ...]]
    certificate: tuple[QuadraticForm, ...]


class _ClosureContext:
    """Per-space closure engine working on point-index bitmasks.

    It also holds the rho side of the witness scan in
    `embeddings._first_violation`.  For a prefix P of source point
    indices, `rho_tail` gives the rows rho(x) of the points x after
    P's last point, reduced modulo span rho(P), and their classes.  By
    clos M = rho^-1(span rho(M)) this is a fact about the source space
    alone: it never depends on the table being checked, so every table
    over this source shares it.  The memo holds at most RHO_TAIL_CAP
    residual entries in all, which bounds its memory (about 0.5 MB at
    PG(2, 16) and PG(4, 2)); once that is full, new prefixes are
    reduced but not stored, and nothing is evicted.  Every scan starts
    at the lex-first prefixes, so the entries kept first are the ones
    reused most.  The residuals are `linalg.residual_rows` of the source
    field: bit masks over GF(2), whatever the target field is.
    """

    def __init__(self, space: ProjectiveSpace):
        self.space = space
        self.rho_rows = veronese_for(space).image()
        self._closure_memo: dict[int, int] = {}
        self._chain_memos: dict[int, dict[int, int]] = {}
        self._tail_memo: dict[tuple, list] = {
            (): [linalg.residual_rows(space.field, self.rho_rows), None]
        }
        self.tail_entries = 0  # residual entries stored in _tail_memo, at most RHO_TAIL_CAP

    def mask_of(self, pts) -> int:
        space, mask = self.space, 0
        for p in pts:
            mask |= 1 << space.point_index(space.normalize(p))
        return mask

    def points_of(self, mask: int) -> frozenset[tuple[int, ...]]:
        points = self.space.points()
        return frozenset(points[i] for i in range(len(points)) if mask >> i & 1)

    def closure_mask(self, mask: int) -> int:
        cached = self._closure_memo.get(mask)
        if cached is not None:
            return cached
        idx = [i for i in range(self.space.point_count) if mask >> i & 1]
        out = linalg.span_preimage_mask(self.space.field, self.rho_rows, idx)
        self._closure_memo[mask] = out
        return out

    def rho_tail(self, prefix: tuple, parent: list, i: int) -> list:
        """[residuals, classes] for `prefix`, whose last point sits at
        position i of the tail of its parent entry `parent`.

        The residuals are those of the points after prefix[-1], as
        `linalg.reduce_residuals` gives them; the classes start as None
        and the scan fills them in with `linalg.residual_classes`.  On a
        miss the parent's residuals, which the scan holds, are reduced
        once.
        """
        entry = self._tail_memo.get(prefix)
        if entry is None:
            entry = [linalg.reduce_residuals(self.space.field, parent[0], i), None]
            if self.tail_entries + len(entry[0]) <= RHO_TAIL_CAP:
                self._tail_memo[prefix] = entry
                self.tail_entries += len(entry[0])
        return entry

    def rho_root(self) -> list:
        """The `rho_tail` entry of the empty prefix: every row rho(x), as
        `linalg.residual_rows` holds it."""
        return self._tail_memo[()]

    # -- longest chain of closed sets (search oracle) --------------------

    def longest_steps(self, target: int) -> int:
        """Length of the longest strictly increasing chain of closed sets
        from the empty set to `target` (a closed mask), counting steps.

        Every child F' of a closed set F in the search, that is the
        closure of F with one more point x of the target, is visited.
        The search holds, for each F, the rows rho(y) of the target's
        points reduced modulo span rho(F), as `rho_root` and
        `linalg.reduce_residuals` give them (None off the target and on
        F).  Since clos M = rho^-1(span rho(M)), y lies in the closure
        of F + x exactly when its residual is a multiple of x's, and
        canonical residuals are multiples only when equal: so F' is F
        plus the class of x's residual (`_children`), and no closure is
        computed below the target.  The residuals of F' are those of F,
        all of them and not only the ones after x, reduced modulo x's
        residual by one `linalg.reduce_residuals` step, taken once per
        new child: on a miss of the memo of flats.
        """
        memo = self._chain_memos.setdefault(target, {})
        field = self.space.field

        def rec(flat: int, res: list) -> int:
            best = 0
            for child, p in self._children(flat, res):
                steps = 0 if child == target else memo.get(child)
                if steps is None:
                    reduced = linalg.reduce_residuals(field, [res[p]] + res, 0)
                    steps = memo[child] = rec(child, reduced)
                best = max(best, 1 + steps)
            return best

        if not target:
            return 0
        hit = memo.get(0)
        if hit is None:
            root = self.rho_root()[0]
            hit = memo[0] = rec(0, [w if target >> i & 1 else None for i, w in enumerate(root)])
        return hit

    def _children(self, flat: int, res: list) -> list:
        """(child, p) for each child flat of the closed set `flat`, with
        `res` its residuals as `longest_steps` holds them: the child is
        `flat` plus one residual class, and p the class's first
        position."""
        return [(flat | cls, (cls & -cls).bit_length() - 1)
                for cls in linalg.residual_classes(res).values()]


@functools.lru_cache(maxsize=None)
def _context_for(space: ProjectiveSpace) -> _ClosureContext:
    return _ClosureContext(space)


def closure_points(space: ProjectiveSpace, pts) -> frozenset[tuple[int, ...]]:
    """Closure as a point set (row-space algorithm, memoized per space)."""
    ctx = _context_for(space)
    return ctx.points_of(ctx.closure_mask(ctx.mask_of(pts)))


def closure_points_by_forms(space: ProjectiveSpace, pts) -> frozenset[tuple[int, ...]]:
    """Independent closure computation: common zeros of all vanishing forms."""
    forms = _vanishing_forms(space, pts)
    if not forms:
        return frozenset(space.points())
    out = []
    for x in space.points():
        if all(not f.evaluate(x) for f in forms):
            out.append(x)
    return frozenset(out)


def _vanishing_forms(space: ProjectiveSpace, pts) -> tuple[QuadraticForm, ...]:
    ver = veronese_for(space)
    rows = [ver.apply(p) for p in pts]
    basis = linalg.nullspace(space.field, rows, delta(space.n))
    return tuple(QuadraticForm(space, b) for b in basis)


def quadratic_closure(space: ProjectiveSpace, pts) -> ClosedSet:
    """Closure of a point set together with its certificate of forms."""
    for p in pts:
        if len(tuple(p)) != space.n + 1:
            raise SpaceMismatch("point of wrong coordinate length")
    return ClosedSet(
        points=closure_points(space, pts),
        certificate=_vanishing_forms(space, pts),
    )


def longest_closed_chain(space: ProjectiveSpace, pts) -> int:
    """Largest i so that i+2 distinct closed sets climb from empty to clos(M).

    Exponential search over closed subsets; usable only when the closure
    has at most CHAIN_ORACLE_CAP points.  Returns -1 for the empty set.
    """
    ctx = _context_for(space)
    target = ctx.closure_mask(ctx.mask_of(pts))
    if target.bit_count() > CHAIN_ORACLE_CAP:
        raise OracleSizeCap(
            f"closure has {target.bit_count()} points; oracle cap is {CHAIN_ORACLE_CAP}"
        )
    return ctx.longest_steps(target) - 1
