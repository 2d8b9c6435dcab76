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
from .veronese import delta, monomial_pairs, veronese_for

CHAIN_ORACLE_CAP = 13


@dataclass(frozen=True)
class QuadraticForm:
    """Coefficient vector of a quadratic form, stored modulo scalars.

    Coefficients follow the monomial pair order of the Veronese map;
    the class keeps the first nonzero coefficient scaled to 1.  The
    all-zero vector is not a form.
    """

    space: ProjectiveSpace
    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if len(coeffs) != delta(self.space.n):
            raise DimensionMismatch(
                f"expected {delta(self.space.n)} coefficients, got {len(coeffs)}"
            )
        coeffs = linalg.canonical(self.space.field, coeffs)
        if coeffs is None:
            raise DimensionMismatch("the zero vector is not a quadratic form")
        object.__setattr__(self, "coeffs", coeffs)

    def evaluate(self, point) -> int:
        """Value at the canonical representative of the point.

        Rescaling a representative by t multiplies the value by t^2, so
        whether the value is zero does not depend on the representative.
        """
        field = self.space.field
        x = self.space.normalize(point)
        add, mul = field.add, field.mul
        acc = 0
        for (i, j), c in zip(monomial_pairs(self.space.n), self.coeffs):
            if c:
                t = mul(x[i], x[j])
                if t:
                    acc = add(acc, mul(c, t))
        return acc


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
    """Per-space closure engine working on point-index bitmasks."""

    def __init__(self, space: ProjectiveSpace):
        self.space = space
        self.ver = veronese_for(space)
        self.points = space.points()
        self.index = {p: i for i, p in enumerate(self.points)}
        self.rho_rows = [self.ver.apply(p) for p in self.points]
        self._closure_memo: dict[int, int] = {}
        self._chain_memos: dict[int, dict[int, int]] = {}

    def mask_of(self, pts) -> int:
        mask = 0
        for p in pts:
            mask |= 1 << self.index[self.space.normalize(p)]
        return mask

    def points_of(self, mask: int) -> frozenset[tuple[int, ...]]:
        return frozenset(
            self.points[i] for i in range(len(self.points)) if mask >> i & 1
        )

    def closure_mask(self, mask: int) -> int:
        cached = self._closure_memo.get(mask)
        if cached is not None:
            return cached
        idx = [i for i in range(len(self.points)) if mask >> i & 1]
        out = linalg.span_preimage_mask(self.space.field, self.rho_rows, idx)
        self._closure_memo[mask] = out
        return out

    # -- longest chain of closed sets (search oracle) --------------------

    def longest_steps(self, target: int) -> int:
        """Length of the longest strictly increasing chain of closed sets
        from the empty set to `target` (a closed mask), counting steps."""
        memo = self._chain_memos.setdefault(target, {})

        def rec(flat: int) -> int:
            if flat == target:
                return 0
            hit = memo.get(flat)
            if hit is not None:
                return hit
            rest = target & ~flat
            children = set()
            i = 0
            while rest:
                if rest & 1:
                    children.add(self.closure_mask(flat | (1 << i)))
                rest >>= 1
                i += 1
            best = max(1 + rec(child) for child in children)
            memo[flat] = best
            return best

        return rec(0)


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
