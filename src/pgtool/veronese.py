"""The quadratic Veronese coordinate map.

A point of PG(n, q) is sent to the vector of all degree-2 monomials of
its coordinates.  Monomials are indexed by ordered pairs (i, j) with
i <= j in lexicographic order: (0,0), (0,1), ..., (0,n), (1,1), ...,
(n,n).  Quadratic-form coefficient vectors use the same index order, so
a form evaluates at a point as the plain dot product of the two vectors.
"""

from __future__ import annotations

import functools
import math

from .errors import DimensionMismatch
from .projective import ProjectiveSpace


def delta(t: int) -> int:
    """Number of degree-2 monomials in t+1 variables: C(t+2, 2)."""
    if t < 0:
        raise DimensionMismatch(f"delta requires t >= 0, got {t}")
    return math.comb(t + 2, 2)


@functools.lru_cache(maxsize=None)
def monomial_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(n + 1) for j in range(i, n + 1))


class VeroneseMap:
    """Coordinate form of the degree-2 embedding of PG(n, q) into PG(n', q)."""

    def __init__(self, source: ProjectiveSpace):
        self.source = source
        self.target = ProjectiveSpace(source.field, delta(source.n) - 1)

    @functools.cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """`monomial_pairs` of the source, listed on first use.  A source
        too large to enumerate is refused before a point is mapped, and
        at n = 6000 the list alone holds 18 million pairs."""
        return monomial_pairs(self.source.n)

    def apply(self, point) -> tuple[int, ...]:
        x = self.source.normalize(point)
        mul = self.source.field.mul
        # Already canonical: with x_l = 1 the leading entry of x, every
        # monomial before (l, l) has a factor x_i = 0 with i < l, and
        # x_l^2 = 1.
        return tuple(mul(x[i], x[j]) for i, j in self.pairs)

    def image(self) -> tuple[tuple[int, ...], ...]:
        """rho(P): the rows rho(x) in `source.points()` order, built once
        per map and shared by the closure, the subset scan and the
        certificate."""
        return self._image

    @functools.cached_property
    def _image(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.apply(p) for p in self.source.points())

    @functools.cached_property
    def columns(self) -> tuple[bytes, ...]:
        """The columns of `image`, one byte per point, in `source.points()`
        order: the operand of `linalg.canonical_products` for every
        kappa rho table of the source."""
        return tuple(map(bytes, zip(*self.image())))


@functools.lru_cache(maxsize=None)
def veronese_for(space: ProjectiveSpace) -> VeroneseMap:
    return VeroneseMap(space)
