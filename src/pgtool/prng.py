"""Seeded randomness for generators, fixtures and suites.

SplitMix64 is the single PRNG used everywhere: 64-bit state, one
additive constant, two xor-shift-multiply finalization steps.  It is
tiny, well known, and trivially reproducible in any language, which
keeps regenerated fixtures bit-identical across implementations.
Derived draws are documented here because they are part of the
reproducibility contract: ``randbelow(n)`` is ``next_u64() % n`` and
``shuffle`` is a descending Fisher-Yates using ``randbelow``.
"""

from __future__ import annotations

from .errors import ParamOutOfRange

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    def __init__(self, seed: int):
        # the state keeps 64 bits, so a seed outside [0, 2**64) would
        # repeat the stream of one inside it
        if not 0 <= seed <= _MASK:
            raise ParamOutOfRange(f"seed {seed} outside [0, 2**64)")
        self.state = seed

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randbelow(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randbelow needs a positive bound")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices out of range(n), ascending."""
        idxs = list(range(n))
        self.shuffle(idxs)
        return sorted(idxs[:k])
