"""Deterministic linear-congruential random generator.

The Java Grande Forum benchmarks use a simple LCG ("Random" from the original
Linpack/Scimark sources) so that every language port produces the same input
data and validation values.  This is a faithful Python port of that generator
(48-bit arithmetic like ``java.util.Random`` is *not* used; JGF's own
generator is the 2^31-1 Park-Miller style generator below).

Vectors are generated by exact jump-ahead rather than one Python step per
element: with ``x' = A * x mod M``, the ``k``-th state after ``s`` is
``A^k * s mod M``.  A table of ``A^k mod M`` for ``k = 1 .. BLOCK`` turns each
block of ``BLOCK`` states into one numpy multiply-and-reduce; both factors are
below 2^31, so every product fits in int64.  The states, and the doubles
derived from them with the same IEEE operations as :meth:`JGFRandom.next_double`,
are bit-identical to the scalar recurrence.
"""

from __future__ import annotations

import numpy as np

_M = 2147483647  # 2^31 - 1
_A = 16807       # Park-Miller multiplier

#: states produced per vectorised block.
BLOCK = 1024


def _power_table() -> np.ndarray:
    powers = [_A]
    for _ in range(BLOCK - 1):
        powers.append(powers[-1] * _A % _M)
    return np.array(powers, dtype=np.int64)


#: ``_POWERS[k - 1] == A^k mod M`` for ``k = 1 .. BLOCK``.
_POWERS = _power_table()
#: ``A^BLOCK mod M``: the jump from one block's seed to the next block's.
_JUMP = int(_POWERS[-1])


class JGFRandom:
    """JGF/Scimark-style linear congruential generator producing doubles in [left, right)."""

    def __init__(self, seed: int = 123456789, left: float = 0.0, right: float = 1.0) -> None:
        if seed <= 0:
            raise ValueError("seed must be positive")
        self._seed = seed % _M or 1
        self.left = left
        self.width = right - left

    def next_int(self) -> int:
        """Next raw integer state in [1, 2^31 - 2]."""
        self._seed = (_A * self._seed) % _M
        return self._seed

    def next_double(self) -> float:
        """Next double in [left, right)."""
        return self.left + self.width * (self.next_int() / _M)

    def states(self, count: int) -> np.ndarray:
        """The next ``count`` raw states (int64), advancing the generator past them."""
        if count < 0:
            raise ValueError("count must be non-negative")
        seeds = []
        seed = self._seed
        for _ in range(-(-count // BLOCK)):
            seeds.append(seed)
            seed = seed * _JUMP % _M
        block_seeds = np.array(seeds, dtype=np.int64).reshape(-1, 1)
        out = (block_seeds * _POWERS).reshape(-1)[:count]
        out %= _M
        if count:
            self._seed = int(out[-1])
        return out

    def doubles(self, count: int) -> np.ndarray:
        """Vector of ``count`` doubles in [left, right)."""
        out = self.states(count).astype(np.float64)
        # left + width * (state / M), as in next_double.
        out /= _M
        out *= self.width
        out += self.left
        return out

    def ints(self, count: int, modulo: int) -> np.ndarray:
        """Vector of ``count`` non-negative integers below ``modulo``."""
        return self.states(count) % modulo
