"""Deterministic 64-bit PRNG used by every stochastic component.

The generator is specified fully below (no dependence on platform or
library RNG state), so seeded runs are bit-identical across machines
and Python versions. Derived draws (integers, gaussians, Poisson
counts) consume uniforms in a fixed, documented order.

SplitMix64 is counter-based: the k-th next draw is the finalizer of
``state + k * gamma``, so ``gauss_many`` computes a block of uniforms
as one uint64 array. It returns the same floats as that many ``gauss``
calls, in the same order, and leaves the same state behind; the block
changes only how the draws are computed, never which draw goes where.
"""

from __future__ import annotations

import math
import sys

from ._numpy import np
from .core import ints

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# The largest mean (708.396...) whose exp(-mean) is a normal float.
# Knuth's Poisson sampler stops once a product of uniforms falls below
# exp(-mean); past this mean that bound is subnormal and then 0, and the
# counts stop growing (near 748 for every mean from ~745 on).
POISSON_MAX_MEAN = -math.log(sys.float_info.min)

# z / 2**64 rounds every z >= 2**64 - 2**10 up to 1.0; those draws give
# this float instead, and every other draw stays as it was.
_BELOW_ONE = math.nextafter(1.0, 0.0)


class SplitMix64:
    """Tiny splittable-mix PRNG with 64-bit state.

    State update: ``s += 0x9E3779B97F4A7C15``; output: xor-shift/multiply
    finalizer of the new state. Uniform floats are ``z / 2**64``, at most
    the largest float below 1.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        (seed,) = ints((seed,), f"seed {seed!r}")
        if not 0 <= seed <= _MASK64:  # never reduced modulo 2**64: distinct seeds give distinct streams
            raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
        self.state = seed

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform draw in [0, 1)."""
        u = self.next_u64() / 2.0**64
        return u if u < 1.0 else _BELOW_ONE

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]. One uniform."""
        if hi < lo:
            raise ValueError("empty integer range")
        span = hi - lo + 1
        # min() guards the (representable) case where u*span rounds up to span
        return lo + min(span - 1, int(self.next_float() * span))

    def gauss(self, sigma: float = 1.0) -> float:
        """One Box-Muller gaussian draw. Consumes exactly two uniforms."""
        u1 = 1.0 - self.next_float()  # (0, 1], keeps log() finite
        u2 = self.next_float()
        return sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def gauss_many(self, n: int, sigma: float = 1.0) -> np.ndarray:
        """The next ``n`` ``gauss(sigma)`` draws as one float64 array, bit
        for bit. The 2n uniforms are computed as one uint64 array (numpy
        wraps modulo 2**64 as the mask does); log and cos are ``math``'s,
        as numpy's differ from them in the last bit of some draws, while
        the arithmetic and sqrt are correctly rounded in both."""
        z = np.uint64(self.state) + np.arange(1, 2 * n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        self.state = (self.state + 2 * n * _GAMMA) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        u = np.minimum((z ^ (z >> np.uint64(31))).astype(np.float64) / 2.0**64, _BELOW_ONE)
        log_u1 = np.fromiter(map(math.log, (1.0 - u[0::2]).tolist()), np.float64, n)
        cos_u2 = np.fromiter(map(math.cos, (2.0 * math.pi * u[1::2]).tolist()), np.float64, n)
        return sigma * np.sqrt(-2.0 * log_u1) * cos_u2

    def poisson(self, lam: float) -> int:
        """Knuth's product-of-uniforms Poisson sampler; a mean above
        POISSON_MAX_MEAN raises ValueError."""
        if lam <= 0.0:
            return 0
        limit = math.exp(-lam)
        if limit < sys.float_info.min:
            raise ValueError(f"Poisson mean must be at most {POISSON_MAX_MEAN:.6g}, as exp(-mean) underflows; got {lam}")
        count = 0
        prod = self.next_float()
        while prod > limit:
            count += 1
            prod *= self.next_float()
        return count
