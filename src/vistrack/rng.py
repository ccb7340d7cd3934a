"""Deterministic 64-bit PRNG used by every stochastic component.

The generator is specified fully below (no dependence on platform or
library RNG state), so seeded runs are bit-identical across machines
and Python versions. Derived draws (integers, gaussians, Poisson
counts) consume uniforms in a fixed, documented order.
"""

from __future__ import annotations

import math

from .core import ints

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Tiny splittable-mix PRNG with 64-bit state.

    State update: ``s += 0x9E3779B97F4A7C15``; output: xor-shift/multiply
    finalizer of the new state. Uniform floats are ``z / 2**64``.
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
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform draw in [0, 1)."""
        return self.next_u64() / 2.0**64

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

    def poisson(self, lam: float) -> int:
        """Knuth's product-of-uniforms Poisson sampler."""
        if lam <= 0.0:
            return 0
        limit = math.exp(-lam)
        count = 0
        prod = self.next_float()
        while prod > limit:
            count += 1
            prod *= self.next_float()
        return count
