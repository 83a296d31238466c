"""Deterministic random streams built on the splitmix64 mixer.

The generator must produce byte-identical traces for a given seed on any
platform and Python version, so it cannot rely on ``random.Random`` (whose
stream-derivation behavior is unspecified across versions). Instead it uses
splitmix64, a tiny published 64-bit generator defined entirely by three
constants:

* increment ``0x9E3779B97F4A7C15`` (the golden-ratio gamma)
* scramble multipliers ``0xBF58476D1CE4E5B9`` and ``0x94D049BB133111EB``

Every entity in a trace draws from its own stream, derived from the master
seed and an integer path such as ``(purpose, service, dc, vm)`` by absorbing
each path element into the state with the same mixer. Derived streams keep
unrelated parts of a trace independent: changing how utilization is drawn,
for example, never perturbs the values another VM's spec stream produces.
"""

from __future__ import annotations

import math

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_MASK = 0xFFFFFFFFFFFFFFFF
# largest Poisson mean drawn in one multiplication-method run; exp(-500)
# is still a normal float
POISSON_CHUNK = 500.0


def _mix(state: int) -> int:
    z = state
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """A splitmix64 stream. Not thread-safe; use one instance per thread."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN_GAMMA) & _MASK
        return _mix(self._state)

    def next_float(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0**-53)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive, without modulo bias."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        # rejection sampling: draw 64-bit words, most significant first, until
        # their range covers the span (one word up to 2**64), and draw again
        # in the biased tail of that range
        while True:
            value, bound = self.next_u64(), 1 << 64
            while bound < span:
                value = (value << 64) | self.next_u64()
                bound <<= 64
            if value < bound - bound % span:
                return lo + value % span

    def chance(self, p: float) -> bool:
        """True with probability p."""
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return self.next_float() < p

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()

    def choice(self, items):
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[self.randint(0, len(items) - 1)]

    def poisson(self, lam: float) -> int:
        """Poisson-distributed count for a finite mean ``lam``.

        The multiplication method compares against exp(-lam), which underflows
        once lam passes about 745, so lam is split into chunks of at most
        POISSON_CHUNK and one draw per chunk is summed: a sum of independent
        Poisson counts is Poisson with the summed mean (Knuth, TAOCP vol. 2,
        3.4.1). A mean up to POISSON_CHUNK is a single chunk.
        """
        count = 0
        while lam > 0.0:
            chunk = min(lam, POISSON_CHUNK)
            lam -= chunk
            threshold = math.exp(-chunk)
            product = self.next_float()
            while product > threshold:
                count += 1
                product *= self.next_float()
        return count


def derive_stream(seed: int, *path: int) -> SplitMix64:
    """Derive an independent stream from a master seed and an integer path.

    Each path element is scrambled and folded into the state, then the state
    is stirred once more, so (1, 2) and (2, 1) yield unrelated streams.
    """
    state = seed & _MASK
    for part in path:
        state ^= _mix((part + GOLDEN_GAMMA) & _MASK)
        state = _mix((state + GOLDEN_GAMMA) & _MASK)
    return SplitMix64(state)
