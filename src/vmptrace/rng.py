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

splitmix64 is counter-based: word k of a stream is ``_mix(state + k * gamma)``.
A stream draws its first ``SINGLE_WORDS`` words one at a time, since most
derived streams stop after a few. Past those it computes ``BLOCK_WORDS``
words at once: one pass of the mixer over a Python int that holds one word
per 128-bit lane. A lane's product of two 64-bit values fits its 128 bits,
so multiplies never carry between lanes; the bits a shift moves into a
lane's high half are masked off before each multiply, and the block is
unpacked, low halves only, in explicit little-endian order. The words and
their order are exactly those of ``_mix``, which stays the scalar
reference. Every draw method takes each word through ``next_u64``.
"""

from __future__ import annotations

import math
import struct

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_MASK = 0xFFFFFFFFFFFFFFFF
# largest Poisson mean drawn in one multiplication-method run; exp(-500)
# is still a normal float
POISSON_CHUNK = 500.0

# words drawn one at a time before a stream switches to blocks, and the
# words per block, one per 128-bit lane
SINGLE_WORDS = 8
BLOCK_WORDS = 64
_LANE_BITS = 128
_LANE_ONES = sum(1 << (_LANE_BITS * lane) for lane in range(BLOCK_WORDS))
_LANE_MASK = _LANE_ONES * _MASK
# lane k holds word BLOCK_WORDS - k of the block, so the unpacked lanes come
# out last word first, ready for pop()
_LANE_RAMP = sum(((BLOCK_WORDS - lane) * GOLDEN_GAMMA & _MASK) << (_LANE_BITS * lane) for lane in range(BLOCK_WORDS))
_BLOCK_STRIDE = BLOCK_WORDS * GOLDEN_GAMMA & _MASK
# each lane's low 64 bits, little-endian, skipping its high half
_UNPACK_LANES = struct.Struct("<" + "Q8x" * BLOCK_WORDS).unpack


def _mix(state: int) -> int:
    z = state
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """A splitmix64 stream. Not thread-safe; use one instance per thread."""

    # _state is the counter of the last word computed; _words holds the
    # rest of the current block, next word last; _singles counts the words
    # still to draw one at a time
    __slots__ = ("_state", "_words", "_singles")

    def __init__(self, seed: int):
        self._state = seed & _MASK
        self._words = ()
        self._singles = SINGLE_WORDS

    def next_u64(self) -> int:
        words = self._words
        if words:
            return words.pop()
        return self._refill()

    def _refill(self) -> int:
        """The next word once the current block is spent: a single word
        while any are left, else the first word of a new block."""
        if self._singles:
            self._singles -= 1
            self._state = (self._state + GOLDEN_GAMMA) & _MASK
            return _mix(self._state)
        z = (self._state * _LANE_ONES + _LANE_RAMP) & _LANE_MASK
        self._state = (self._state + _BLOCK_STRIDE) & _MASK
        # a shift carries the next lane's low bits into this lane's high
        # half: masked off before each multiply, and skipped by the unpack
        z = ((z ^ z >> 30) & _LANE_MASK) * _MIX_1 & _LANE_MASK
        z = ((z ^ z >> 27) & _LANE_MASK) * _MIX_2 & _LANE_MASK
        z ^= z >> 31
        words = list(_UNPACK_LANES(z.to_bytes(BLOCK_WORDS * _LANE_BITS // 8, "little")))
        word = words.pop()
        self._words = words
        return word

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

    def coin(self) -> bool:
        """True with probability 1/2, exactly ``chance(0.5)``: its
        ``(word >> 11) * 2**-53 < 0.5`` holds just when ``word < 2**63``."""
        return self.next_u64() < 1 << 63

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
