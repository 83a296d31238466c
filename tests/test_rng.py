from __future__ import annotations

import random

import pytest

from vmptrace.rng import BLOCK_WORDS, GOLDEN_GAMMA, SINGLE_WORDS, SplitMix64, _mix, derive_stream

_MASK = 2**64 - 1


class _ScalarStream(SplitMix64):
    """The same draw methods over words computed one at a time by _mix, the
    reference for the block kernel."""

    __slots__ = ("counter",)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.counter = seed & _MASK

    def next_u64(self) -> int:
        self.counter = (self.counter + GOLDEN_GAMMA) & _MASK
        return _mix(self.counter)


# 0, 1 and 2**64 - 1, plus a seed with the top bit set, gamma itself and one
# whose counter wraps to 0 inside the first block
KERNEL_SEEDS = (0, 1, 2**64 - 1, 2**63, GOLDEN_GAMMA, -(SINGLE_WORDS + 5) * GOLDEN_GAMMA % 2**64, 987654321)
# counts on both sides of the switch to blocks and of the next block boundaries
WORD_COUNTS = sorted(
    {1, 600}
    | {SINGLE_WORDS + k * BLOCK_WORDS + d for k in range(4) for d in (-1, 0, 1)}
)


def test_reference_sequence_for_seed_zero():
    stream = SplitMix64(0)
    assert [stream.next_u64() for _ in range(4)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]


def test_reference_sequence_for_a_nonzero_seed():
    stream = SplitMix64(1234567)
    assert [stream.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_identical_seeds_yield_identical_sequences():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_derived_streams_are_mutually_distinct():
    first_draws = set()
    for kind in range(1, 6):
        for service in range(1, 26):
            for dc in range(1, 4):
                first_draws.add(derive_stream(42, kind, service, dc).next_u64())
    assert len(first_draws) == 5 * 25 * 3


def test_derived_streams_depend_on_path_order():
    assert derive_stream(1, 2, 3).next_u64() != derive_stream(1, 3, 2).next_u64()
    assert derive_stream(1, 2).next_u64() != derive_stream(2, 2).next_u64()


def test_derived_streams_are_reproducible():
    a = derive_stream(7, 5, 1, 2, 3)
    b = derive_stream(7, 5, 1, 2, 3)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_next_float_stays_in_the_unit_interval():
    stream = SplitMix64(11)
    for _ in range(2000):
        value = stream.next_float()
        assert 0.0 <= value < 1.0


def test_randint_is_inclusive_and_covers_both_bounds():
    stream = SplitMix64(5)
    seen = set()
    for _ in range(2000):
        value = stream.randint(3, 7)
        assert 3 <= value <= 7
        seen.add(value)
    assert seen == {3, 4, 5, 6, 7}
    assert SplitMix64(5).randint(9, 9) == 9


def test_randint_draws_again_in_the_biased_tail():
    # a span of 3 * 2**62 takes the draws below it as they are and rejects
    # the quarter of the 64-bit range above it, which modulo would fold onto
    # the low values
    span = 3 * 2**62
    stream, words = SplitMix64(8), SplitMix64(8)
    for _ in range(200):
        draw = words.next_u64()
        while draw >= span:
            draw = words.next_u64()
        assert stream.randint(0, span - 1) == draw


def test_randint_covers_spans_past_64_bits():
    # one 64-bit draw cannot cover such a span; a rejection limit computed
    # from it alone is 0 and never accepts
    stream = SplitMix64(5)
    values = [stream.randint(1, 10**28) for _ in range(200)]
    assert all(1 <= value <= 10**28 for value in values)
    assert max(values) > 2**64 and len(set(values)) == 200
    # a span of exactly 2**64 still takes one draw per value, and one of
    # 2**128 two, most significant first
    assert SplitMix64(5).randint(0, 2**64 - 1) == SplitMix64(5).next_u64()
    words = SplitMix64(5)
    assert SplitMix64(5).randint(0, 2**128 - 1) == (words.next_u64() << 64) | words.next_u64()


def test_uniform_respects_its_bounds():
    stream = SplitMix64(13)
    for _ in range(2000):
        value = stream.uniform(0.25, 0.75)
        assert 0.25 <= value < 0.75


def test_chance_edge_probabilities_consume_no_draws():
    stream = SplitMix64(7)
    untouched = SplitMix64(7)
    assert stream.chance(0.0) is False
    assert stream.chance(1.0) is True
    assert stream.chance(-0.5) is False
    assert stream.chance(2.0) is True
    assert stream.next_u64() == untouched.next_u64()


@pytest.mark.parametrize("seed", KERNEL_SEEDS)
def test_coin_is_chance_one_half_across_block_boundaries(seed):
    stream, twin = SplitMix64(seed), SplitMix64(seed)
    count = SINGLE_WORDS + 3 * BLOCK_WORDS + 1
    assert [stream.coin() for _ in range(count)] == [twin.chance(0.5) for _ in range(count)]
    assert stream.next_u64() == twin.next_u64()


def test_coin_splits_at_two_to_the_63():
    class _Word(SplitMix64):
        def next_u64(self) -> int:
            return self.word

    stream = _Word(0)
    for word, heads in ((0, True), (2**63 - 1, True), (2**63, False), (2**64 - 1, False)):
        stream.word = word
        assert stream.coin() is heads and stream.chance(0.5) is heads


def test_chance_frequency_tracks_the_probability():
    stream = SplitMix64(2026)
    hits = sum(1 for _ in range(20000) if stream.chance(0.25))
    assert abs(hits / 20000 - 0.25) < 0.02


def test_choice_draws_members_roughly_uniformly():
    stream = SplitMix64(17)
    options = ("a", "b", "c", "d")
    counts = {option: 0 for option in options}
    for _ in range(4000):
        counts[stream.choice(options)] += 1
    assert sum(counts.values()) == 4000
    for option in options:
        assert abs(counts[option] - 1000) < 150


def test_poisson_mean_is_close_to_the_rate():
    stream = SplitMix64(31)
    draws = [stream.poisson(4.0) for _ in range(20000)]
    assert all(value >= 0 for value in draws)
    mean = sum(draws) / len(draws)
    assert abs(mean - 4.0) < 0.1


def test_poisson_zero_rate_is_always_zero():
    stream = SplitMix64(1)
    assert all(stream.poisson(0.0) == 0 for _ in range(50))


def test_poisson_draws_up_to_one_chunk_are_unchanged():
    # pinned before large rates were split into chunks; rates up to the
    # chunk size must keep drawing exactly as before
    stream = SplitMix64(2024)
    assert [stream.poisson(3.0) for _ in range(12)] == [2, 3, 2, 4, 5, 5, 2, 3, 0, 6, 1, 3]
    stream = SplitMix64(2024)
    assert [stream.poisson(500.0) for _ in range(6)] == [498, 512, 523, 529, 520, 471]
    assert stream.next_u64() == 9335176298001134086


@pytest.mark.parametrize("rate", [1000.0, 5000.0])
def test_poisson_mean_holds_past_the_exp_underflow(rate):
    # a single multiplication-method draw saturates near 745, where
    # exp(-rate) underflows
    stream = SplitMix64(7)
    draws = [stream.poisson(rate) for _ in range(100)]
    assert abs(sum(draws) / len(draws) - rate) < 0.03 * rate


@pytest.mark.parametrize("seed", KERNEL_SEEDS)
@pytest.mark.parametrize("count", WORD_COUNTS)
def test_block_words_equal_the_scalar_reference(seed, count):
    stream, reference = SplitMix64(seed), _ScalarStream(seed)
    assert [stream.next_u64() for _ in range(count)] == [reference.next_u64() for _ in range(count)]


def _draw(stream: SplitMix64, op: str, arg):
    if op == "next_u64":
        return stream.next_u64()
    if op == "chance":
        return stream.chance(arg)
    if op == "coin":
        return stream.coin()
    if op == "randint":
        return stream.randint(*arg)
    if op == "uniform":
        return stream.uniform(*arg)
    if op == "poisson":
        return stream.poisson(arg)
    return stream.choice(arg)


def _script(seed: int, length: int):
    """A fixed mix of draw calls with their arguments, some spans past 2**64."""
    pick = random.Random(seed)
    ops = []
    for _ in range(length):
        op = pick.choice(("next_u64", "chance", "coin", "randint", "uniform", "poisson", "choice"))
        if op == "chance":
            arg = pick.choice((0.0, 0.25, 0.5, 0.9, 1.0))
        elif op == "randint":
            arg = pick.choice(((0, 2), (1, 10**6), (0, 3 * 2**62), (1, 10**28), (0, 2**128 - 1)))
        elif op == "uniform":
            arg = (0.1, 0.4)
        elif op == "poisson":
            arg = pick.choice((0.0, 0.5, 3.0))
        elif op == "choice":
            arg = ("a", "b", "c")
        else:
            arg = None
        ops.append((op, arg))
    return ops


@pytest.mark.parametrize("seed", KERNEL_SEEDS)
def test_interleaved_draws_equal_the_scalar_reference(seed):
    stream, reference = SplitMix64(seed), _ScalarStream(seed)
    for op, arg in _script(seed, 600):
        assert _draw(stream, op, arg) == _draw(reference, op, arg), (op, arg)
    # both streams stand at the same word afterwards
    assert stream.next_u64() == reference.next_u64()


@pytest.mark.parametrize("seed", KERNEL_SEEDS)
def test_a_wide_randint_straddling_a_block_boundary_takes_both_words_in_order(seed):
    # word SINGLE_WORDS + BLOCK_WORDS ends the first block and the next one
    # starts the second; a span of 2**128 takes both, most significant first
    reference = _ScalarStream(seed)
    words = [reference.next_u64() for _ in range(SINGLE_WORDS + BLOCK_WORDS + 1)]
    stream = SplitMix64(seed)
    for _ in range(SINGLE_WORDS + BLOCK_WORDS - 1):
        stream.next_u64()
    assert stream.randint(0, 2**128 - 1) == (words[-2] << 64) | words[-1]
    # a span past 2**64 that is not a power of two rejects some draws, so
    # compare it against the reference's own draws over several boundaries
    stream, reference = SplitMix64(seed), _ScalarStream(seed)
    for _ in range(SINGLE_WORDS + BLOCK_WORDS - 1):
        assert stream.next_u64() == reference.next_u64()
    for _ in range(BLOCK_WORDS):
        assert stream.randint(1, 10**28) == reference.randint(1, 10**28)
