"""The power-of-d kernel's variate contract (repro.rack.choice)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rack.choice import Variates, draw_distinct, draw_index, pick_min


class RecordingRng:
    """Replays scripted variates and records every call made on it."""

    def __init__(self, randoms=(), integers=()):
        self._randoms = list(randoms)
        self._integers = list(integers)
        self.calls = []

    def random(self):
        self.calls.append(("random",))
        return self._randoms.pop(0)

    def integers(self, low, high):
        self.calls.append(("integers", low, high))
        return self._integers.pop(0)


CUMULATIVE = [0.25, 0.5, 0.75, 1.0]


class TestDrawIndex:
    def test_one_random_per_draw_bisected_right(self):
        rng = RecordingRng(randoms=[0.0, 0.25, 0.6, 0.99])
        draws = [draw_index(CUMULATIVE, rng.random) for _ in range(4)]
        assert draws == [0, 1, 2, 3]
        assert rng.calls == [("random",)] * 4

    def test_clamped_to_the_last_index(self):
        # Rounding can leave the final cumulative weight below 1.0.
        rng = RecordingRng(randoms=[0.9999999])
        assert draw_index([0.5, 0.9999998], rng.random) == 1


class TestDrawDistinct:
    def test_rejected_duplicates_still_cost_a_draw(self):
        pool = [10, 11, 12, 13]
        rng = RecordingRng(randoms=[0.1, 0.2, 0.1, 0.8])
        chosen = draw_distinct(
            lambda: pool[draw_index(CUMULATIVE, rng.random)], 2, pool
        )
        assert chosen == [10, 13]  # first-seen order
        assert rng.calls == [("random",)] * 4

    def test_count_reaching_the_pool_returns_it_without_draws(self):
        pool = [3, 1, 2]
        rng = RecordingRng()
        for count in (3, 4):
            assert draw_distinct(rng.random, count, pool) is pool
        assert rng.calls == []


class TestPickMin:
    def test_unique_minimum_draws_nothing(self):
        rng = RecordingRng()
        assert pick_min([4, 7, 9], {4: 2.0, 7: 0.0, 9: 5.0}, rng.integers) == 7
        assert rng.calls == []

    def test_ties_draw_once_and_index_in_candidate_order(self):
        score = [1, 0, 3, 0, 0]
        for index, expected in enumerate([3, 1, 4]):
            rng = RecordingRng(integers=[index])
            assert pick_min([3, 2, 1, 4], score, rng.integers) == expected
            assert rng.calls == [("integers", 0, 3)]

    def test_range_candidates_and_list_scores(self):
        rng = RecordingRng(integers=[1])
        assert pick_min(range(4), [2, 0, 1, 0], rng.integers) == 3
        assert rng.calls == [("integers", 0, 2)]


@settings(max_examples=200, deadline=None)
@given(
    scores=st.lists(st.integers(0, 4), min_size=1, max_size=12),
    pick=st.integers(0, 11),
)
def test_pick_min_returns_a_member_of_the_argmin_set(scores, pick):
    candidates = list(range(len(scores)))
    best = min(scores)
    argmin = [node for node in candidates if scores[node] == best]
    rng = RecordingRng(integers=[pick % len(argmin)])
    chosen = pick_min(candidates, scores, rng.integers)
    assert chosen in argmin
    if len(argmin) == 1:
        assert rng.calls == []
    else:
        assert rng.calls == [("integers", 0, len(argmin))]


class TestVariates:
    """The buffered stream against the scalar ``Generator`` it wraps."""

    #: 2**31 + 1 rejects about half of its 32-bit draws (Lemire's loop).
    SPANS = [1, 2, 15, 16, 1023, 2**31 + 1, 2**32]

    def test_matches_scalar_generator_value_for_value(self):
        reference = np.random.default_rng(7)
        wrapped = np.random.default_rng(7)
        # Leave a uint32 half buffered in the generator before wrapping.
        assert reference.integers(0, 5) == wrapped.integers(0, 5)
        assert wrapped.bit_generator.state["has_uint32"] == 1
        stream = Variates(wrapped)
        script = np.random.default_rng(99)
        calls = 30_000  # ~30k raw draws: many block refills
        for _ in range(calls):
            if script.random() < 0.4:
                assert stream.random() == reference.random()
            else:
                span = self.SPANS[int(script.integers(0, len(self.SPANS)))]
                assert stream.integers(0, span) == reference.integers(0, span)
        # Same position afterwards: both give the same next values.
        assert stream.random() == reference.random()

    def test_offset_range(self):
        reference = np.random.default_rng(3)
        stream = Variates(np.random.default_rng(3))
        for _ in range(200):
            assert stream.integers(5, 12) == reference.integers(5, 12)

    def test_single_value_range_draws_nothing(self):
        stream = Variates(np.random.default_rng(1))
        reference = np.random.default_rng(1)
        assert [stream.integers(0, 1) for _ in range(10)] == [0] * 10
        assert stream.integers(4, 5) == 4
        assert stream.random() == reference.random()

    def test_non_pcg64_bit_generator_rejected(self):
        with pytest.raises(TypeError, match="PCG64"):
            Variates(np.random.Generator(np.random.MT19937(0)))

    def test_ranges_outside_32_bits_rejected(self):
        stream = Variates(np.random.default_rng(0))
        for low, high in ((0, 0), (3, 2), (0, 2**32 + 1)):
            with pytest.raises(ValueError, match="high - low"):
                stream.integers(low, high)
