"""PadStream semantics: the hit/partial/miss timing model."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.secure.otp_buffer import HIT_GRANT, PadOutcome, PadStream

L = 40  # generation latency used throughout


class TestConsume:
    def test_prefilled_pads_hit(self):
        s = PadStream(L, capacity=4)
        for _ in range(4):
            g = s.consume(now=100)
            # burst of 4 against capacity 4: all pads were ready
            assert g.outcome is PadOutcome.HIT
            assert g.wait == 0

    def test_burst_beyond_capacity_waits(self):
        s = PadStream(L, capacity=2)
        assert s.consume(0).outcome is PadOutcome.HIT
        assert s.consume(0).outcome is PadOutcome.HIT
        # everything past the capacity pays one on-demand generation —
        # never more, because the engine is fully pipelined
        for _ in range(5):
            g = s.consume(0)
            assert g.wait == L
            assert g.outcome is PadOutcome.MISS

    def test_partial_when_refill_in_flight(self):
        s = PadStream(L, capacity=1)
        s.consume(0)  # hit; refill ready at 40
        g = s.consume(30)
        assert g.wait == 10
        assert g.outcome is PadOutcome.PARTIAL

    def test_spaced_requests_always_hit(self):
        s = PadStream(L, capacity=1)
        for t in range(0, 500, L + 1):
            assert s.consume(t).outcome is PadOutcome.HIT

    def test_zero_capacity_always_misses_full_latency(self):
        s = PadStream(L, capacity=0)
        for t in (0, 5, 1000):
            g = s.consume(t)
            assert g.outcome is PadOutcome.MISS and g.wait == L

    def test_unprefilled_stream_warms_up(self):
        s = PadStream(L, capacity=2, now=0, prefilled=False)
        g = s.consume(0)
        assert g.outcome is PadOutcome.MISS and g.wait == L
        assert s.consume(200).outcome is PadOutcome.HIT

    def test_desync_costs_full_latency_then_recovers(self):
        s = PadStream(L, capacity=1)
        g = s.consume_desync(10)
        assert g.outcome is PadOutcome.MISS and g.wait == L
        # back-to-back follow-up: the regenerated next pad is ready at 10+L
        g2 = s.consume(10 + L)
        assert g2.outcome is PadOutcome.HIT

    def test_grant_hidden_property(self):
        s = PadStream(L, capacity=1)
        assert s.consume(0).hidden
        assert not s.consume(0).hidden


class TestCapacityManagement:
    def test_grow_adds_generating_pads(self):
        s = PadStream(L, capacity=0)
        s.grow(now=100, n=2)
        assert s.capacity == 2
        assert s.consume(100).wait == L  # still generating
        assert s.consume(100 + L).wait == 0

    def test_shrink_drops_least_ready_first(self):
        s = PadStream(L, capacity=2)
        s.consume(0)  # one pad now regenerating (ready at 40)
        assert s.shrink(1) == 1
        # the remaining pad is the ready one
        assert s.consume(1).outcome is PadOutcome.HIT

    def test_shrink_more_than_capacity(self):
        s = PadStream(L, capacity=2)
        assert s.shrink(5) == 2
        assert s.capacity == 0

    def test_set_capacity_both_directions(self):
        s = PadStream(L, capacity=4)
        s.set_capacity(0, 1)
        assert s.capacity == 1
        s.set_capacity(0, 6)
        assert s.capacity == 6

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            PadStream(0, 1)
        with pytest.raises(ValueError):
            PadStream(L, -1)
        s = PadStream(L, 1)
        with pytest.raises(ValueError):
            s.grow(0, -1)
        with pytest.raises(ValueError):
            s.shrink(-1)
        with pytest.raises(ValueError):
            s.set_capacity(0, -2)


class TestAccounting:
    def test_consumed_counter(self):
        s = PadStream(L, capacity=1)
        s.consume(0)
        s.consume_desync(1)
        assert s.consumed == 2

    def test_earliest_ready_reporting(self):
        s = PadStream(L, capacity=1)
        assert s.earliest_ready() == 0
        s.consume(5)
        assert s.earliest_ready() == 5 + L
        s.shrink(1)
        assert s.earliest_ready() is None


# ---------------------------------------------------------------------------
# Differential: consume() against the clamp-and-classify formula
# ---------------------------------------------------------------------------
class _ReferencePads:
    """The pad heap with the wait computed as ``min(max(0, ready - now),
    latency)`` and classified afterwards, one grant per call."""

    def __init__(self, latency: int, capacity: int, prefilled: bool) -> None:
        self.latency = latency
        self.ready = [0 if prefilled else latency] * capacity
        heapq.heapify(self.ready)

    def classify(self, wait: int) -> PadOutcome:
        if wait <= 0:
            return PadOutcome.HIT
        if wait < self.latency:
            return PadOutcome.PARTIAL
        return PadOutcome.MISS

    def consume(self, now: int) -> tuple[int, PadOutcome]:
        if not self.ready:
            return self.latency, PadOutcome.MISS
        ready = heapq.heappop(self.ready)
        wait = min(max(0, ready - now), self.latency)
        heapq.heappush(self.ready, now + self.latency)
        return wait, self.classify(wait)

    def consume_desync(self, now: int) -> tuple[int, PadOutcome]:
        if self.ready:
            heapq.heappop(self.ready)
            heapq.heappush(self.ready, now + self.latency)
        return self.latency, PadOutcome.MISS

    def grow(self, now: int, n: int) -> None:
        for _ in range(n):
            heapq.heappush(self.ready, now + self.latency)

    def shrink(self, n: int) -> None:
        for _ in range(min(n, len(self.ready))):
            self.ready.remove(max(self.ready))
        heapq.heapify(self.ready)

    def set_capacity(self, now: int, capacity: int) -> None:
        delta = capacity - len(self.ready)
        if delta > 0:
            self.grow(now, delta)
        else:
            self.shrink(-delta)


_pad_ops = st.lists(
    st.tuples(
        st.sampled_from(["consume", "consume_desync", "grow", "shrink", "set_capacity"]),
        st.integers(0, 60),  # cycles since the previous operation
        st.integers(0, 6),  # entry count for grow / shrink / set_capacity
    ),
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(
    latency=st.integers(1, 50),
    capacity=st.integers(0, 6),
    prefilled=st.booleans(),
    ops=_pad_ops,
)
def test_consume_matches_the_clamp_formula(latency, capacity, prefilled, ops):
    stream = PadStream(latency, capacity, prefilled=prefilled)
    ref = _ReferencePads(latency, capacity, prefilled)
    now = 0
    for op, gap, n in ops:
        now += gap
        if op in ("consume", "consume_desync"):
            grant = getattr(stream, op)(now)
            assert (grant.wait, grant.outcome) == getattr(ref, op)(now)
            if grant.outcome is PadOutcome.HIT:
                assert grant is HIT_GRANT
        elif op == "grow":
            stream.grow(now, n)
            ref.grow(now, n)
        elif op == "shrink":
            stream.shrink(n)
            ref.shrink(n)
        else:
            stream.set_capacity(now, n)
            ref.set_capacity(now, n)
        assert stream._ready == ref.ready
