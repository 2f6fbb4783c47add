"""Compute-unit lane: the unit of trace replay inside a GPU.

A lane models a group of compute units executing one stream of the kernel.
It advances through its access stream; each access becomes eligible ``gap``
cycles after the previous one was issued.  Latency hiding is modeled by the
lane *not* blocking on individual loads — instead a per-lane cap on
outstanding remote requests (wavefront-dependency pressure) plus the GPU's
global window bound how far it can run ahead.

The replay state is flat: three parallel integer tuples (``gaps``,
``addrs``, ``writes`` — the :class:`~repro.workloads.compiled.CompiledLane`
layout) and an index.  The device pump reads the arrays directly; no
per-access object ever exists on the replay path.  Every change to a
lane's issue state (:meth:`ComputeUnitLane.issue`, :meth:`ComputeUnitLane.hold`,
:meth:`ComputeUnitLane.complete`) returns the lane's new *readiness*: the
cycle its next access may issue, or :data:`NEVER` while it is exhausted or
at its cap.  The device caches that value per lane, so its pump never
re-derives readiness from the fields.  A legacy
``list[Access]`` trace is accepted and compiled on the way in, so unit
tests and ad-hoc callers can still hand the lane authoring-form traces.
"""

from __future__ import annotations

from enum import Enum

from repro.workloads.base import Access, AccessKind, LaneTrace
from repro.workloads.compiled import CompiledLane

#: readiness of a lane that cannot issue until something completes (or ever)
NEVER = 1 << 62


class LaneState(Enum):
    READY = "ready"  # next access eligible now
    WAITING = "waiting"  # gap not yet elapsed
    BLOCKED = "blocked"  # at its outstanding-request cap
    DONE = "done"  # trace exhausted


class ComputeUnitLane:
    """Replay state for one lane's access stream."""

    __slots__ = (
        "lane_id",
        "gaps",
        "addrs",
        "writes",
        "n",
        "max_outstanding",
        "index",
        "ready_at",
        "outstanding",
    )

    def __init__(
        self,
        lane_id: int,
        trace: LaneTrace | CompiledLane,
        max_outstanding: int = 4,
    ) -> None:
        if max_outstanding < 1:
            raise ValueError("lane needs at least one outstanding slot")
        if not isinstance(trace, CompiledLane):
            trace = CompiledLane(
                tuple(a.gap for a in trace),
                tuple(a.address for a in trace),
                tuple(1 if a.is_write else 0 for a in trace),
            )
        self.lane_id = lane_id
        self.gaps = trace.gaps
        self.addrs = trace.addrs
        self.writes = trace.writes
        self.n = len(trace.gaps)
        self.max_outstanding = max_outstanding
        self.index = 0
        self.ready_at = trace.gaps[0] if self.n else 0
        self.outstanding = 0

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.index >= self.n

    @property
    def drained(self) -> bool:
        """Trace exhausted and every issued request completed."""
        return self.index >= self.n and self.outstanding == 0

    def state(self, now: int) -> LaneState:
        if self.index >= self.n:
            return LaneState.DONE
        if self.outstanding >= self.max_outstanding:
            return LaneState.BLOCKED
        if now < self.ready_at:
            return LaneState.WAITING
        return LaneState.READY

    def readiness(self) -> int:
        """``ready_at`` while the lane may issue once its gap elapses, else
        :data:`NEVER` (exhausted, or at its outstanding cap)."""
        if self.index < self.n and self.outstanding < self.max_outstanding:
            return self.ready_at
        return NEVER

    def peek(self) -> Access:
        """The next access in authoring form (diagnostics/tests only —
        the hot path reads the arrays directly)."""
        if self.index >= self.n:
            raise IndexError(f"lane {self.lane_id} is exhausted")
        i = self.index
        return Access(
            gap=self.gaps[i],
            address=self.addrs[i],
            kind=AccessKind.WRITE if self.writes[i] else AccessKind.READ,
        )

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    def issue(self, now: int, consumes_slot: bool) -> int:
        """Issue the next access at cycle ``now``; returns the readiness.

        ``consumes_slot`` is True for an access that stalls on an IOMMU
        walk.  Cache hits and local writes complete immediately from the
        lane's point of view; any other access takes its slot through
        :meth:`hold` once it is routed.
        """
        index = self.index
        if index >= self.n or self.outstanding >= self.max_outstanding or now < self.ready_at:
            raise RuntimeError(f"lane {self.lane_id} not ready at {now}")
        index += 1
        self.index = index
        if consumes_slot:
            self.outstanding += 1
        if index < self.n:
            self.ready_at = now + self.gaps[index]
        return self.readiness()

    def hold(self) -> int:
        """An issued access takes an outstanding slot; returns the readiness."""
        self.outstanding += 1
        return self.readiness()

    def complete(self) -> int:
        """A previously issued outstanding access finished; returns the
        readiness."""
        if self.outstanding <= 0:
            raise RuntimeError(f"lane {self.lane_id} has nothing outstanding")
        self.outstanding -= 1
        return self.readiness()


__all__ = ["ComputeUnitLane", "LaneState", "NEVER"]
