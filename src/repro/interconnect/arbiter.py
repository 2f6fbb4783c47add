"""Round-robin arbitration among competing requesters.

Used where several logical streams contend for one resource in the same
cycle.  Round-robin matches the fair wavefront schedulers of the modeled
hardware and keeps runs deterministic.  The GPU issue pump grants its
compute-unit lanes in exactly this order but inlines the rotation into its
scan of cached lane readiness (``GpuDevice._pump``), so it never builds a
request list.
"""

from __future__ import annotations

from typing import Hashable, Iterable


class RoundRobinArbiter:
    """Grants one requester at a time, rotating the priority pointer."""

    def __init__(self, participants: Iterable[Hashable]) -> None:
        self._order: list[Hashable] = list(participants)
        if len(set(self._order)) != len(self._order):
            raise ValueError("arbiter participants must be unique")
        self._next = 0

    @property
    def participants(self) -> list[Hashable]:
        return list(self._order)

    def add(self, participant: Hashable) -> None:
        if participant in self._order:
            raise ValueError(f"{participant!r} already participates")
        self._order.append(participant)

    def grant(self, requesting: Iterable[Hashable]) -> Hashable | None:
        """Pick the next requester in round-robin order, or None."""
        if not self._order:
            return None
        request_set = set(requesting)
        if not request_set:
            return None
        n = len(self._order)
        for offset in range(n):
            idx = (self._next + offset) % n
            candidate = self._order[idx]
            if candidate in request_set:
                self._next = (idx + 1) % n
                return candidate
        return None

    def grant_all(self, requesting: Iterable[Hashable], slots: int) -> list[Hashable]:
        """Grant up to ``slots`` distinct requesters in rotation order."""
        granted: list[Hashable] = []
        remaining = set(requesting)
        while len(granted) < slots and remaining:
            winner = self.grant(remaining)
            if winner is None:
                break
            granted.append(winner)
            remaining.discard(winner)
        return granted


__all__ = ["RoundRobinArbiter"]
