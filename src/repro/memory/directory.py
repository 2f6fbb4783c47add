"""Block directory: outstanding remote block fetches with request merging.

When several compute-unit lanes of one GPU miss on the same remote 64 B
block while a fetch is already in flight, the hardware merges them into the
existing MSHR entry instead of issuing duplicate interconnect requests.
This directory provides that merging, which matters for traffic fidelity:
without it, bursty lanes would multiply remote traffic that real GPUs
coalesce.
"""

from __future__ import annotations

from typing import Callable


class BlockDirectory:
    """Tracks in-flight block fetches per requesting node."""

    def __init__(self) -> None:
        # (node, block) -> list of completion callbacks
        self._pending: dict[tuple[int, int], list[Callable[[int], None]]] = {}
        self.merged = 0
        self.issued = 0

    def request(
        self, node: int, block: int, on_complete: Callable[[int], None]
    ) -> bool:
        """Register interest in ``block``.

        Returns True if the caller must issue a new fetch, False if it was
        merged into an in-flight one.  ``on_complete(finish_cycle)`` fires
        when the data arrives either way.
        """
        key = (node, block)
        waiters = self._pending.get(key)
        if waiters is not None:
            waiters.append(on_complete)
            self.merged += 1
            return False
        self._pending[key] = [on_complete]
        self.issued += 1
        return True

    def complete(self, node: int, block: int, finish_cycle: int) -> int:
        """Fire all waiters for ``block``; returns how many were woken."""
        waiters = self._pending.pop((node, block), None)
        if waiters is None:
            raise KeyError(f"no pending fetch for node {node} block {block}")
        for callback in waiters:
            callback(finish_cycle)
        return len(waiters)

    def clear(self) -> None:
        """Forget every in-flight fetch and its waiters."""
        self._pending.clear()

    def in_flight(self, node: int, block: int) -> bool:
        return (node, block) in self._pending

    def pending_count(self, node: int | None = None) -> int:
        if node is None:
            return len(self._pending)
        return sum(1 for key in self._pending if key[0] == node)


__all__ = ["BlockDirectory"]
