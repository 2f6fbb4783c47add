"""Priority-class fair queuing for the dispatcher's admission queue.

The one dispatcher (:mod:`repro.service.scheduler`) behind both fronts —
``repro-sim serve`` and ``repro-sim fleet coordinator`` — drains every
admitted execution through one instance of this class.  The policy:

* **strict priority across classes** — while any ``high`` item is queued,
  no ``normal`` or ``low`` item is dispatched (and likewise ``normal``
  over ``low``).  Priorities are for *operators*: an interactive
  debugging client outranks the weekly full-matrix sweep by declaring
  itself ``high``, and a best-effort backfill declares ``low``;
* **round-robin across clients within a class** — one bulk submitter
  cannot starve another client *of the same class*: clients take turns,
  FIFO within each client, so every client with queued work is served
  within one full rotation (the starvation-freedom property
  ``tests/test_service.py`` pins down);
* starvation *across* classes is accepted by design — that is what
  "strict" means — and is the operator's dial, not the scheduler's.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterator

#: Admission classes, highest first.  The default sits in the middle so
#: both directions are available without reconfiguring existing clients.
PRIORITIES = ("high", "normal", "low")

DEFAULT_PRIORITY = "normal"


class PriorityRoundRobin:
    """Strict-priority classes, round-robin clients within, FIFO per client."""

    def __init__(self) -> None:
        # (priority, client) -> FIFO of items
        self._queues: dict[tuple[str, str], deque[Any]] = {}
        # priority -> rotation of clients holding queued work
        self._rotation: dict[str, deque[str]] = {p: deque() for p in PRIORITIES}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def push(self, item: Any, *, client: str, priority: str = DEFAULT_PRIORITY) -> None:
        """Enqueue ``item`` for ``client`` at ``priority``."""
        if priority not in PRIORITIES:
            raise ValueError(
                f"unknown priority {priority!r}; choose from {', '.join(PRIORITIES)}"
            )
        queue = self._queues.setdefault((priority, client), deque())
        # remove()/take() may have emptied the queue while the client kept
        # its (now stale) rotation slot — don't grant a second one.
        if not queue and client not in self._rotation[priority]:
            self._rotation[priority].append(client)
        queue.append(item)
        self._count += 1

    def pop(self) -> Any | None:
        """Dispatch the next item, or None when nothing is queued.

        Scans classes strictly highest-first; within the class takes the
        head of the next client in rotation.  A client with more items
        queued keeps its place in the rotation (at the back), so siblings
        from other clients interleave.
        """
        for priority in PRIORITIES:
            rotation = self._rotation[priority]
            while rotation:
                client = rotation.popleft()
                queue = self._queues.get((priority, client))
                if not queue:
                    continue  # emptied by remove()/take()
                item = queue.popleft()
                self._count -= 1
                if queue:
                    rotation.append(client)
                return item
        return None

    def remove(self, item: Any) -> bool:
        """Remove one queued item wherever it sits; False if not queued."""
        for queue in self._queues.values():
            try:
                queue.remove(item)
            except ValueError:
                continue
            self._count -= 1
            return True
        return False

    def take(self, predicate: Callable[[Any], bool]) -> list[Any]:
        """Remove and return every queued item matching ``predicate``.

        Order is deterministic: classes highest-first, clients in rotation
        order, FIFO within a client — the order :meth:`pop` would have
        produced.  Used to pull trace-key siblings into a batch that is
        being dispatched anyway.
        """
        taken: list[Any] = []
        for priority in PRIORITIES:
            for client in list(self._rotation[priority]):
                queue = self._queues.get((priority, client))
                if not queue:
                    continue
                matched = [item for item in queue if predicate(item)]
                for item in matched:
                    queue.remove(item)
                taken.extend(matched)
        self._count -= len(taken)
        return taken

    def __iter__(self) -> Iterator[Any]:
        """Every queued item (no particular cross-client order)."""
        for queue in self._queues.values():
            yield from queue


__all__ = ["DEFAULT_PRIORITY", "PRIORITIES", "PriorityRoundRobin"]
