"""The fleet coordinator: the dispatcher behind an authenticated TCP listener.

``repro-sim fleet coordinator`` is the same
:class:`~repro.service.scheduler.SimulationService` that ``repro-sim
serve`` runs, with two differences.  Requests arrive as
:class:`~repro.fleet.wire.FrameCodec`-sealed lines over TCP and are
answered by the same :func:`~repro.service.server.answer`; and units run
on a pool of leased workers instead of a local thread.  What this module
adds is that pool (full state machine in ``docs/SERVICE.md``):

* a worker's **lease** over its unit is renewed by every authenticated
  frame it sends (heartbeats flow even while a cell simulates, so a slow
  worker is not a dead worker);
* a worker whose lease expires — or whose connection drops — has the
  cells of its unit it has not answered put back in the dispatcher's
  queue; cells it already streamed back are kept;
* acceptance is **at-most-once per cell**: the first result for an
  execution wins, later copies (a stolen straggler finishing twice, a
  result for a lease already retired) are discarded and counted;
* each cell tolerates :data:`MAX_CELL_RETRIES` requeues; past that its
  tickets fail with a structured ``retries_exhausted`` error rather than
  looping forever;
* when the queue runs dry and a worker idles, the coordinator **steals
  the tail**: the unanswered cells of the longest-held lease older than
  ``steal_after_s`` are duplicate-assigned, and first-wins acceptance
  keeps the merge exact.

Worker and lease events land in the ``fleet.*`` namespace of the
dispatcher's registry; admission, queue and latency stay ``service.*``.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import Any

from repro.runner.serialize import report_from_dict
from repro.service import protocol
from repro.service.scheduler import Execution, ServiceError, SimulationService
from repro.service.server import answer, serve_until_signalled

from repro.fleet.wire import (
    DIR_FROM_COORDINATOR,
    DIR_TO_COORDINATOR,
    FrameCodec,
    FrameError,
    MAX_FRAME_BYTES,
    make_nonce,
)

#: Default lease: a worker silent for this long is presumed dead.
DEFAULT_LEASE_TIMEOUT_S = 15.0

#: Default straggler threshold: a lease older than this may be
#: duplicate-assigned to an idle worker (None disables stealing).
DEFAULT_STEAL_AFTER_S = 10.0

#: Requeues one cell tolerates before its tickets fail.
MAX_CELL_RETRIES = 3


class _Lease:
    """One unit assigned to one worker; cells are indexed by position."""

    __slots__ = ("lease_id", "executions", "worker", "assigned_at", "stolen")

    def __init__(self, lease_id: str, executions: list[Execution], worker: "_Peer", stolen: bool) -> None:
        self.lease_id = lease_id
        self.executions = executions
        self.worker = worker
        self.assigned_at = time.monotonic()
        self.stolen = stolen  # a stolen lease and its original are never stolen again

    def running(self) -> list[Execution]:
        return [e for e in self.executions if e.state == "running"]


class _Peer:
    """One authenticated connection (worker or client) and its send plumbing."""

    __slots__ = ("peer_id", "name", "reader", "writer", "codec", "send_lock", "last_seen", "lease", "completed", "closed")

    def __init__(self, peer_id: str, name: str, reader, writer, codec: FrameCodec) -> None:
        self.peer_id = peer_id
        self.name = name
        self.reader = reader
        self.writer = writer
        self.codec = codec
        self.send_lock = asyncio.Lock()
        self.last_seen = time.monotonic()
        self.lease: _Lease | None = None  # workers hold at most one lease
        self.completed = 0  # cells this worker delivered
        self.closed = False


class FleetCoordinator:
    """The dispatcher's TCP front and its leased worker pool.

    ``key``              the fleet's shared HMAC secret (bytes)
    ``host``/``port``    bind address (port 0 picks a free port; read
                         :attr:`port` after :meth:`start`)
    ``lease_timeout_s``  silence threshold before a worker is declared dead
    ``steal_after_s``    lease age before its tail is duplicate-assigned
                         (None disables work stealing)

    The coordinator is the executor of its :attr:`service`: the
    dispatcher calls :meth:`run` with each unit while :meth:`idle`.
    """

    def __init__(
        self,
        key: bytes,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        steal_after_s: float | None = DEFAULT_STEAL_AFTER_S,
    ) -> None:
        self.key = key
        self.host = host
        self.port = port
        self.lease_timeout_s = lease_timeout_s
        self.steal_after_s = steal_after_s
        self.service = SimulationService()
        self.service.executor = self
        self.telemetry = self.service.telemetry
        self._server: asyncio.AbstractServer | None = None
        self._workers: dict[str, _Peer] = {}
        self._clients: set[_Peer] = set()
        self._leases: dict[str, _Lease] = {}
        self._tasks: set[asyncio.Task] = set()
        self._next_peer = 0
        self._next_lease = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        await self.service.start()
        self._server = await asyncio.start_server(
            self._accept, host=self.host, port=self.port, limit=MAX_FRAME_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Shut down: answer outstanding work ``draining``, wave workers off."""
        if self._server is not None:
            self._server.close()
        await self.service.stop()
        await asyncio.sleep(0.05)  # let client handlers write their last answers
        for peer in list(self._workers.values()) + list(self._clients):
            self._hang_up(peer)
        for task in list(self._tasks):
            task.cancel()
        for task in list(self._tasks):
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        if self._server is not None:
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
            self._server = None

    def _spawn(self, coro) -> None:
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # ------------------------------------------------------------------
    # Executor interface (called by the dispatcher)
    # ------------------------------------------------------------------
    async def open(self) -> None:
        self._spawn(self._lease_loop())

    async def close(self) -> None:
        for worker in list(self._workers.values()):
            with contextlib.suppress(Exception):
                await self._send(worker, {"op": "shutdown"})

    def _idle_workers(self) -> list[_Peer]:
        return [w for w in self._workers.values() if w.lease is None and not w.closed]

    def idle(self) -> bool:
        return bool(self._idle_workers())

    def busy(self) -> bool:
        return bool(self._leases)

    async def run(self, unit: list[Execution]) -> None:
        await self._assign(self._idle_workers()[0], unit, stolen=False)

    async def steal(self) -> None:
        """Duplicate the oldest straggler's unanswered cells onto idle workers."""
        if self.steal_after_s is None:
            return
        for worker in self._idle_workers():
            if worker.closed or worker.lease is not None:
                continue  # changed while the previous steal was being sent
            now = time.monotonic()
            candidates = [
                lease
                for lease in self._leases.values()
                if not lease.stolen and lease.running() and now - lease.assigned_at >= self.steal_after_s
            ]
            if not candidates:
                return
            lease = min(candidates, key=lambda candidate: candidate.assigned_at)
            lease.stolen = True
            self.telemetry.counter("fleet.stolen").add(len(lease.running()))
            await self._assign(worker, lease.running(), stolen=True)

    def status(self) -> dict[str, Any]:
        now = time.monotonic()
        return {
            "workers": [
                {
                    "id": w.peer_id,
                    "name": w.name,
                    "completed": w.completed,
                    "inflight": len(w.lease.running()) if w.lease is not None else 0,
                    "idle_s": round(now - w.last_seen, 3),
                }
                for w in self._workers.values()
            ],
            "inflight_units": len(self._leases),
        }

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        codec = FrameCodec(self.key)
        try:
            line = await reader.readline()
            self.telemetry.counter("fleet.bytes_rx").add(len(line))
            hello = protocol.validate_hello(codec.open_hello(line))
        except (FrameError, ValueError) as exc:
            # Structured, unauthenticated rejection: the peer may not hold
            # the key, so there is nothing we could MAC that it can check.
            self.telemetry.counter("fleet.auth_failures").add(1)
            with contextlib.suppress(Exception):
                rejection = FrameCodec.seal_rejection("auth_failed", str(exc))
                writer.write(rejection)
                await writer.drain()
                self.telemetry.counter("fleet.bytes_tx").add(len(rejection))
            writer.close()
            return
        except (ConnectionError, asyncio.IncompleteReadError):
            writer.close()
            return
        self._next_peer += 1
        worker = hello["role"] == "worker"
        peer_id = f"{'w' if worker else 'c'}{self._next_peer}"
        nonce = make_nonce()
        codec.bind(hello["nonce"] + nonce, DIR_FROM_COORDINATOR, DIR_TO_COORDINATOR)
        peer = _Peer(peer_id, hello["name"], reader, writer, codec)
        try:
            await self._send(peer, protocol.welcome_body(nonce))
        except ConnectionError:
            writer.close()
            return
        if worker:
            self._workers[peer_id] = peer
            self.telemetry.gauge("fleet.workers").set(len(self._workers))
            self.service.wake()
            try:
                await self._worker_loop(peer)
            finally:
                self._worker_died(peer, reason="disconnect")
        else:
            self._clients.add(peer)
            try:
                while (body := await self._read(peer)) is not None:
                    await self._send(peer, await answer(self.service, body))
            except (FrameError, ConnectionError):
                pass
            finally:
                self._clients.discard(peer)
                self._hang_up(peer)

    async def _send(self, peer: _Peer, body: dict) -> None:
        async with peer.send_lock:
            line = peer.codec.seal(body)
            peer.writer.write(line)
            await peer.writer.drain()
        self.telemetry.counter("fleet.bytes_tx").add(len(line))

    async def _read(self, peer: _Peer) -> dict | None:
        """One authenticated frame, or None on EOF/teardown."""
        try:
            line = await peer.reader.readline()
        except (ConnectionError, asyncio.IncompleteReadError):
            return None
        if not line:
            return None
        self.telemetry.counter("fleet.bytes_rx").add(len(line))
        body = peer.codec.open(line)  # FleetAuthError propagates: hang up
        peer.last_seen = time.monotonic()
        return body

    def _hang_up(self, peer: _Peer) -> None:
        peer.closed = True
        with contextlib.suppress(Exception):
            peer.writer.close()

    # ------------------------------------------------------------------
    # Worker conversation
    # ------------------------------------------------------------------
    async def _worker_loop(self, peer: _Peer) -> None:
        while not peer.closed:
            try:
                body = await self._read(peer)
            except FrameError:
                return  # tampered/replayed frame: hang up, requeue its unit
            if body is None:
                return
            op = body.get("op")
            if op == "result":
                await self._accept_result(peer, body)
            elif op == "unit_done":
                self._retire(peer, body.get("unit"), reason="unit_done")
            elif op == "unit_failed":
                self._retire(peer, body.get("unit"), reason="execution_failed", detail=body.get("message", ""))
            # heartbeats (and unknown ops) only renew the lease in _read

    async def _accept_result(self, peer: _Peer, body: dict) -> None:
        lease = self._leases.get(body.get("unit", ""))
        index = body.get("cell")
        if (
            lease is None
            or lease.worker is not peer
            or not isinstance(index, int)
            or not 0 <= index < len(lease.executions)
            or lease.executions[index].state != "running"
        ):
            # Retired lease, or already accepted from a steal copy: first wins.
            self.telemetry.counter("fleet.duplicates_discarded").add(1)
            return
        self.service.complete(lease.executions[index], report_from_dict(body.get("report")))
        peer.completed += 1
        self.telemetry.counter("fleet.completed").add(1)
        # Release the other copy of a stolen unit once all its cells are
        # answered (an unstolen lease is retired by its holder's unit_done).
        for other in list(self._leases.values()):
            if other.stolen and other.worker is not peer and not other.running():
                self._drop_lease(other)
                with contextlib.suppress(ConnectionError, OSError):
                    await self._send(other.worker, {"op": "release", "unit": other.lease_id})
        self.service.wake()

    def _retire(self, peer: _Peer, lease_id: Any, *, reason: str, detail: str = "") -> None:
        """The holder finished (or failed) its lease: free it, requeue leftovers."""
        lease = self._leases.get(lease_id) if isinstance(lease_id, str) else None
        if lease is None or lease.worker is not peer:
            return
        self._drop_lease(lease)
        if reason == "unit_done":
            self.service.record_batch(time.monotonic() - lease.assigned_at)
        self._requeue(lease, reason=reason, detail=detail)

    def _worker_died(self, peer: _Peer, *, reason: str) -> None:
        if self._workers.pop(peer.peer_id, None) is not None:
            self._hang_up(peer)
            self.telemetry.gauge("fleet.workers").set(len(self._workers))
        if peer.lease is not None:  # None when already reaped (lease expiry racing EOF)
            lease = peer.lease
            self._drop_lease(lease)
            self._requeue(lease, reason=reason, detail=f"worker {peer.name} lost")

    def _drop_lease(self, lease: _Lease) -> None:
        self._leases.pop(lease.lease_id, None)
        if lease.worker.lease is lease:
            lease.worker.lease = None
        self.service.wake()

    def _requeue(self, lease: _Lease, *, reason: str, detail: str) -> None:
        """Give a dropped lease's unanswered cells another attempt, or fail them."""
        held = {e for other in self._leases.values() for e in other.executions}
        remaining = [e for e in lease.running() if e not in held]
        if not remaining:
            return
        for execution in remaining:
            execution.attempts += 1
        if max(e.attempts for e in remaining) > MAX_CELL_RETRIES:
            code = "execution_failed" if reason == "execution_failed" else "retries_exhausted"
            message = f"cell failed {MAX_CELL_RETRIES + 1} assignments (last: {detail or reason})"
            self.service.fail(remaining, ServiceError(code, message))
            return
        if reason == "lease_expired":
            self.telemetry.counter("fleet.lease_expired").add(1)
        self.telemetry.counter("fleet.reassigned").add(len(remaining))
        self.service.requeue(remaining)

    async def _assign(self, worker: _Peer, unit: list[Execution], *, stolen: bool) -> None:
        self._next_lease += 1
        lease = _Lease(f"u{self._next_lease:06d}", unit, worker, stolen)
        self._leases[lease.lease_id] = worker.lease = lease
        cells = [{"index": i, "job": protocol.job_to_wire(e.job)} for i, e in enumerate(unit)]
        try:
            await self._send(worker, {"op": "assign", "unit": lease.lease_id, "cells": cells})
        except (ConnectionError, OSError):
            self._worker_died(worker, reason="disconnect")

    async def _lease_loop(self) -> None:
        tick = max(0.05, self.lease_timeout_s / 4)
        while True:
            await asyncio.sleep(tick)
            now = time.monotonic()
            for worker in list(self._workers.values()):
                if now - worker.last_seen > self.lease_timeout_s:
                    self._worker_died(worker, reason="lease_expired")
            self.service.wake()  # re-check straggler ages for stealing


def run_coordinator(
    key: bytes,
    host: str,
    port: int,
    *,
    lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
    steal_after_s: float | None = DEFAULT_STEAL_AFTER_S,
    port_file: str | None = None,
) -> int:
    """Blocking CLI entry: serve until SIGTERM/SIGINT, then stop cleanly."""
    coordinator = FleetCoordinator(
        key, host, port, lease_timeout_s=lease_timeout_s, steal_after_s=steal_after_s
    )

    async def start() -> None:
        await coordinator.start()
        if port_file:
            from repro.runner.atomic import atomic_write_text

            atomic_write_text(port_file, f"{coordinator.port}\n")

    try:
        return asyncio.run(
            serve_until_signalled(
                start,
                coordinator.stop,
                lambda: f"listening on {coordinator.host}:{coordinator.port}",
                "repro-sim fleet coordinator",
            )
        )
    except KeyboardInterrupt:
        return 0


__all__ = [
    "DEFAULT_LEASE_TIMEOUT_S",
    "DEFAULT_STEAL_AFTER_S",
    "MAX_CELL_RETRIES",
    "FleetCoordinator",
    "run_coordinator",
]
