"""The fleet worker: one host's cores, leased to the coordinator.

``repro-sim fleet serve-worker`` dials the coordinator, proves knowledge
of the fleet key in its first frame, and then serves assignments until
released: each **assign** frame carries a work unit — cells sharing one
trace key — which the worker executes strictly in the order sent through
the exact :func:`~repro.runner.jobs.execute_job` path a local sweep
uses.  The shared :class:`~repro.runner.trace_store.TraceStore` means
the unit's trace is generated (or loaded) once and every sibling cell
reuses it.

Cells simulate in a thread-pool executor, so the event loop keeps
breathing: **heartbeats** flow on schedule even while a cell grinds,
which is precisely what lets the coordinator tell a *slow* worker (alive,
heartbeating, lease renewed) from a *dead* one (silent past the lease
timeout).  Per-cell results stream back as they finish — a worker that
dies mid-unit has already banked everything it completed, and only the
remainder is reassigned.

A **release** frame (the unit finished elsewhere, or its sweep failed)
takes effect at the next cell boundary; a **shutdown** frame ends the
session.  Transient connection loss triggers bounded reconnection with
backoff; an authentication rejection does not (a wrong key never heals
by retrying).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import socket
import time
from functools import partial

from repro.runner.jobs import execute_job
from repro.runner.serialize import report_to_dict
from repro.runner.trace_store import default_trace_store
from repro.service import protocol

from repro.fleet.wire import (
    FleetAuthError,
    FrameCodec,
    FrameError,
    MAX_FRAME_BYTES,
    finish_handshake,
    make_nonce,
)

#: Default heartbeat cadence; keep several beats inside one lease timeout.
DEFAULT_HEARTBEAT_S = 2.0

#: Reconnect backoff schedule after transient connection loss.
RECONNECT_DELAYS = (0.5, 1.0, 2.0, 4.0)


class FleetWorker:
    """One authenticated worker session against a coordinator.

    :meth:`run` performs the handshake and serves until shutdown, release
    of the connection, or connection loss (raised as ``ConnectionError``
    so the caller can decide whether to reconnect).
    """

    def __init__(
        self,
        host: str,
        port: int,
        key: bytes,
        *,
        name: str | None = None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    ) -> None:
        self.host = host
        self.port = port
        self.key = key
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.heartbeat_s = heartbeat_s
        self.trace_store = default_trace_store()
        self.cells_done = 0
        self.units_done = 0
        self.shutdown_seen = False
        self._codec: FrameCodec | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._send_lock = asyncio.Lock()
        self._released: set[str] = set()  # units to abandon at the next cell boundary
        self._unit_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Session
    # ------------------------------------------------------------------
    async def run(self) -> None:
        reader, writer = await asyncio.open_connection(
            self.host, self.port, limit=MAX_FRAME_BYTES
        )
        codec = FrameCodec(self.key)
        self._codec = codec
        self._writer = writer
        try:
            nonce = make_nonce()
            writer.write(codec.seal_hello(protocol.hello_body("worker", self.name, nonce)))
            await writer.drain()
            finish_handshake(codec, await reader.readline(), nonce)
            heartbeat = asyncio.ensure_future(self._heartbeat_loop())
            try:
                await self._serve(reader)
            finally:
                heartbeat.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await heartbeat
                for task in list(self._unit_tasks):
                    task.cancel()
                for task in list(self._unit_tasks):
                    with contextlib.suppress(asyncio.CancelledError, Exception):
                        await task
        finally:
            self._writer = None
            with contextlib.suppress(Exception):
                writer.close()

    async def _serve(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                if self.shutdown_seen:
                    return
                raise ConnectionError("coordinator connection lost")
            body = self._codec.open(line)  # FleetAuthError propagates: bail out
            op = body.get("op")
            if op == "assign":
                self._start_unit(body)
            elif op == "release":
                self._released.add(body.get("unit"))
            elif op == "shutdown":
                self.shutdown_seen = True
                return
            # unknown coordinator ops are ignored (forward compatibility)

    async def _heartbeat_loop(self) -> None:
        while True:
            await asyncio.sleep(self.heartbeat_s)
            try:
                await self._send({"op": "heartbeat"})
            except (ConnectionError, OSError):
                return

    async def _send(self, body: dict) -> None:
        writer = self._writer
        if writer is None:
            raise ConnectionError("worker session is closed")
        # Counter assignment and the write must be atomic, or interleaved
        # sends would hit the wire out of counter order and the coordinator
        # would (correctly) reject them as reordered.
        async with self._send_lock:
            writer.write(self._codec.seal(body))
            await writer.drain()

    # ------------------------------------------------------------------
    # Unit execution
    # ------------------------------------------------------------------
    def _start_unit(self, body: dict) -> None:
        cells, unit_id = body.get("cells"), body.get("unit")
        if isinstance(cells, list) and isinstance(unit_id, str):
            task = asyncio.ensure_future(self._run_unit(unit_id, cells))
            self._unit_tasks.add(task)
            task.add_done_callback(self._unit_tasks.discard)

    async def _run_unit(self, unit_id: str, cells: list[dict]) -> None:
        loop = asyncio.get_running_loop()
        try:
            for entry in cells:
                if unit_id in self._released:
                    break
                index, cell = entry["index"], entry["job"]
                try:
                    job = protocol.job_from_wire(cell)
                    report = await loop.run_in_executor(
                        None, partial(execute_job, job, trace_store=self.trace_store)
                    )
                except (ConnectionError, asyncio.CancelledError):
                    raise
                except Exception as exc:  # deterministic cell failure
                    await self._send(
                        {
                            "op": "unit_failed",
                            "unit": unit_id,
                            "cell": index,
                            "message": f"{type(exc).__name__}: {exc}",
                        }
                    )
                    return
                if unit_id in self._released:
                    break
                await self._send(
                    {
                        "op": "result",
                        "unit": unit_id,
                        "cell": index,
                        "report": report_to_dict(report),
                    }
                )
                self.cells_done += 1
            if unit_id not in self._released:
                await self._send({"op": "unit_done", "unit": unit_id})
                self.units_done += 1
        except (ConnectionError, OSError):
            return  # the serve loop notices and handles reconnection
        finally:
            self._released.discard(unit_id)


async def _serve_with_reconnects(worker: FleetWorker) -> int:
    """Run sessions until shutdown; back off and redial after transient loss."""
    attempt = 0
    while True:
        started = time.monotonic()
        try:
            print(
                f"repro-sim fleet worker {worker.name}: connecting to {worker.host}:{worker.port}",
                flush=True,
            )
            await worker.run()
        except FleetAuthError as exc:
            print(f"repro-sim fleet worker: {exc}", flush=True)
            return 1
        except FrameError as exc:
            print(f"repro-sim fleet worker: protocol error: {exc}", flush=True)
            return 1
        except (ConnectionError, OSError) as exc:
            if time.monotonic() - started > 2 * max(RECONNECT_DELAYS):
                attempt = 0  # a session that lasted a while resets the backoff
            if attempt >= len(RECONNECT_DELAYS):
                print(f"repro-sim fleet worker: giving up: {exc}", flush=True)
                return 1
            delay = RECONNECT_DELAYS[attempt]
            attempt += 1
            print(
                f"repro-sim fleet worker: connection lost ({exc}); "
                f"retrying in {delay:.1f}s",
                flush=True,
            )
            await asyncio.sleep(delay)
            continue
        print(
            f"repro-sim fleet worker {worker.name}: done "
            f"({worker.cells_done} cells, {worker.units_done} units)",
            flush=True,
        )
        return 0


def run_worker(
    key: bytes,
    host: str,
    port: int,
    *,
    name: str | None = None,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
) -> int:
    """Blocking CLI entry: serve the coordinator until shutdown."""
    worker = FleetWorker(host, port, key, name=name, heartbeat_s=heartbeat_s)
    try:
        return asyncio.run(_serve_with_reconnects(worker))
    except KeyboardInterrupt:
        return 0


__all__ = [
    "DEFAULT_HEARTBEAT_S",
    "RECONNECT_DELAYS",
    "FleetWorker",
    "run_worker",
]
