"""The control plane's one dispatcher: admission, dedup, units, executors.

:class:`SimulationService` is the core behind both fronts — ``repro-sim
serve`` (Unix socket) and ``repro-sim fleet coordinator`` (TCP).  It
turns independent client submissions into the same batched, cached,
trace-sharing execution a one-shot sweep gets from
:class:`~repro.runner.sweep.SweepRunner`.  The policy (full rationale in
``docs/SERVICE.md``):

* **cache short-circuit** — a submission whose
  :func:`~repro.runner.jobs.job_key` is already in the
  :class:`~repro.runner.cache.ResultCache` is answered immediately,
  without occupying a queue slot;
* **single-flight dedup** — identical cells submitted while one is queued
  or running coalesce onto that execution: one simulation, every
  subscriber gets the full report;
* **bounded admission with explicit backpressure** — at most ``max_queue``
  executions may be queued; past that, submissions are rejected with a
  structured ``queue_full`` error carrying ``retry_after_s`` (an EWMA of
  recent unit wall time), never dropped silently.  A multi-cell
  ``sweep`` is admitted whole while the queue has room, so one large
  sweep is never unadmittable;
* **priority classes with per-client fairness** — one
  :class:`~repro.service.queues.PriorityRoundRobin`: strict priority
  across ``high`` / ``normal`` / ``low``, round-robin across clients
  within a class, FIFO within a client;
* **trace-key units** — when an execution is dispatched, every queued
  execution sharing its :func:`~repro.runner.trace_store.job_trace_key`
  rides along in the same unit, so cells that differ only in scheme
  replay one generated trace;
* **cancellation and deadlines** — a queued ticket cancels instantly; an
  in-flight ticket detaches (the simulation completes and warms the cache
  for the next asker).  A lapsed ``deadline_s`` resolves with a
  structured ``deadline_exceeded`` error, never a hang;
* **ordered merge** — :meth:`SimulationService.sweep` admits every cell
  and returns the reports in input order, failing fast with the first
  failed cell's structured error;
* **graceful drain** — :meth:`drain` stops admission (``draining``
  rejections) and completes every admitted execution before returning.

Units run on an **executor**.  :class:`LocalExecutor` (the default) runs
one unit at a time on a worker thread through ``SweepRunner.run_jobs``
(its process pool parallelizes within the unit); the fleet coordinator
installs its leased TCP worker pool instead
(:class:`~repro.fleet.coordinator.FleetCoordinator`).  Either way every
report comes from the same ``execute_job`` path a direct run uses, so a
served report is byte-identical (canonical JSON) to the same cell run
directly.

Dispatcher health is observable through the ``service.*`` namespace on
:attr:`SimulationService.telemetry`; ``repro-sim status --metrics``
exports it from a live server.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Sequence

from repro.configs import scheme_config
from repro.obs import Telemetry
from repro.runner import ResultCache, SweepJob, SweepRunner, job_key
from repro.runner.trace_store import job_trace_key
from repro.service.queues import DEFAULT_PRIORITY, PRIORITIES, PriorityRoundRobin
from repro.system import SimulationReport
from repro.workloads import get_workload

#: Edges (milliseconds) of the ``service.latency.*`` histograms.
LATENCY_EDGES_MS = [10, 50, 250, 1000, 5000, 30000]

#: Every state a ticket can be in.
TICKET_STATES = ("queued", "running", "done", "cancelled", "expired", "failed")

#: Finished tickets kept for ``status`` lookups before being forgotten.
HISTORY_LIMIT = 1024


class ServiceError(Exception):
    """A structured, client-visible scheduling failure."""

    def __init__(self, code: str, message: str, retry_after_s: float | None = None) -> None:
        super().__init__(message)
        self.code = code
        self.retry_after_s = retry_after_s


def job_from_spec(spec: dict[str, Any]) -> SweepJob:
    """Build the :class:`SweepJob` a validated wire submission describes.

    Raises :class:`KeyError` for a workload the registry does not know —
    the server maps that to an ``unknown_workload`` response.
    """
    return SweepJob(
        spec=get_workload(spec["workload"]),
        config=scheme_config(spec["scheme"], n_gpus=spec["gpus"]),
        seed=spec["seed"],
        scale=spec["scale"],
        n_lanes=spec["n_lanes"],
    )


@dataclass
class Ticket:
    """One client submission: its identity, its future, its lifecycle."""

    job_id: str
    client: str
    job: SweepJob
    future: asyncio.Future
    state: str = "queued"
    source: str = "run"  # "run" | "coalesced" | "cache"
    submitted_at: float = field(default_factory=perf_counter)
    deadline_handle: asyncio.TimerHandle | None = None
    report: SimulationReport | None = None
    execution: "Execution | None" = None

    def describe(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "client": self.client,
            "cell": self.job.describe(),
            "state": self.state,
            "source": self.source,
            "priority": (
                self.execution.priority if self.execution is not None else DEFAULT_PRIORITY
            ),
        }


class Execution:
    """One distinct cell of simulation work and the tickets subscribed to it.

    ``state`` is ``queued`` -> ``running`` -> ``done`` | ``failed``; an
    executor that loses a worker puts it back to ``queued``.  ``attempts``
    counts such requeues (bounded by the fleet's retry limit).
    """

    __slots__ = ("job", "key", "trace_key", "client", "priority", "tickets", "state", "attempts")

    def __init__(
        self, job: SweepJob, key: object, client: str, priority: str = DEFAULT_PRIORITY
    ) -> None:
        self.job = job
        self.key = key  # job_key string, or the SweepJob itself when uncacheable
        self.trace_key = job_trace_key(job)
        self.client = client  # fairness queue this execution waits in
        self.priority = priority  # admission class it waits at
        self.tickets: list[Ticket] = []
        self.state = "queued"
        self.attempts = 0

    def live_tickets(self) -> list[Ticket]:
        return [t for t in self.tickets if not t.future.done()]


class LocalExecutor:
    """Runs one unit at a time on a worker thread via ``SweepRunner.run_jobs``.

    ``run_jobs`` is synchronous and the runner's stats are not
    thread-safe, hence one thread; parallelism *within* a unit is the
    runner's own process pool, governed by ``jobs``.
    """

    def __init__(self, service: "SimulationService") -> None:
        self.service = service
        self._thread: ThreadPoolExecutor | None = None
        self._task: asyncio.Task | None = None

    async def open(self) -> None:
        self._thread = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-service")

    async def close(self) -> None:
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
        if self._thread is not None:
            self._thread.shutdown(wait=True, cancel_futures=True)
            self._thread = None

    def idle(self) -> bool:
        return self._task is None

    def busy(self) -> bool:
        return self._task is not None

    async def run(self, unit: list[Execution]) -> None:
        self._task = asyncio.ensure_future(self._run(unit))

    async def steal(self) -> None:
        """One thread holds at most one unit: nothing to duplicate."""

    def status(self) -> dict[str, Any]:
        return {}

    async def _run(self, unit: list[Execution]) -> None:
        service = self.service
        started = perf_counter()
        try:
            reports = await asyncio.get_running_loop().run_in_executor(
                self._thread, service.runner.run_jobs, [e.job for e in unit]
            )
        except Exception as exc:
            service.fail(unit, ServiceError("execution_failed", f"batch failed: {exc}"))
        else:
            service.record_batch(perf_counter() - started)
            for execution, report in zip(unit, reports):
                service.complete(execution, report)
        finally:
            self._task = None
            service.wake()


class SimulationService:
    """The dispatcher: admission, dedup, units, fairness, sweeps, drain.

    ``jobs`` / ``cache`` / ``fleet_addr`` / ``fleet_key`` configure the
    :class:`SweepRunner` the local executor runs units on (with
    ``fleet_addr`` that runner forwards them to a fleet coordinator);
    ``max_queue`` bounds admitted-but-unstarted executions.  Use as an
    async context manager, or call :meth:`start` / :meth:`stop`
    explicitly from a running event loop.
    """

    def __init__(
        self,
        *,
        jobs: int | None = None,
        cache: ResultCache | None = None,
        max_queue: int = 64,
        fleet_addr: str | None = None,
        fleet_key: bytes | None = None,
    ) -> None:
        self.runner = SweepRunner(jobs=jobs, cache=cache, fleet_addr=fleet_addr, fleet_key=fleet_key)
        self.cache = cache
        self.max_queue = max_queue
        self.telemetry = Telemetry()
        # LocalExecutor, or the coordinator's leased pool (same methods)
        self.executor: Any = LocalExecutor(self)
        self._dispatcher: asyncio.Task | None = None
        self._wake = asyncio.Event()
        self._drained = asyncio.Event()
        self._draining = False
        self._running = False
        self._queue = PriorityRoundRobin()
        self._inflight: dict[object, Execution] = {}  # key -> queued/running execution
        # ticket registry (bounded history)
        self._tickets: dict[str, Ticket] = {}
        self._finished: deque[str] = deque()
        self._next_id = 0
        self._batch_ewma_s = 1.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._draining = False
        self._drained.clear()
        await self.executor.open()
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())

    async def stop(self) -> None:
        """Hard stop: halt dispatch and the executor; every unresolved
        ticket is answered ``draining`` so no waiter hangs."""
        self._running = False
        self._draining = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except (asyncio.CancelledError, Exception):
                pass
            self._dispatcher = None
        await self.executor.close()
        stopped = ServiceError("draining", "server stopped before the job finished")
        for ticket in list(self._tickets.values()):
            if not ticket.future.done():
                self._reject(ticket, stopped, "failed")

    async def drain(self) -> None:
        """Stop admitting, finish every admitted execution, then return."""
        self._draining = True
        self.wake()
        if len(self._queue) == 0 and not self.executor.busy():
            self._drained.set()
        await self._drained.wait()

    async def __aenter__(self) -> "SimulationService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    @property
    def draining(self) -> bool:
        return self._draining

    def wake(self) -> None:
        """Ask the dispatch loop for another pass (executors call this)."""
        self._wake.set()

    # ------------------------------------------------------------------
    # Submission / cancellation / introspection
    # ------------------------------------------------------------------
    def _gate(self, priority: str, cells: int) -> None:
        """Checks every submission passes before any cell is admitted."""
        if priority not in PRIORITIES:
            raise ServiceError(
                "bad_request",
                f"unknown priority {priority!r}; choose from {', '.join(PRIORITIES)}",
            )
        self.telemetry.counter("service.submitted").add(cells)
        if self._draining:
            self.telemetry.counter("service.rejected").add(1)
            raise ServiceError("draining", "server is draining; resubmit elsewhere/later")

    def _queue_full(self) -> ServiceError:
        self.telemetry.counter("service.rejected").add(1)
        return ServiceError(
            "queue_full",
            f"admission queue is full ({self.max_queue} executions)",
            retry_after_s=round(max(0.1, self._batch_ewma_s), 3),
        )

    def submit(
        self,
        job: SweepJob,
        *,
        client: str = "anonymous",
        priority: str = DEFAULT_PRIORITY,
        deadline_s: float | None = None,
    ) -> Ticket:
        """Admit one cell; returns its :class:`Ticket` (await ``.future``).

        Raises :class:`ServiceError` with code ``draining`` or
        ``queue_full`` (both retryable rejections) or ``bad_request``
        for an unknown priority class.
        """
        self._gate(priority, 1)
        return self._admit(job, client, priority, deadline_s, bounded=True)

    def submit_spec(self, request: dict[str, Any]) -> Ticket:
        """Admit a validated wire submission (see :func:`job_from_spec`)."""
        return self.submit(
            job_from_spec(request["job"]),
            client=request.get("client", "anonymous"),
            priority=request.get("priority", DEFAULT_PRIORITY),
            deadline_s=request.get("deadline_s"),
        )

    async def sweep(
        self,
        jobs: Sequence[SweepJob],
        *,
        client: str = "anonymous",
        priority: str = DEFAULT_PRIORITY,
        deadline_s: float | None = None,
    ) -> list[SimulationReport]:
        """Admit every cell and return their reports in input order.

        Raises the first failed cell's :class:`ServiceError` (in input
        order) as soon as any cell fails; cells of the sweep still
        outstanding at that point are cancelled.
        """
        self._gate(priority, len(jobs))
        if not jobs:
            return []
        if len(self._queue) >= self.max_queue:
            raise self._queue_full()
        tickets = [self._admit(job, client, priority, deadline_s, bounded=False) for job in jobs]
        try:
            await asyncio.wait([t.future for t in tickets], return_when=asyncio.FIRST_EXCEPTION)
            for ticket in tickets:
                if ticket.future.done() and ticket.future.exception() is not None:
                    raise ticket.future.exception()
            return [ticket.future.result() for ticket in tickets]
        finally:
            for ticket in tickets:
                if not ticket.future.done():
                    self.cancel(ticket.job_id)

    def _admit(
        self, job: SweepJob, client: str, priority: str, deadline_s: float | None, bounded: bool
    ) -> Ticket:
        ticket = Ticket(
            job_id=self._issue_id(),
            client=client,
            job=job,
            future=asyncio.get_running_loop().create_future(),
        )
        # A submission nobody awaits (wait=false, cancels, drains) must not
        # warn "exception was never retrieved" at teardown.
        ticket.future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        key: object = job_key(job)
        if key is None:
            key = job  # uncacheable cells still dedup structurally
        # 1. completed cells short-circuit through the persistent cache
        elif self.cache is not None:
            cached = self.cache.load(key)
            if cached is not None:
                self.telemetry.counter("service.cache_hits").add(1)
                self._register(ticket)
                self._resolve(ticket, cached, source="cache")
                return ticket
        # 2. identical in-flight cells coalesce to one execution
        execution = self._inflight.get(key)
        if execution is not None:
            self.telemetry.counter("service.coalesced").add(1)
            ticket.source = "coalesced"
            ticket.state = execution.state
        else:
            # 3. bounded admission: reject-with-retry-after, never drop
            if bounded and len(self._queue) >= self.max_queue:
                raise self._queue_full()
            self.telemetry.counter("service.admitted").add(1)
            execution = self._inflight[key] = Execution(job, key, client, priority)
            self._queue.push(execution, client=client, priority=priority)
            self._gauge_depth()
            self.wake()
        ticket.execution = execution
        execution.tickets.append(ticket)
        self._register(ticket)
        if deadline_s is not None:
            ticket.deadline_handle = asyncio.get_running_loop().call_later(
                deadline_s, self._expire, ticket
            )
        return ticket

    def cancel(self, job_id: str) -> str:
        """Cancel a submission; returns the ticket's resulting state.

        A queued ticket is resolved ``cancelled`` immediately (and its
        execution is dequeued when no other subscriber remains); an
        in-flight ticket detaches — the simulation completes, warms the
        cache, and only this subscriber sees ``cancelled``.  Finished
        tickets are left untouched.
        """
        ticket = self._tickets.get(job_id)
        if ticket is None:
            raise ServiceError("unknown_job", f"no such job {job_id!r}")
        if ticket.future.done():
            return ticket.state
        self.telemetry.counter("service.cancelled").add(1)
        self._reject(ticket, ServiceError("cancelled", f"job {job_id} cancelled"), "cancelled")
        self._detach(ticket)
        return ticket.state

    def status(self, job_id: str | None = None) -> dict[str, Any]:
        """Dispatcher snapshot, or one ticket's state when ``job_id`` is given."""
        if job_id is not None:
            ticket = self._tickets.get(job_id)
            if ticket is None:
                raise ServiceError("unknown_job", f"no such job {job_id!r}")
            return {"job": ticket.describe()}
        states: dict[str, int] = {}
        for ticket in self._tickets.values():
            states[ticket.state] = states.get(ticket.state, 0) + 1
        return {
            "queue_depth": len(self._queue),
            "max_queue": self.max_queue,
            "draining": self._draining,
            "states": states,
            "jobs": [
                t.describe()
                for t in self._tickets.values()
                if t.state in ("queued", "running")
            ],
            **self.executor.status(),
        }

    def metrics_snapshot(self) -> dict[str, dict]:
        """The dispatcher's registry snapshot (deterministic, JSON-safe)."""
        return self.telemetry.snapshot()

    # ------------------------------------------------------------------
    # Executor callbacks
    # ------------------------------------------------------------------
    def complete(self, execution: Execution, report: SimulationReport) -> None:
        """An executor produced ``execution``'s report."""
        execution.state = "done"
        self._inflight.pop(execution.key, None)
        for ticket in execution.tickets:
            if not ticket.future.done():
                self._resolve(ticket, report)

    def fail(self, executions: Sequence[Execution], error: ServiceError) -> None:
        """An executor gave up on ``executions``."""
        self.telemetry.counter("service.failed").add(len(executions))
        for execution in executions:
            execution.state = "failed"
            self._inflight.pop(execution.key, None)
            for ticket in execution.tickets:
                if not ticket.future.done():
                    self._reject(ticket, error, "failed")

    def requeue(self, executions: Sequence[Execution]) -> None:
        """Put executions an executor lost back in line (orphans are dropped)."""
        for execution in executions:
            if not execution.live_tickets():
                execution.state = "failed"
                self._inflight.pop(execution.key, None)
                continue
            execution.state = "queued"
            for ticket in execution.live_tickets():
                ticket.state = "queued"
            self._queue.push(execution, client=execution.client, priority=execution.priority)
        self._gauge_depth()
        self.wake()

    def record_batch(self, elapsed_s: float) -> None:
        """One unit finished in ``elapsed_s`` of wall time."""
        self._batch_ewma_s = 0.7 * self._batch_ewma_s + 0.3 * elapsed_s
        self.telemetry.counter("service.batches").add(1)
        self.telemetry.histogram("service.latency.run_ms", LATENCY_EDGES_MS).record(
            elapsed_s * 1000.0
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _issue_id(self) -> str:
        self._next_id += 1
        return f"j{self._next_id:06d}"

    def _gauge_depth(self) -> None:
        self.telemetry.gauge("service.queue.depth").set(len(self._queue))

    def _register(self, ticket: Ticket) -> None:
        self._tickets[ticket.job_id] = ticket
        ticket.future.add_done_callback(lambda _f: self._remember(ticket))

    def _remember(self, ticket: Ticket) -> None:
        """Move a finished ticket into bounded history."""
        self._finished.append(ticket.job_id)
        while len(self._finished) > HISTORY_LIMIT:
            self._tickets.pop(self._finished.popleft(), None)

    def _expire(self, ticket: Ticket) -> None:
        if ticket.future.done():
            return
        self.telemetry.counter("service.expired").add(1)
        self._reject(
            ticket,
            ServiceError(
                "deadline_exceeded", f"job {ticket.job_id} missed its deadline"
            ),
            "expired",
        )
        self._detach(ticket)

    def _reject(self, ticket: Ticket, exc: ServiceError, state: str) -> None:
        ticket.state = state
        if ticket.deadline_handle is not None:
            ticket.deadline_handle.cancel()
            ticket.deadline_handle = None
        if not ticket.future.done():
            ticket.future.set_exception(exc)

    def _resolve(self, ticket: Ticket, report: SimulationReport, source: str | None = None) -> None:
        ticket.state = "done"
        if source is not None:
            ticket.source = source
        if ticket.deadline_handle is not None:
            ticket.deadline_handle.cancel()
            ticket.deadline_handle = None
        ticket.report = report
        self.telemetry.counter("service.served").add(1)
        self.telemetry.histogram("service.latency.queue_ms", LATENCY_EDGES_MS).record(
            (perf_counter() - ticket.submitted_at) * 1000.0
        )
        if not ticket.future.done():
            ticket.future.set_result(report)

    def _detach(self, ticket: Ticket) -> None:
        """Drop a dead ticket from its execution; dequeue orphaned work."""
        execution = ticket.execution
        if execution is None:
            return  # cache-hit tickets never joined an execution
        if execution.state == "queued" and not execution.live_tickets():
            if self._queue.remove(execution):
                self._gauge_depth()
            self._inflight.pop(execution.key, None)
            if self._draining:
                self.wake()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _take_unit(self) -> list[Execution]:
        """Next priority/round-robin execution plus every queued trace-key
        sibling (siblings ride along regardless of their class — the trace
        is loaded anyway, and a free ride cannot delay the head)."""
        head = self._queue.pop()
        if head is None:
            return []
        unit = [head]
        if head.trace_key is not None:
            unit.extend(self._queue.take(lambda e: e.trace_key == head.trace_key))
        self._gauge_depth()
        for execution in unit:
            execution.state = "running"
            for ticket in execution.live_tickets():
                ticket.state = "running"
        return unit

    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self.executor.idle():
                unit = self._take_unit()
                if not unit:
                    await self.executor.steal()
                    break
                await self.executor.run(unit)
            if self._draining and len(self._queue) == 0 and not self.executor.busy():
                self._drained.set()
                return


__all__ = [
    "HISTORY_LIMIT",
    "LATENCY_EDGES_MS",
    "TICKET_STATES",
    "Execution",
    "LocalExecutor",
    "ServiceError",
    "SimulationService",
    "Ticket",
    "job_from_spec",
]
