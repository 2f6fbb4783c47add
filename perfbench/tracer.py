"""Span and call-count tracing installed from outside the program.

The benchmark never edits ``src/``: it measures each layer by replacing
the layer's public functions with wrappers that time or count the call
and then delegate to the original.  :func:`install_layers` lists every
boundary the benchmark measures, named by the layer it belongs to.

Each thread keeps its own span stack and totals, because the service
simulates on an executor thread while its event-loop thread looks up
the result cache and serializes reports.  A span's self time is its duration
minus the durations of the spans nested inside it on the same thread.

Hot boundaries (cache lookups, event posts, pad acquisitions) are far too
numerous to keep one record per call, so they are kept only as per-name
totals: calls, inclusive seconds and self seconds.  Coarse boundaries
(a cell, the event loop, a runner call) are additionally kept as spans
``(id, parent, root, name, start, end, run_id)``; ``root`` is the id of
the outermost span on the stack, which all spans of one request share.
Everything stays in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable


class _ThreadState:
    __slots__ = ("stack", "totals", "counts", "spans")

    def __init__(self) -> None:
        self.stack: list[list] = []  # [span id, child seconds]
        self.totals: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []


class Tracer:
    """Installs wrappers and accumulates their spans and counts."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Per-thread state
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
        return state

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        fn: Callable,
        *,
        keep: bool = False,
        tally: Tally | None = None,
    ) -> Callable:
        """Wrap ``fn`` so each call adds to ``name``'s time totals (and,
        with ``tally``, to its counts)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            root = stack[0][0] if stack else span_id
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                totals = state.totals.get(name)
                if totals is None:
                    totals = state.totals[name] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[1]
                if keep:
                    state.spans.append(
                        (span_id, parent, root, name, start, end, tracer.run_id)
                    )
            if tally is not None:
                tally.add(state.counts, result)
            return result

        return wrapper

    def count(self, fn: Callable, tally: Tally) -> Callable:
        """Wrap ``fn`` so each call adds to ``tally``'s counts (no timing)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tally.add(tracer._state().counts, result)
            return result

        return wrapper

    def patch_method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``cls.attr`` (defined on ``cls`` itself) by ``make(original)``."""
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    def patch_function(self, module: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace a module-level function everywhere ``repro`` imported it."""
        original = getattr(module, attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and getattr(
                mod, attr, None
            ) is original:
                setattr(mod, attr, wrapped)
                self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Totals and counts merged over threads, plus every kept span."""
        with self._lock:
            states = list(self._states)
        merged = merge(
            [
                {"totals": dict(state.totals), "counts": state.counts, "spans": state.spans}
                for state in states
            ]
        )
        merged["spans"].sort(key=lambda span: span[4])
        merged["run_id"] = self.run_id
        return merged

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.snapshot()))


def merge(snapshots: list[dict[str, Any]]) -> dict[str, Any]:
    """Combine snapshots of several processes into one."""
    totals: dict[str, list] = {}
    counts: Counter = Counter()
    spans: list = []
    for snap in snapshots:
        for name, (calls, total, self_s) in snap["totals"].items():
            merged = totals.setdefault(name, [0, 0.0, 0.0])
            merged[0] += calls
            merged[1] += total
            merged[2] += self_s
        counts.update(snap["counts"])
        spans.extend(snap["spans"])
    return {"totals": totals, "counts": dict(counts), "spans": spans}


# ----------------------------------------------------------------------
# The measured boundaries
# ----------------------------------------------------------------------
#: modules that import a patched function by name; loading them before
#: patching lets :meth:`Tracer.patch_function` reach their copies
_REEXPORTING_MODULES = (
    "repro.runner",
    "repro.runner.cache",
    "repro.runner.sweep",
    "repro.runner.trace_store",
    "repro.service.scheduler",
    "repro.service.server",
)


@dataclass(frozen=True)
class Tally:
    """Counts ``calls`` on every call and ``hits`` on the calls whose
    result satisfies ``predicate``."""

    calls: str
    hits: str | None = None
    predicate: Callable[[Any], bool] = bool

    def add(self, counts: Counter, result: Any) -> None:
        counts[self.calls] += 1
        if self.hits is not None and self.predicate(result):
            counts[self.hits] += 1


def install_layers(tracer: Tracer) -> None:
    """Wrap the public functions of every measured layer.

    Call it after importing the entry point to be measured: a module-level
    function is replaced in every ``repro`` module loaded at that moment.
    """
    import importlib

    for module in _REEXPORTING_MODULES:
        importlib.import_module(module)

    from repro.core.batching import BatchingController
    from repro.core.dynamic_allocator import DynamicOtpAllocator
    from repro.gpu.cache import SetAssociativeCache
    from repro.gpu.cpu import HostCpu
    from repro.gpu.gpu import GpuDevice
    from repro.gpu.tlb import TlbHierarchy
    from repro.interconnect.arbiter import RoundRobinArbiter
    from repro.interconnect.topology import Topology
    from repro.memory.directory import BlockDirectory
    from repro.memory.migration import AccessCounterMigrationPolicy
    from repro.memory.page_table import PageTable
    from repro.runner import jobs, serialize
    from repro.runner.cache import ResultCache
    from repro.runner.trace_store import TraceStore
    from repro.secure.channel import SecureTransport, UnsecureTransport
    from repro.secure.replay import ReplayGuard
    from repro.secure.schemes.base import OtpScheme
    from repro.service import protocol
    from repro.sim.engine import Simulator
    from repro.system import MultiGpuSystem
    from repro.workloads import compiled
    from repro.workloads.registry import WorkloadSpec

    def spans(cls, attrs, name, **kw):
        for attr in attrs:
            tracer.patch_method(cls, attr, lambda fn: tracer.span(name, fn, **kw))

    for attr in ("post", "post_at", "schedule", "schedule_at"):
        tracer.patch_method(Simulator, attr, lambda fn: tracer.count(fn, Tally("sim.posts")))
    spans(Simulator, ["run"], "sim.run", keep=True)

    spans(SetAssociativeCache, ["lookup", "fill", "invalidate_page"], "gpu.cache")
    tracer.patch_method(
        SetAssociativeCache,
        "invalidate",
        lambda fn: tracer.count(fn, Tally("gpu.invalidates", "gpu.invalidate_useful")),
    )
    spans(TlbHierarchy, ["translate", "shootdown"], "gpu.tlb")
    spans(GpuDevice, ["invalidate_page"], "gpu.shootdown")
    spans(HostCpu, ["invalidate_page"], "gpu.shootdown")

    spans(AccessCounterMigrationPolicy, ["on_remote_access", "commit_migration"], "memory.policy")
    spans(PageTable, ["owner"], "memory.policy")
    tracer.patch_method(
        BlockDirectory,
        "request",
        lambda fn: tracer.span(
            "memory.directory",
            fn,
            tally=Tally(
                "memory.directory_requests", "memory.directory_merged", lambda issued: not issued
            ),
        ),
    )
    spans(BlockDirectory, ["complete"], "memory.directory")

    spans(Topology, ["send"], "interconnect.send")
    spans(RoundRobinArbiter, ["grant"], "interconnect.arbiter")

    spans(SecureTransport, ["send"], "secure.send")
    spans(UnsecureTransport, ["send"], "secure.send")
    pending = [OtpScheme]
    while pending:
        scheme_cls = pending.pop()
        pending.extend(scheme_cls.__subclasses__())
        for attr in ("acquire_send", "acquire_recv"):
            method = scheme_cls.__dict__.get(attr)
            if method is not None and not getattr(method, "__isabstractmethod__", False):
                spans(scheme_cls, [attr], "secure.pad")
    spans(ReplayGuard, ["on_send", "on_ack"], "secure.replay")

    spans(BatchingController, ["add_block", "timeout_close"], "core.batch")
    tracer.patch_method(
        DynamicOtpAllocator,
        "maybe_adjust",
        lambda fn: tracer.span(
            "core.alloc",
            fn,
            tally=Tally("core.alloc_checks", "core.alloc_plans", lambda plan: plan is not None),
        ),
    )
    spans(DynamicOtpAllocator, ["adjust"], "core.alloc")

    spans(WorkloadSpec, ["generate"], "workloads.generate", keep=True)
    for attr in ("compile_trace", "ensure_compiled"):
        tracer.patch_function(
            compiled, attr, lambda fn: tracer.span("workloads.generate", fn, keep=True)
        )

    tracer.patch_function(jobs, "job_key", lambda fn: tracer.span("runner.job_key", fn, keep=True))
    tracer.patch_method(
        ResultCache,
        "load",
        lambda fn: tracer.span(
            "runner.cache_load",
            fn,
            keep=True,
            tally=Tally(
                "runner.cache_loads", "runner.cache_hits", lambda report: report is not None
            ),
        ),
    )
    spans(ResultCache, ["store"], "runner.cache_store", keep=True)
    for module, attr in (
        (serialize, "report_to_dict"),
        (serialize, "report_from_dict"),
        (protocol, "canonical_report_json"),
    ):
        tracer.patch_function(
            module, attr, lambda fn: tracer.span("runner.serialize", fn, keep=True)
        )
    spans(TraceStore, ["get", "put"], "runner.trace_store", keep=True)

    def cell_span(fn):
        timed = tracer.span("cell", fn, keep=True)

        @functools.wraps(fn)
        def run(system, trace):
            report = timed(system, trace)
            counts = tracer._state().counts
            counts["sim.events"] += report.events_processed
            counts["memory.migrations"] += report.migrations
            counts["interconnect.queue_cycles"] += sum(
                channel.queue_cycles for channel in system.topology.channels()
            )
            if isinstance(system.transport, SecureTransport):
                counts["secure.cells"] += 1
                counts["secure.otp_hidden_sum"] += (
                    report.otp_send.hidden + report.otp_recv.hidden
                ) / 2
            return report

        return run

    tracer.patch_method(MultiGpuSystem, "run", cell_span)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: per-layer metric -> (span name, which total) for per-operation seconds;
#: "self" subtracts nested spans, "total" keeps them (a shootdown's cost
#: is the cache and TLB probes it triggers)
TIME_METRICS = {
    "sim.run_residual_s": ("sim.run", "self"),
    "gpu.cache_s": ("gpu.cache", "self"),
    "gpu.tlb_s": ("gpu.tlb", "self"),
    "gpu.shootdown_s": ("gpu.shootdown", "total"),
    "memory.policy_s": ("memory.policy", "self"),
    "memory.directory_s": ("memory.directory", "self"),
    "interconnect.send_s": ("interconnect.send", "self"),
    "interconnect.arbiter_s": ("interconnect.arbiter", "self"),
    "secure.send_s": ("secure.send", "self"),
    "secure.pad_s": ("secure.pad", "self"),
    "secure.replay_s": ("secure.replay", "self"),
    "core.batch_s": ("core.batch", "self"),
    "core.alloc_s": ("core.alloc", "self"),
    "runner.job_key_s": ("runner.job_key", "self"),
    "runner.cache_load_s": ("runner.cache_load", "self"),
    "runner.cache_store_s": ("runner.cache_store", "self"),
    "runner.serialize_s": ("runner.serialize", "self"),
    "runner.trace_store_s": ("runner.trace_store", "self"),
}

#: per-layer metric -> (numerator count, denominator count)
RATIO_METRICS = {
    "gpu.shootdown_useful_ratio": ("gpu.invalidate_useful", "gpu.invalidates"),
    "memory.directory_merge_ratio": ("memory.directory_merged", "memory.directory_requests"),
    "core.alloc_adjust_ratio": ("core.alloc_plans", "core.alloc_checks"),
    "runner.cache_hit_ratio": ("runner.cache_hits", "runner.cache_loads"),
}


def _calls(merged: dict, name: str) -> int:
    totals = merged["totals"].get(name)
    return totals[0] if totals else 0


def layer_metrics(merged: dict, ops: int) -> dict[str, float]:
    """Per-operation layer metrics from a merged snapshot."""
    totals, counts = merged["totals"], merged["counts"]
    out: dict[str, float] = {}
    for metric, (name, kind) in TIME_METRICS.items():
        seconds = totals[name][1 if kind == "total" else 2] if name in totals else 0.0
        out[metric] = seconds / ops
    generate = totals.get("workloads.generate")
    # traces are generated once per run, not per operation
    out["workloads.generate_s"] = generate[2] if generate else 0.0
    out["gpu.cache_calls"] = _calls(merged, "gpu.cache") / ops
    out["gpu.shootdowns"] = _calls(merged, "gpu.shootdown") / ops
    out["sim.posts"] = counts.get("sim.posts", 0) / ops
    for name in ("sim.events", "memory.migrations", "interconnect.queue_cycles"):
        out[name] = counts.get(name, 0) / ops
    out["interconnect.packets"] = _calls(merged, "interconnect.send") / ops
    out["secure.pad_calls"] = _calls(merged, "secure.pad") / ops
    secure_cells = counts.get("secure.cells", 0)
    out["secure.otp_hidden_ratio"] = (
        counts.get("secure.otp_hidden_sum", 0.0) / secure_cells if secure_cells else 0.0
    )
    for metric, (numerator, denominator) in RATIO_METRICS.items():
        base = counts.get(denominator, 0)
        out[metric] = counts.get(numerator, 0) / base if base else 0.0
    return out
