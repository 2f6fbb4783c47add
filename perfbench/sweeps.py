"""The in-process sweep workloads: ``secure_stream`` and ``migrate_local``.

One ``execute_job`` per cell, serially, with no result cache.  Each trace
is generated and compiled once in set-up and shared by every scheme of
its workload, as ``SweepRunner`` does.  The timed section repeats whole
passes over the cell list until the run's seconds are used up, so every
pass does the same simulated work and per-pass rates compare directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from time import perf_counter

from repro.runner import execute_job
from repro.runner.trace_store import TraceStore
from repro.service.protocol import canonical_report_json
from repro.verify.violations import CellRef

from perfbench import common
from perfbench.tracer import Tracer, install_layers, layer_metrics


@dataclass(frozen=True)
class SweepPlan:
    workloads: tuple[str, ...]
    schemes: tuple[str, ...]
    n_gpus: int
    scale: float


PLANS = {
    # secure/ + core/ + interconnect/ heavy, zero page migrations
    "secure_stream": SweepPlan(
        ("relu", "syr2k", "matrixtranspose", "allgather"),
        ("private", "cached", "dynamic", "batching"),
        n_gpus=4,
        scale=0.05,
    ),
    # GPU pump, caches, TLBs and migration shootdown; no OTP machinery
    "migrate_local": SweepPlan(
        ("pagerank", "spmv", "atax", "matrixmultiplication", "fir", "kmeans"),
        ("unsecure",),
        n_gpus=4,
        scale=0.1,
    ),
}


#: per-layer metrics a sweep cannot produce, and why
ABSENT_WHEN_TRACED = {
    "runner.*": "no result cache, trace store or serialization on the in-process path",
    "service.*": "no service on this workload",
}


def cells_of(plan: SweepPlan, seed: int) -> list[CellRef]:
    return [
        CellRef(workload, scheme, n_gpus=plan.n_gpus, seed=seed, scale=plan.scale)
        for workload in plan.workloads
        for scheme in plan.schemes
    ]


def _generate(cells: list[CellRef]) -> dict[str, object]:
    """One set-up round: generate and compile every workload's trace."""
    store = TraceStore(root=None)
    traces = {}
    for cell in cells:
        job = cell.job()
        if cell.workload not in traces:
            traces[cell.workload], _ = store.get_or_generate(
                job.spec, cell.n_gpus, cell.seed, cell.scale, job.n_lanes
            )
    return traces


class _Passes:
    """Timed passes over the cell list, with per-cell outputs kept."""

    def __init__(
        self, cells: list[CellRef], traces: dict[str, object], calibrator: common.Calibrator
    ) -> None:
        self.calibrator = calibrator
        self.plan = [(cell, cell.job(), traces[cell.workload]) for cell in cells]
        self.accesses = sum(traces[cell.workload].total_accesses for cell in cells)
        self.first: list[str | None] = []
        self.first_reports: list[object | None] = []
        self.intervals: list[list[tuple[float, float]]] = []  # per pass, per cell run
        self.mismatched: list[int] = [0] * len(cells)
        self.raised = 0
        self.attempted = 0

    def run_pass(self) -> None:
        outputs: list[str | None] = []
        reports: list[object | None] = []
        intervals = []
        for cell, job, trace in self.plan:
            self.attempted += 1
            self.calibrator.tick()
            started = perf_counter()
            try:
                report = execute_job(job, trace=trace)
            except Exception:
                self.raised += 1
                outputs.append(None)
                reports.append(None)
                continue
            intervals.append((started, perf_counter()))
            outputs.append(canonical_report_json(report))
            reports.append(report)
        self.intervals.append(intervals)
        if not self.first:
            self.first, self.first_reports = outputs, reports
        else:
            for index, text in enumerate(outputs):
                if text is not None and text != self.first[index]:
                    self.mismatched[index] += 1

    def run_for(self, seconds: float) -> None:
        deadline = perf_counter() + seconds
        while True:
            self.run_pass()
            if perf_counter() >= deadline:
                self.calibrator.tick()
                return

    def latencies(self, scaled: bool = True) -> list[list[float]]:
        """Per pass, each cell's time in reference (or host) seconds."""
        scale = self.calibrator.scale if scaled else (lambda start, end: end - start)
        return [[scale(start, end) for start, end in spans] for spans in self.intervals]

    def rate(self, scaled: bool = True) -> float:
        """Median over passes of simulated accesses per second."""
        return median(self.accesses / sum(spans) for spans in self.latencies(scaled))

    def judge(self) -> tuple[int, dict]:
        """Failed operations and the shares the reports show."""
        failed = self.raised + sum(self.mismatched)
        passes = len(self.intervals)
        problems = {}
        for (cell, _job, _trace), report in zip(self.plan, self.first_reports):
            if report is None:
                continue
            found = common.violations(cell, report)
            if found:
                problems[cell.describe()] = found
                failed += passes  # every run of a wrong cell is a wrong output
        reports = [r for r in self.first_reports if r is not None]
        shares = {
            "migrations_per_cell": sum(r.migrations for r in reports) / max(1, len(reports)),
            "pad_calls_per_cell": sum(common.pad_calls(r) for r in reports) / max(1, len(reports)),
            "accesses_per_pass": self.accesses,
            "passes": passes,
        }
        if problems:
            shares["violations"] = problems
        return min(failed, self.attempted), shares


def run(
    workload: str, seed: int, seconds: float, trace: bool, process_start: float
) -> common.Outcome:
    plan = PLANS[workload]
    cells = cells_of(plan, seed)
    imports_s = perf_counter() - process_start
    rounds = []
    for _ in range(common.SETUP_ROUNDS):
        started = perf_counter()
        traces = _generate(cells)
        rounds.append(perf_counter() - started)
    raw_setup_s = imports_s + median(rounds)
    setup_end = perf_counter()
    calibrator = common.Calibrator()
    calibrator.settle()

    passes = _Passes(cells, traces, calibrator)
    if not trace:
        passes.run_for(seconds)
        failed, shares = passes.judge()
        per_pass = passes.latencies()
        latency_ms = [s * 1000.0 for spans in per_pass for s in spans]
        tail_ms, tail_pct, samples = common.tail(latency_ms)
        metrics = {
            "setup_s": calibrator.scale(setup_end - raw_setup_s, setup_end),
            "sim_accesses_per_s": passes.rate(),
            "jobs_per_s": median(len(spans) / sum(spans) for spans in per_pass),
            "job_p50_ms": median(latency_ms),
            "job_tail_ms": tail_ms,
            "peak_rss_mb": common.peak_rss_mb(),
        }
        info = {
            "report_digest": common.digest(passes.first),
            "shares": shares,
            "job_tail": {"percentile": tail_pct, "samples": samples},
            "calibration_events_per_s": calibrator.score(),
            "host_time": {
                "setup_s": raw_setup_s,
                "sim_accesses_per_s": passes.rate(scaled=False),
            },
        }
        return common.Outcome(metrics, passes.attempted, failed, failed == 0, info)

    # Traced: half the time untraced, then the same passes with every
    # layer wrapped; the rate ratio is the tracing overhead.
    passes.run_for(seconds / 2)
    tracer = Tracer(f"{workload}:{seed}")
    install_layers(tracer)
    try:
        _generate(cells)  # traced set-up round: workloads.generate_s
        traced = _Passes(cells, traces, calibrator)
        traced.run_for(seconds / 2)
    finally:
        tracer.uninstall()
    failed, shares = passes.judge()
    traced_failed, _ = traced.judge()
    same = common.digest(passes.first) == common.digest(traced.first)
    overhead = passes.rate(scaled=False) / traced.rate(scaled=False) - 1.0
    snapshot = tracer.snapshot()
    layers = layer_metrics(snapshot, traced.attempted)
    attempted = passes.attempted + traced.attempted
    failed = min(attempted, failed + traced_failed + (0 if same else traced.attempted))
    info = {
        "report_digest": common.digest(traced.first),
        "untraced_digest_matches": same,
        "shares": shares,
        "tracing_overhead_frac": overhead,
        "calibration_events_per_s": calibrator.score(),
        "snapshot": snapshot,
        "absent": ABSENT_WHEN_TRACED,
    }
    return common.Outcome(
        {"trace.overhead_frac": overhead, **layers}, attempted, failed, failed == 0, info
    )
