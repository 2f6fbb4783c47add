"""The ``serve_resubmit`` workload: one closed-loop client of ``repro-sim serve``.

The client keeps one Unix-socket connection and submits a seeded stream
of small 2-GPU cells drawn from a fixed pool of distinct (workload,
scheme) cells.  Every ``NEW_EVERY``-th submission is the pool's next
unseen cell (a first sighting: simulate, then store in the result cache
and trace store); every other one repeats a cell already served, chosen
by the seeded generator (a cache-hit read).  The next submission goes
out only when the previous report has arrived.

After the timed section the server is stopped and every distinct served
cell is run directly through ``execute_job``; a served report whose
canonical JSON differs, or that fails the analytic oracle, counts every
submission of that cell as failed.
"""

from __future__ import annotations

import json
import random
import resource
from statistics import median
from time import perf_counter

from repro.runner import execute_job, report_from_dict
from repro.runner.trace_store import TraceStore
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.protocol import SCHEMES, canonical_report_json
from repro.verify.violations import CellRef

from perfbench import common, tracer
from perfbench.procs import Children, wait_until

#: every registry workload, Table IV first, then the collectives
POOL_WORKLOADS = (
    "matrixtranspose", "relu", "pagerank", "syr2k", "spmv", "simpleconvolution",
    "matrixmultiplication", "atax", "bicg", "gesummv", "mvt", "stencil2d", "fft",
    "kmeans", "floydwarshall", "aes", "fir", "allreduce_ring", "allreduce_tree",
    "allgather", "reducescatter", "broadcast", "halo2d",
)
N_GPUS = 2
SCALE = 0.05
#: one submission in this many is a first sighting
NEW_EVERY = 10
#: the report digest covers the pool's first cells, served in every run
DIGEST_CELLS = 8
#: seconds a submission may take before the client gives up
SUBMIT_TIMEOUT_S = 120.0


def pool() -> list[tuple[str, str]]:
    """All (workload, scheme) cells, in a diagonal order so consecutive
    first sightings differ in both workload and scheme."""
    n_w, n_s = len(POOL_WORKLOADS), len(SCHEMES)
    return [
        (POOL_WORKLOADS[i % n_w], SCHEMES[(i + i // n_w) % n_s]) for i in range(n_w * n_s)
    ]


class _Session:
    """One server process and the closed-loop stream sent to it."""

    def __init__(
        self,
        kids: Children,
        ws: common.Workspace,
        name: str,
        seed: int,
        calibrator: common.Calibrator,
    ) -> None:
        self.kids, self.ws, self.name, self.seed = kids, ws, name, seed
        self.calibrator = calibrator
        self.socket = ws.path / f"{name}.sock"
        self.pool = pool()
        self.rng = random.Random(seed)
        self.texts: dict[tuple[str, str], str] = {}
        self.counts: dict[tuple[str, str], int] = {}
        self.served: list[tuple[str, str]] = []
        self.intervals: list[tuple[float, float]] = []  # completed submissions
        self.new_intervals: list[tuple[float, float]] = []  # the first sightings among them
        self.new_cells: list[tuple[str, str]] = []
        self.hits = 0
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.service_metrics: dict = {}

    def start(self, trace_out=None) -> tuple[float, float]:
        """Launch the server; return the interval until it answers ``ping``."""
        started = perf_counter()
        self.proc = self.kids.launch(
            "--socket", str(self.socket),
            "--cache-dir", str(self.ws.sub(f"{self.name}-cache")),
            trace_out=trace_out,
            REPRO_TRACE_DIR=str(self.ws.sub(f"{self.name}-traces")),
        )
        wait_until(self._pings, "serve", [self.proc])
        return started, perf_counter()

    def _pings(self) -> bool:
        try:
            with ServiceClient(self.socket, timeout=5.0) as client:
                return bool(client.ping().get("ok"))
        except (ServiceUnavailable, OSError):
            return False

    def _submit(
        self, client: ServiceClient, cell: tuple[str, str]
    ) -> tuple[float, float] | None:
        self.attempted += 1
        self.counts[cell] = self.counts.get(cell, 0) + 1
        started = perf_counter()
        response = client.submit(
            cell[0], scheme=cell[1], gpus=N_GPUS, seed=self.seed, scale=SCALE, client="perfbench"
        )
        ended = perf_counter()
        if not response.get("ok"):
            code = (response.get("error") or {}).get("code", "unknown")
            self.errors[code] = self.errors.get(code, 0) + 1
            self.failed += 1
            return None
        text = canonical_report_json(response["report"])
        if self.texts.setdefault(cell, text) != text:
            self.failed += 1  # a repeat must read back the first report
        if response.get("source") == "cache":
            self.hits += 1
        return started, ended

    def stream(self, seconds: float) -> None:
        with ServiceClient(self.socket, timeout=SUBMIT_TIMEOUT_S) as client:
            next_new = 0
            index = 0
            deadline = perf_counter() + seconds
            while perf_counter() < deadline:
                self.calibrator.tick()
                is_new = (index % NEW_EVERY == 0 or not self.served) and next_new < len(self.pool)
                if is_new:
                    cell = self.pool[next_new]
                    next_new += 1
                else:
                    cell = self.rng.choice(self.served)
                index += 1
                interval = self._submit(client, cell)
                if interval is None:
                    continue
                self.intervals.append(interval)
                if is_new:
                    self.served.append(cell)
                    self.new_cells.append(cell)
                    self.new_intervals.append(interval)
            self.calibrator.tick()
            # untimed: make sure the digest cells were served in every run
            for cell in self.pool[:DIGEST_CELLS]:
                if cell not in self.texts:
                    self._submit(client, cell)
            self.service_metrics = client.metrics().get("metrics", {})

    def digest(self) -> str:
        return common.digest([self.texts.get(cell, "") for cell in self.pool[:DIGEST_CELLS]])


def _check(sessions: list[_Session], seed: int) -> tuple[int, dict[tuple[str, str], int], dict]:
    """Compare every served cell with a direct ``execute_job`` of it.

    Returns failed submissions, each cell's simulated access count, and
    the problems found.
    """
    store = TraceStore(root=None)
    accesses: dict[tuple[str, str], int] = {}
    direct: dict[tuple[str, str], str] = {}
    failed = 0
    problems: dict[str, list[str]] = {}
    for session in sessions:
        for cell, text in session.texts.items():
            ref = CellRef(cell[0], cell[1], n_gpus=N_GPUS, seed=seed, scale=SCALE)
            if cell not in direct:
                job = ref.job()
                trace, _ = store.get_or_generate(job.spec, N_GPUS, seed, SCALE, job.n_lanes)
                accesses[cell] = trace.total_accesses
                direct[cell] = canonical_report_json(execute_job(job, trace=trace))
            found = common.violations(ref, report_from_dict(json.loads(text)))
            if text != direct[cell]:
                found.append("served report differs from a direct execute_job")
            if found:
                problems[ref.describe()] = found
                failed += session.counts[cell]
    return failed, accesses, problems


def _host_seconds(session: _Session) -> float:
    """Mean host seconds per completed submission."""
    return sum(end - start for start, end in session.intervals) / len(session.intervals)


def _histogram_mean(metrics: dict, name: str) -> float:
    entry = metrics.get(name) or {}
    return entry["sum"] / entry["total"] if entry.get("total") else 0.0


def run(seed: int, seconds: float, trace: bool) -> common.Outcome:
    calibrator = common.Calibrator()
    with common.Workspace() as ws, Children(ws) as kids:
        main = _Session(kids, ws, "serve", seed, calibrator)
        raw_setup, setup = [], []
        rounds = 1 if trace else common.SETUP_ROUNDS
        for round_index in range(rounds):
            raw_setup.append(main.start())
            calibrator.settle()
            setup.append(calibrator.scale(*raw_setup[-1]))
            if round_index + 1 < rounds:
                kids.stop([main.proc])
        main.stream(seconds / 2 if trace else seconds)
        kids.stop([main.proc])
        sessions = [main]
        traced = None
        if trace:
            traced = _Session(kids, ws, "traced", seed, calibrator)
            dump = ws.path / "serve-trace.json"
            traced.start(trace_out=dump)
            traced.stream(seconds / 2)
            kids.stop([traced.proc])
            snapshot = tracer.merge([json.loads(dump.read_text())])
            sessions.append(traced)
        rss = common.peak_rss_mb(resource.RUSAGE_CHILDREN)

    check_failed, accesses, problems = _check(sessions, seed)
    attempted = sum(s.attempted for s in sessions)
    failed = min(attempted, sum(s.failed for s in sessions) + check_failed)
    digests = {s.digest() for s in sessions}
    correct = failed == 0 and len(digests) == 1
    info = {
        "report_digest": main.digest(),
        "calibration_events_per_s": calibrator.score(),
        "shares": {
            "hit": main.hits / max(1, main.attempted),
            "first_sightings": len(main.new_cells),
            "submissions": main.attempted,
        },
    }
    if main.errors:
        info["errors"] = main.errors
    if problems:
        info["violations"] = problems
    if not trace:
        scaled = [calibrator.scale(*interval) for interval in main.intervals]
        latency_ms = [s * 1000.0 for s in scaled]
        tail_ms, tail_pct, samples = common.tail(latency_ms)
        new_accesses = sum(accesses[cell] for cell in main.new_cells)
        new_seconds = sum(calibrator.scale(*interval) for interval in main.new_intervals)
        metrics = {
            "setup_s": median(setup),
            "sim_accesses_per_s": new_accesses / new_seconds,
            "jobs_per_s": len(scaled) / sum(scaled),
            "job_p50_ms": median(latency_ms),
            "job_tail_ms": tail_ms,
            "peak_rss_mb": rss,
        }
        raw_ms = [(end - start) * 1000.0 for start, end in main.intervals]
        info["job_tail"] = {"percentile": tail_pct, "samples": samples}
        info["host_time"] = {
            "setup_s": median(end - start for start, end in raw_setup),
            "jobs_per_s": len(raw_ms) * 1000.0 / sum(raw_ms),
            "job_p50_ms": median(raw_ms),
        }
        return common.Outcome(metrics, attempted, failed, correct, info)

    ops = traced.attempted
    layers = tracer.layer_metrics(snapshot, ops)
    service = traced.service_metrics
    overhead = _host_seconds(traced) / _host_seconds(main) - 1.0
    layers.update(
        {
            "trace.overhead_frac": overhead,
            "service.queue_ms": _histogram_mean(service, "service.latency.queue_ms"),
            "service.run_ms": _histogram_mean(service, "service.latency.run_ms"),
            "service.cache_hits": service.get("service.cache_hits", {}).get("value", 0) / ops,
            "service.batches": service.get("service.batches", {}).get("value", 0) / ops,
        }
    )
    info.update(
        tracing_overhead_frac=overhead,
        untraced_digest_matches=len(digests) == 1,
        snapshot=snapshot,
    )
    return common.Outcome(layers, attempted, failed, correct, info)
