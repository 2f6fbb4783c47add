"""Shared pieces of the benchmark: hermetic state, statistics, checks.

Every run works inside its own directory under ``.perfbench/`` in the
checkout and removes it on exit, so no run reads or writes the program's
default ``results/.cache`` or ``results/.tracestore``.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

#: where runs keep their scratch directories and traced-run span dumps
WORK_DIR = Path(".perfbench")

#: environment variables that would let the caller's settings leak into
#: measured processes (cache location, salting, trace store, job count)
SCRUBBED_ENV = (
    "REPRO_NO_CACHE",
    "REPRO_CACHE_SALT",
    "REPRO_CACHE_DIR",
    "REPRO_TRACE_DIR",
    "REPRO_NO_TRACE_STORE",
    "REPRO_JOBS",
)

#: times ``setup_s`` is measured in one run; the median is reported
SETUP_ROUNDS = 5


def scrub_env() -> None:
    """Drop the caller's repro settings from this process and its children."""
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)


def child_env(**extra: str) -> dict[str, str]:
    """Environment for a measured child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env.update(extra)
    return env


class Workspace:
    """A fresh scratch directory for one run, removed on exit."""

    def __init__(self) -> None:
        WORK_DIR.mkdir(exist_ok=True)
        # relative to the checkout root, so Unix socket paths stay short
        self.path = Path(os.path.relpath(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)))

    def sub(self, name: str) -> Path:
        path = self.path / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


@dataclass
class Outcome:
    """What one workload run measured."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    correct: bool
    info: dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, sample count)``; with fewer than eleven
    samples the maximum is returned as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set of this process, or of its largest reaped child."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def digest(canonical_reports: list[str]) -> str:
    """SHA-256 over canonical report JSON, in cell order."""
    sha = hashlib.sha256()
    for text in canonical_reports:
        sha.update(text.encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def violations(cell, report) -> list[str]:
    """The analytic oracle's findings for one report (empty when correct)."""
    from repro.verify.analytic import check_report

    return [f"{v.oracle}: {v.message}" for v in check_report(cell, report)]


def pad_calls(report) -> int:
    """OTP pad acquisitions in a report (send plus receive direction)."""
    from repro.verify.violations import ratio_total

    return ratio_total(report, "otp.send") + ratio_total(report, "otp.recv")


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: host speed, in seed-engine events per second, that reported times are
#: scaled to (about the median of a shared 2-vCPU Xeon VM)
REFERENCE_EVENTS_PER_S = 250_000.0


class Calibrator:
    """Samples host speed while a run is timed, and scales host times to
    a reference speed.

    The probe is the seed engine loop ``benchmarks/bench_sweep_runtime.py``
    defines (``_LegacyEventQueue`` driven by ``_drive_queue``); it touches
    no program code, so a change to the program cannot move it.  On a
    shared host the speed of every process drifts by a third or more over
    seconds to minutes.  Scaling each measured interval by the median speed
    of the probes taken around it (``WINDOW_S`` before and after) removes
    most of that drift from run-to-run comparisons.  The raw host times
    are reported beside the scaled ones.
    """

    #: engine events per probe (about 10 ms)
    PROBE_EVENTS = 3000
    #: seconds between probes while a run is timed
    INTERVAL_S = 0.25
    #: probes within this many seconds of an interval set its speed
    WINDOW_S = 1.0
    #: probes taken back to back by :meth:`settle`
    SETTLE_PROBES = 5

    def __init__(self) -> None:
        import importlib.util

        path = ROOT / "benchmarks" / "bench_sweep_runtime.py"
        spec = importlib.util.spec_from_file_location("bench_sweep_runtime", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses resolve their module by name
        spec.loader.exec_module(module)
        self._queue_cls = module._LegacyEventQueue
        self._drive = module._drive_queue
        self.probes: list[tuple[float, float]] = []  # (time, events per second)
        self._next = 0.0

    def sample(self) -> None:
        """Probe now."""
        start = perf_counter()
        self._drive(self._queue_cls(), self.PROBE_EVENTS)
        end = perf_counter()
        self.probes.append(((start + end) / 2, self.PROBE_EVENTS / (end - start)))
        self._next = end + self.INTERVAL_S

    def tick(self) -> None:
        """Probe if the last probe is older than the interval (call between
        operations, never inside a timed one)."""
        if perf_counter() >= self._next:
            self.sample()

    def settle(self) -> None:
        """Probe several times now (after an interval no tick covered)."""
        for _ in range(self.SETTLE_PROBES):
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Host seconds of ``[start, end]`` -> reference seconds.  Call after
        the probes that follow the interval have been taken."""
        near = [
            speed
            for at, speed in self.probes
            if start - self.WINDOW_S <= at <= end + self.WINDOW_S
        ]
        if not near:  # fall back to the probe closest in time
            near = [min(self.probes, key=lambda probe: abs(probe[0] - end))[1]]
        return (end - start) * median(near) / REFERENCE_EVENTS_PER_S

    def score(self) -> float:
        """The run's calibration score: the median probe."""
        return median(speed for _, speed in self.probes)
