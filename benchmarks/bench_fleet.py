"""Fleet scaling benchmark: one sweep through 1/2/4-worker pools.

Times the same sweep (one workload x three schemes x eight seeds ->
eight trace-key work units) three ways:

* **direct** — a local ``SweepRunner(jobs=1)``, the baseline every
  fleet configuration is checked byte-identical against;
* **fleet xN** — a real ``repro-sim fleet coordinator`` subprocess plus
  N ``serve-worker`` subprocesses (N = 1, 2, 4), driven through the
  blocking :class:`~repro.service.client.ServiceClient` as one ``sweep``.

Each pool size gets a fresh trace directory so no configuration rides
an earlier one's warm store; the 1-worker wall time therefore brackets
the full distribution overhead (handshake, framing, MACs, merge) and
the 2/4-worker times show what real process-level parallelism buys.

Results land in ``results/BENCH_fleet.json`` so future PRs have a
scaling trajectory to compare against; the CI ``control-plane-smoke``
job uploads it as an artifact.

Standalone:    PYTHONPATH=src python benchmarks/bench_fleet.py
Under pytest:  PYTHONPATH=src python -m pytest benchmarks/bench_fleet.py -q

``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_SEED`` shrink or pin the traces.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.configs import scheme_config
from repro.runner import SweepJob, SweepRunner
from repro.service.client import ServiceClient
from repro.service.protocol import canonical_report_json
from repro.workloads import get_workload

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = ROOT / "results"

BENCH_KEY = b"fleet-bench-shared-secret"
GPUS = 2
WORKER_COUNTS = (1, 2, 4)
SCHEMES = ("unsecure", "private", "batching")
SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)


def _grid(scale: float, base_seed: int) -> list[SweepJob]:
    return [
        SweepJob(
            spec=get_workload("fir"),
            config=scheme_config(scheme, n_gpus=GPUS),
            seed=base_seed + offset,
            scale=scale,
        )
        for scheme in SCHEMES
        for offset in range(len(SEEDS))
    ]


def _wait_for_port(port_file: Path, deadline_s: float = 30.0) -> int:
    started = time.monotonic()
    while time.monotonic() - started < deadline_s:
        if port_file.exists():
            text = port_file.read_text().strip()
            if text:
                return int(text)
        time.sleep(0.1)
    raise AssertionError(f"coordinator never wrote its port to {port_file}")


def _child_env(trace_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["REPRO_TRACE_DIR"] = str(trace_dir)
    env["REPRO_NO_CACHE"] = "1"
    return env


def _fleet_run(grid: list[SweepJob], n_workers: int, workdir: Path) -> tuple[list, float]:
    """Spawn coordinator + N workers, time one sweep, tear down cleanly."""
    key_file = workdir / "fleet.key"
    key_file.write_bytes(BENCH_KEY)
    port_file = workdir / "port"
    env = _child_env(workdir / "traces")
    children: list[subprocess.Popen] = []

    def spawn(*argv: str) -> subprocess.Popen:
        child = subprocess.Popen([sys.executable, "-m", "repro", *argv], env=env)
        children.append(child)
        return child

    try:
        spawn(
            "fleet", "coordinator",
            "--host", "127.0.0.1", "--port", "0",
            "--auth-key-file", str(key_file),
            "--port-file", str(port_file),
        )
        addr = f"127.0.0.1:{_wait_for_port(port_file)}"
        for n in range(n_workers):
            spawn(
                "fleet", "serve-worker",
                "--addr", addr,
                "--auth-key-file", str(key_file),
                "--name", f"bench-worker-{n}",
            )
        with ServiceClient(addr, 600.0, key=BENCH_KEY, name="bench-client") as client:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if len(client.status()["workers"]) == n_workers:
                    break
                time.sleep(0.1)
            else:
                raise AssertionError(f"{n_workers} workers never registered")
            start = time.perf_counter()
            response = client.sweep(grid)
            elapsed = time.perf_counter() - start
        assert response.get("ok"), f"fleet sweep failed: {response}"
        # SIGTERM the coordinator; it drains and tells the workers to
        # shut down, so every process must exit 0 on its own.
        children[0].send_signal(signal.SIGTERM)
        for child in children:
            assert child.wait(timeout=30) == 0, "fleet process did not exit cleanly"
        children.clear()
        return response["reports"], elapsed
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=10)


def fleet_bench(scale: float, seed: int) -> dict:
    grid = _grid(scale, seed)

    start = time.perf_counter()
    direct = SweepRunner(jobs=1, cache=None).run_jobs(grid)
    direct_s = time.perf_counter() - start
    expected = [canonical_report_json(report) for report in direct]

    scaling = []
    for n_workers in WORKER_COUNTS:
        workdir = Path(tempfile.mkdtemp(prefix=f"repro-bench-fleet{n_workers}-"))
        try:
            reports, elapsed = _fleet_run(grid, n_workers, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        scaling.append({
            "workers": n_workers,
            "wall_s": elapsed,
            "speedup_vs_direct": direct_s / elapsed if elapsed else 0.0,
            "byte_identical": [canonical_report_json(r) for r in reports] == expected,
        })

    one_worker_s = scaling[0]["wall_s"]
    for entry in scaling:
        entry["speedup_vs_one_worker"] = (
            one_worker_s / entry["wall_s"] if entry["wall_s"] else 0.0
        )
    return {
        "grid_cells": len(grid),
        "work_units": len(SEEDS),
        "schemes": list(SCHEMES),
        "gpus": GPUS,
        "scale": scale,
        "seed": seed,
        "direct_s": direct_s,
        "scaling": scaling,
    }


def main(out_path: Path | None = None) -> dict:
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.4"))
    seed = int(os.environ.get("REPRO_BENCH_SEED", "1"))
    payload = {
        "bench": "fleet",
        "cpu_count": os.cpu_count(),
        "fleet": fleet_bench(scale, seed),
    }
    out_path = out_path or RESULTS_DIR / "BENCH_fleet.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")

    bench = payload["fleet"]
    print(f"fleet sweep of {bench['grid_cells']} cells "
          f"({bench['work_units']} units) @ scale {bench['scale']}:")
    print(f"  direct (jobs=1)      {bench['direct_s']:.2f}s")
    for entry in bench["scaling"]:
        print(f"  fleet x{entry['workers']}             {entry['wall_s']:.2f}s "
              f"({entry['speedup_vs_one_worker']:.2f}x vs 1 worker, "
              f"{entry['speedup_vs_direct']:.2f}x vs direct, "
              f"byte-identical {entry['byte_identical']})")
    print(f"[written to {out_path}]")
    return payload


def test_fleet_scaling_bench(results_dir):
    payload = main(results_dir / "BENCH_fleet.json")
    bench = payload["fleet"]
    assert [entry["workers"] for entry in bench["scaling"]] == list(WORKER_COUNTS)
    # Correctness is the hard assertion: every pool size must merge
    # byte-identical to the direct runner.  Wall-clock ratios are
    # recorded for the trajectory but not asserted — CI runners have
    # too few cores to make scaling a stable gate.
    assert all(entry["byte_identical"] for entry in bench["scaling"])
    assert all(entry["wall_s"] > 0 for entry in bench["scaling"])


if __name__ == "__main__":
    main()
