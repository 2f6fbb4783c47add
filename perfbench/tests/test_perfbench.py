"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q

The end-to-end cases start ``perfbench/run.py`` with a tiny time budget,
so each workload does its smallest whole unit of work.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common, serve, sweeps  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in SPEC["workloads"]]
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
        assert unit.match(metric["unit"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
        assert unit.match(metric["unit"])
    assert all(name.match(n) for n in names) and len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_completes_without_failures(workload):
    info, result = _run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert info["failed_frac"] == 0.0
    assert info["calibration_events_per_s"] > 0
    for metric in SPEC["end_to_end"]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] and value["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_untraced_digest(workload):
    untraced, _ = _run(workload, trace=0)
    traced, result = _run(workload, trace=1)
    assert result["correct"] and traced["untraced_digest_matches"]
    assert traced["report_digest"] == untraced["report_digest"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    if workload == "secure_stream":
        assert metrics["memory.migrations"] == 0 and metrics["gpu.shootdowns"] == 0
        assert metrics["secure.pad_calls"] > 0
    if workload == "migrate_local":
        assert metrics["secure.pad_calls"] == 0 and metrics["core.batch_s"] == 0
        assert metrics["gpu.shootdowns"] > 0


def test_altered_report_counts_as_failed(monkeypatch):
    real = sweeps.execute_job

    def altered(job, **kwargs):
        report = real(job, **kwargs)
        if job.spec.name == "fir":
            report.traffic_bytes += 64
        return report

    monkeypatch.setattr(sweeps, "execute_job", altered)
    outcome = sweeps.run("migrate_local", 3, 0.0, False, process_start=0.0)
    assert not outcome.correct
    assert outcome.failed == 1  # one fir cell in one pass
    assert "fir/unsecure" in " ".join(outcome.info["shares"]["violations"])


def test_served_report_differing_from_direct_run_counts_as_failed():
    cell = serve.pool()[0]
    ref = sweeps.CellRef(cell[0], cell[1], n_gpus=serve.N_GPUS, seed=3, scale=serve.SCALE)
    report = sweeps.execute_job(ref.job())
    payload = json.loads(sweeps.canonical_report_json(report))
    payload["traffic_bytes"] += 64

    class Session:
        texts = {cell: json.dumps(payload, sort_keys=True, separators=(",", ":"))}
        counts = {cell: 5}

    failed, accesses, problems = serve._check([Session()], seed=3)
    assert failed == 5 and accesses[cell] > 0 and problems


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(100)]
    value, percentile, count = common.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert (percentile, count) == (90.0, 100)


def test_calibrator_scales_each_interval_by_the_probes_near_it():
    calibrator = common.Calibrator()
    reference = common.REFERENCE_EVENTS_PER_S
    calibrator.probes = [(0.0, 2 * reference), (10.0, reference / 2)]
    assert calibrator.scale(0.0, 0.5) == pytest.approx(1.0)
    assert calibrator.scale(9.5, 10.0) == pytest.approx(0.25)
    assert calibrator.scale(5.0, 5.5) == pytest.approx(0.25)  # nearest probe
