"""A finished cell is freed by refcounting alone.

``Simulator.run`` ends without a full garbage collection, so every
reference cycle a cell's machine is built from must be cut when
``MultiGpuSystem.run`` returns or raises (``MultiGpuSystem._teardown``).
Each check runs cells through ``execute_job`` with the cyclic collector
disabled and requires ``gc.collect()`` to find nothing unreachable
afterwards.  It counts objects, not bytes or seconds, so it cannot flake.

Run the same check over every cell of the quick verify matrix with::

    PYTHONPATH=src python tests/test_cell_teardown.py
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.configs import scheme_config
from repro.interconnect.faults import LinkFailureError
from repro.runner import SweepJob, execute_job
from repro.sim.engine import Simulator
from repro.verify.harness import matrix_cells
from repro.workloads import get_workload

SCHEMES = ("unsecure", "private", "cached", "dynamic", "batching")


def unreachable_after(run) -> int:
    """Objects ``run()`` leaves in unreachable cycles (collector disabled)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def _job(workload: str, scheme: str, fault: dict | None = None, adversary: dict | None = None):
    config = scheme_config(scheme, n_gpus=4)
    if fault:
        config = config.with_fault(**fault)
    if adversary:
        config = config.with_adversary(**adversary)
    return SweepJob(get_workload(workload), config, seed=1, scale=0.05)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_migrating_cell_leaves_no_cycle(scheme):
    reports = []
    assert unreachable_after(lambda: reports.append(execute_job(_job("pagerank", scheme)))) == 0
    assert reports[0].migrations > 0  # the shootdown path ran


@pytest.mark.parametrize(
    "fault, adversary",
    [
        (dict(drop_rate=0.02, corrupt_rate=0.02, duplicate_rate=0.02, delay_rate=0.02, seed=7), None),
        (None, dict(replay_rate=0.05, splice_rate=0.05, forge_rate=0.05, seed=11)),
    ],
    ids=["faults", "attacks"],
)
def test_hostile_cell_leaves_no_cycle(fault, adversary):
    assert unreachable_after(lambda: execute_job(_job("fir", "private", fault, adversary))) == 0


def test_cell_that_raises_leaves_no_cycle():
    # every copy dropped: retransmission gives up mid-run with blocks still
    # awaiting ACKs and fetches still in flight
    job = _job("fir", "private", dict(drop_rate=1.0, seed=7))
    raised = []

    def run():
        try:
            execute_job(job)
        except LinkFailureError:
            raised.append(True)

    assert unreachable_after(run) == 0
    assert raised


def test_run_does_not_collect(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "collect", lambda *args: calls.append(args) or 0)
    sim = Simulator()
    sim.post(3, lambda: None)
    assert gc.isenabled()
    sim.run()
    assert gc.isenabled() and calls == []


def main() -> int:
    leaks = 0
    for cell in matrix_cells("quick", n_gpus=4, seed=1):
        found = unreachable_after(lambda: execute_job(cell.job()))
        print(f"{cell.describe()}: {found} unreachable")
        leaks += found > 0
    print(f"{leaks} cell(s) left reference cycles")
    return 1 if leaks else 0


if __name__ == "__main__":
    sys.exit(main())
