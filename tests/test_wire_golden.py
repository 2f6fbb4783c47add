"""Golden digests of hostile-wire reports.

Each cell runs ``fir`` under link faults, an active adversary, or both,
and hashes the canonical report JSON (every counter, ledger, timeline and
metric the run produced).  The digests pin the exact wire behaviour —
which copies land, when, and in what order — so a refactor of the
injection path that shifts one event anywhere shows up here.

Regenerate (only for a deliberate behaviour change, and say why) with::

    PYTHONPATH=src python tests/test_wire_golden.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.configs import scheme_config
from repro.runner import SweepJob, execute_job
from repro.service.protocol import canonical_report_json
from repro.workloads import get_workload

#: all four link-fault kinds
FAULTS = dict(drop_rate=0.02, corrupt_rate=0.02, duplicate_rate=0.02, delay_rate=0.02, seed=7)
#: all seven attack kinds, with quarantine armed
ATTACKS = dict(
    flip_cipher_rate=0.02,
    flip_mac_rate=0.01,
    replay_rate=0.02,
    reorder_rate=0.02,
    truncate_rate=0.01,
    splice_rate=0.02,
    forge_rate=0.02,
    quarantine_threshold=4,
    seed=3,
)
#: link echoes and delay spikes hitting replayed, spliced and forged copies
BOTH_FAULTS = dict(duplicate_rate=0.08, delay_rate=0.04, seed=5)
BOTH_ATTACKS = dict(replay_rate=0.05, splice_rate=0.05, forge_rate=0.05, seed=11)

SCHEMES = ("unsecure", "private", "batching")


def _cells() -> dict[str, tuple[str, int, dict, dict]]:
    cells = {}
    for scheme in SCHEMES:
        cells[f"{scheme}-faults"] = (scheme, 4, FAULTS, {})
        cells[f"{scheme}-attacks"] = (scheme, 4, {}, ATTACKS)
        cells[f"{scheme}-both"] = (scheme, 4, BOTH_FAULTS, BOTH_ATTACKS)
    # the smallest fabric with GPU-to-GPU traffic: a splice's only third
    # node is the CPU (the splice-to-flip fallback needs a two-node
    # fabric, which carries no data blocks; tests/test_adversary.py
    # covers it at the injector)
    cells["private-attacks-2gpu"] = ("private", 2, {}, ATTACKS)
    return cells


CELLS = _cells()

GOLDEN = {
    "batching-attacks": "bd75c472ebda2d1c1551822a2dd7d83b6795cd0113f628779527fe3095bc4105",
    "batching-both": "f90d49b507a407a67ce797d3802747451de70aec05cc35fac7f7f5ff7d062b69",
    "batching-faults": "179677336988078e9c0904a09b551d9a0a7f97ecc3470b425e8ddb46e42f56a5",
    "private-attacks": "c516e3f0f7cc899b68814f4ceb6bff143371b9143ad6eb79640b5354f496bd17",
    "private-attacks-2gpu": "195f81d7da2a6f9a23f17cba7426ea4d99550e179423ee7879780265f317eba8",
    "private-both": "10894d6c871dac724842dbd2d4ff1db8db3f504388d296deb69f777590d1d4f8",
    "private-faults": "aa7f10a167a074660285aab2a40b6bf152dd9661af440e8f9f4eb486c67b2086",
    "unsecure-attacks": "dd1cf59300cf2a251fe555753ac372e7c93822ca6a7d749ed293ac9b66c7807f",
    # link echoes hit replayed and spliced copies here: the echo goes on
    # the wire after the attacker's extra copy, on both transports
    "unsecure-both": "0f8fd69a337e593fcc5dc6104a71ac1e8e321cc2c9098b0c0ddb7d8a073646d7",
    "unsecure-faults": "b6b5507b3d83935b5f6148e8f11845fd74188fa12f525b5a347130f0b7e864f1",
}


def _digest(name: str) -> str:
    scheme, n_gpus, fault, adversary = CELLS[name]
    config = scheme_config(scheme, n_gpus=n_gpus)
    if fault:
        config = config.with_fault(**fault)
    if adversary:
        config = config.with_adversary(**adversary)
    report = execute_job(SweepJob(get_workload("fir"), config, seed=1, scale=0.05))
    return hashlib.sha256(canonical_report_json(report).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CELLS))
def test_report_digest_is_pinned(name):
    assert _digest(name) == GOLDEN[name]


if __name__ == "__main__":
    print(json.dumps({name: _digest(name) for name in sorted(CELLS)}, indent=4))
