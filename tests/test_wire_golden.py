"""Golden digests of hostile-wire and clean reports.

Each cell hashes the canonical report JSON (every counter, ledger,
timeline and metric the run produced), so a refactor that shifts one
event anywhere shows up here.  Two families of cells:

* hostile wire: ``fir`` under link faults, an active adversary, or both.
  The digests pin which copies land, when, and in what order.
* clean: every scheme on ``pagerank`` (page migrations, shootdowns) and
  ``allgather`` (collective traffic, no migrations), with no fault and no
  attack.  These pin the GPU issue pump, the caches, the migration path
  and the secure channel's clean path, including the engine's
  event/push/cancel profile on the report.

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
CLEAN_SCHEMES = ("unsecure", "private", "cached", "dynamic", "batching")
CLEAN_WORKLOADS = ("pagerank", "allgather")


def _cells() -> dict[str, tuple[str, str, int, dict, dict]]:
    cells = {}
    for scheme in SCHEMES:
        cells[f"{scheme}-faults"] = ("fir", scheme, 4, FAULTS, {})
        cells[f"{scheme}-attacks"] = ("fir", scheme, 4, {}, ATTACKS)
        cells[f"{scheme}-both"] = ("fir", scheme, 4, BOTH_FAULTS, BOTH_ATTACKS)
    # the smallest fabric with GPU-to-GPU traffic: a splice's only third
    # node is the CPU (the splice-to-flip fallback needs a two-node
    # fabric, which carries no data blocks; tests/test_adversary.py
    # covers it at the injector)
    cells["private-attacks-2gpu"] = ("fir", "private", 2, {}, ATTACKS)
    for scheme in CLEAN_SCHEMES:
        for workload in CLEAN_WORKLOADS:
            cells[f"{scheme}-{workload}"] = (workload, scheme, 4, {}, {})
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
    # clean cells: no fault, no attack
    "batching-allgather": "c043615e0065b621978726e47b8f721cfe7373a731bcd3a1ab678e1d37f1b66d",
    "batching-pagerank": "c2f234fbdaa82465f8e9066b85bb16ec3fdcc0f030ee6a299b59b1984aebe5e0",
    "cached-allgather": "5471a0461e671a1831d24610e14f87303785e3ce59f41999d03c17d5878c82cc",
    "cached-pagerank": "f7981dd332191ce843c6db0cf39d79e0226fdcc31e6d468562c7f86c1097f055",
    "dynamic-allgather": "e57c1b648a7c3f745097b060aadea15323c552a0b3c2366d3c219ae5c732479e",
    "dynamic-pagerank": "60e7e94577b07c008b4d11162d1027423e56bf9daee2c244b0a193ec6089ac31",
    "private-allgather": "6ebf822a8c4b6be2bff88ba1d1b15a7872e72abef0859a4f50669da49ed97ed5",
    "private-pagerank": "8ea73c544f79cb18d56de3dea151e5b4d2975bb711756bd766c35f99381f9dcf",
    "unsecure-allgather": "e99c340d7e7baac487c9190690816c6155ff45ad03159bd4661d75924e19e334",
    "unsecure-pagerank": "45db7df6076b1137486de5d8a6b2c2a4c810d108bcafe1e029a7388869b7370d",
}


def _digest(name: str) -> str:
    workload, scheme, n_gpus, fault, adversary = CELLS[name]
    config = scheme_config(scheme, n_gpus=n_gpus)
    if fault:
        config = config.with_fault(**fault)
    if adversary:
        config = config.with_adversary(**adversary)
    report = execute_job(SweepJob(get_workload(workload), config, seed=1, scale=0.05))
    return hashlib.sha256(canonical_report_json(report).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CELLS))
def test_report_digest_is_pinned(name):
    assert _digest(name) == GOLDEN[name]


if __name__ == "__main__":
    print(json.dumps({name: _digest(name) for name in sorted(CELLS)}, indent=4))
