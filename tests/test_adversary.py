"""Active-adversary harness: injector, invariant monitor, quarantine.

The contract under test (see ``docs/ROBUSTNESS.md``): an in-fabric
adversary mutating, replaying, redirecting, and forging wire traffic never
gets a manipulated block accepted by a secure scheme — every injected
attack resolves to detected or provably-harmless — while the unsecure
baseline silently consumes the same manipulations.  Dormant adversary
configs must be byte-invisible: identical reports, metrics, and cache keys.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MultiGpuSystem
from repro.configs import AdversaryConfig, FaultConfig, scheme_config
from repro.interconnect.faults import FaultVerdict
from repro.interconnect.topology import CPU_NODE, Topology
from repro.runner import SweepJob, execute_job
from repro.runner.jobs import job_key
from repro.runner.serialize import report_from_dict, report_to_dict
from repro.secure.adversary import (
    AttackKind,
    AttackReport,
    WireInjector,
)
from repro.secure.invariants import InvariantMonitor, InvariantViolationError
from repro.workloads import get_workload

SCALE = 0.1

#: A mix exercising every attack class at once.
ALL_RATES = dict(
    flip_cipher_rate=0.02,
    flip_mac_rate=0.01,
    replay_rate=0.02,
    reorder_rate=0.02,
    truncate_rate=0.01,
    splice_rate=0.01,
    forge_rate=0.01,
    seed=3,
)


def _run(scheme: str, **adversary):
    config = scheme_config(scheme)
    if adversary:
        config = config.with_adversary(**adversary)
    trace = get_workload("fir").generate(n_gpus=4, seed=1, scale=SCALE)
    return MultiGpuSystem(config).run(trace)


class TestAdversaryConfig:
    def test_defaults_are_dormant(self):
        cfg = AdversaryConfig()
        assert not cfg.enabled
        assert cfg.total_rate == 0.0

    def test_any_rate_enables(self):
        assert AdversaryConfig(forge_rate=0.01).enabled

    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            AdversaryConfig(replay_rate=-0.1)
        with pytest.raises(ValueError):
            AdversaryConfig(flip_cipher_rate=1.5)

    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError):
            AdversaryConfig(flip_cipher_rate=0.6, replay_rate=0.6)

    def test_with_adversary_builder(self):
        config = scheme_config("private").with_adversary(splice_rate=0.05, seed=9)
        assert config.adversary.splice_rate == 0.05
        assert config.adversary.seed == 9
        assert config.security == scheme_config("private").security


class _AttacksOnly(WireInjector):
    """A :class:`WireInjector` with no link faults, rolling attacks only."""

    def __init__(self, cfg: AdversaryConfig, nodes: list[int]) -> None:
        super().__init__(FaultConfig(), cfg, nodes)

    def decide(self, src: int, dst: int) -> AttackKind | None:
        verdict, attack = super().decide(src, dst)
        assert verdict is FaultVerdict.OK
        return attack


class TestAdversaryInjector:
    def _injector(self, **overrides) -> _AttacksOnly:
        cfg = AdversaryConfig(**{**ALL_RATES, **overrides})
        return _AttacksOnly(cfg, [CPU_NODE, 1, 2, 3, 4])

    def test_decisions_are_seed_deterministic(self):
        a, b = self._injector(), self._injector()
        rolls_a = [a.decide(1, 2) for _ in range(500)]
        rolls_b = [b.decide(1, 2) for _ in range(500)]
        assert rolls_a == rolls_b
        assert any(r is not None for r in rolls_a)

    def test_pairs_roll_independently(self):
        inj = self._injector()
        rolls_12 = [inj.decide(1, 2) for _ in range(200)]
        other = self._injector()
        rolls_21 = [other.decide(2, 1) for _ in range(200)]
        assert rolls_12 != rolls_21  # directed pairs have distinct streams

    def test_seed_changes_the_stream(self):
        base_inj = self._injector()
        base = [base_inj.decide(1, 2) for _ in range(200)]
        other_inj = self._injector(seed=99)
        other = [other_inj.decide(1, 2) for _ in range(200)]
        assert base != other

    def test_all_attack_kinds_reachable(self):
        inj = self._injector()
        seen = set()
        for _ in range(5000):
            kind = inj.decide(1, 2)
            if kind is not None:
                seen.add(kind)
        assert seen == set(AttackKind)

    def test_quarantined_pair_stops_rolling(self):
        inj = self._injector()
        inj.on_quarantine(1, 2)
        assert all(inj.decide(1, 2) is None for _ in range(300))
        assert (1, 2) in inj.quarantined_pairs
        # the reverse direction is unaffected
        assert any(inj.decide(2, 1) is not None for _ in range(300))

    def test_splice_target_avoids_the_pair(self):
        inj = self._injector()
        target = inj.splice_target(1, 2)
        assert target not in (1, 2)

    def test_two_node_fabric_splice_degrades_to_flip(self):
        inj = _AttacksOnly(AdversaryConfig(splice_rate=1.0), [CPU_NODE, 1])
        assert inj.splice_target(CPU_NODE, 1) is None
        assert all(inj.decide(CPU_NODE, 1) is AttackKind.FLIP_CIPHER for _ in range(20))

    def test_a_destroyed_copy_is_not_attacked(self):
        for fault in (FaultVerdict.DROP, FaultVerdict.CORRUPT):
            wire = WireInjector(
                FaultConfig(**{f"{fault.value}_rate": 1.0}),
                AdversaryConfig(forge_rate=1.0),
                [CPU_NODE, 1, 2],
            )
            assert wire.decide(1, 2) == (fault, None)
        wire = WireInjector(
            FaultConfig(duplicate_rate=1.0), AdversaryConfig(forge_rate=1.0), [CPU_NODE, 1, 2]
        )
        assert wire.decide(1, 2) == (FaultVerdict.DUPLICATE, AttackKind.FORGE)


class _LegacyFaultStream:
    """Verbatim roll logic of the separate fault injector the
    :class:`WireInjector` replaced (reference for the differential)."""

    def __init__(self, cfg: FaultConfig) -> None:
        self.cfg = cfg
        self._rngs: dict[tuple[int, int], random.Random] = {}

    def _rng(self, src: int, dst: int) -> random.Random:
        key = (src, dst)
        rng = self._rngs.get(key)
        if rng is None:
            rng = random.Random(f"fault:{self.cfg.seed}:{src}->{dst}")
            self._rngs[key] = rng
        return rng

    def decide(self, src: int, dst: int) -> FaultVerdict:
        roll = self._rng(src, dst).random()
        cfg = self.cfg
        if roll < cfg.drop_rate:
            return FaultVerdict.DROP
        roll -= cfg.drop_rate
        if roll < cfg.corrupt_rate:
            return FaultVerdict.CORRUPT
        roll -= cfg.corrupt_rate
        if roll < cfg.duplicate_rate:
            return FaultVerdict.DUPLICATE
        roll -= cfg.duplicate_rate
        if roll < cfg.delay_rate:
            return FaultVerdict.DELAY
        return FaultVerdict.OK


_LEGACY_ORDER = (
    (AttackKind.FLIP_CIPHER, "flip_cipher_rate"),
    (AttackKind.FLIP_MAC, "flip_mac_rate"),
    (AttackKind.REPLAY, "replay_rate"),
    (AttackKind.REORDER, "reorder_rate"),
    (AttackKind.TRUNCATE, "truncate_rate"),
    (AttackKind.SPLICE, "splice_rate"),
    (AttackKind.FORGE, "forge_rate"),
)


class _LegacyAttackStream:
    """Verbatim roll logic of the separate attack injector the
    :class:`WireInjector` replaced (reference for the differential)."""

    def __init__(self, cfg: AdversaryConfig, nodes: list[int]) -> None:
        self.cfg = cfg
        self._rngs: dict[tuple[int, int], random.Random] = {}
        self._nodes = list(nodes)
        self._quarantined: set[tuple[int, int]] = set()

    def _rng(self, src: int, dst: int) -> random.Random:
        key = (src, dst)
        rng = self._rngs.get(key)
        if rng is None:
            rng = random.Random(f"adv:{self.cfg.seed}:{src}->{dst}")
            self._rngs[key] = rng
        return rng

    def decide(self, src: int, dst: int) -> AttackKind | None:
        if (src, dst) in self._quarantined:
            return None
        roll = self._rng(src, dst).random()
        for kind, field in _LEGACY_ORDER:
            rate = getattr(self.cfg, field)
            if roll < rate:
                if kind is AttackKind.SPLICE and self.splice_target(src, dst) is None:
                    return AttackKind.FLIP_CIPHER
                return kind
            roll -= rate
        return None

    def splice_target(self, src: int, dst: int) -> int | None:
        for node in self._nodes:
            if node != src and node != dst:
                return node
        return None

    def on_quarantine(self, src: int, dst: int) -> None:
        self._quarantined.add((src, dst))


def _legacy_event(faults, attacks, src, dst):
    """What the transports made of the two legacy streams, per wire copy."""
    verdict = faults.decide(src, dst) if faults is not None else FaultVerdict.OK
    attack = attacks.decide(src, dst) if attacks is not None else None
    if verdict in (FaultVerdict.DROP, FaultVerdict.CORRUPT):
        attack = None
    return verdict, attack


def _eighths(parts: list[int]) -> list[float]:
    """Clip integer eighths to a budget of 8: exact rates summing to <= 1."""
    rates, budget = [], 8
    for part in parts:
        part = min(part, budget)
        budget -= part
        rates.append(part / 8)
    return rates


def _rates(n: int):
    """Rate vectors: all zero, a single 1.0, exact eighths (sums of exactly
    1 included), and arbitrary floats scaled to sum to about 1."""
    return st.one_of(
        st.just([0.0] * n),
        st.integers(0, n - 1).map(lambda i: [float(j == i) for j in range(n)]),
        st.lists(st.integers(0, 8), min_size=n, max_size=n).map(_eighths),
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).map(
            lambda r: [x / max(1.0, sum(r)) for x in r]
        ),
    )


_FAULT_FIELDS = ("drop_rate", "corrupt_rate", "duplicate_rate", "delay_rate")


class TestWireInjectorDifferential:
    @settings(max_examples=200, deadline=None)
    @given(
        fault_seed=st.integers(0, 2**16),
        adv_seed=st.integers(0, 2**16),
        fault_rates=_rates(4),
        attack_rates=_rates(7),
        n_nodes=st.sampled_from([2, 3, 5]),
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 4), st.integers(0, 4)),
            min_size=1,
            max_size=120,
        ),
    )
    def test_event_stream_matches_the_two_legacy_injectors(
        self, fault_seed, adv_seed, fault_rates, attack_rates, n_nodes, ops
    ):
        fault = FaultConfig(seed=fault_seed, **dict(zip(_FAULT_FIELDS, fault_rates)))
        adversary = AdversaryConfig(
            seed=adv_seed, **dict(zip(AdversaryConfig._RATE_FIELDS, attack_rates))
        )
        nodes = list(range(n_nodes))
        wire = WireInjector(fault, adversary, nodes)
        faults = _LegacyFaultStream(fault) if fault.enabled else None
        attacks = _LegacyAttackStream(adversary, nodes) if adversary.enabled else None
        for quarantine, a, b in ops:
            src, dst = a % n_nodes, b % n_nodes
            if src == dst:
                continue
            if quarantine:
                wire.on_quarantine(src, dst)
                if attacks is not None:
                    attacks.on_quarantine(src, dst)
                continue
            assert wire.decide(src, dst) == _legacy_event(faults, attacks, src, dst)


class TestRateTablesLineUp:
    """The injector builds its roll tables from the outcome enums, reading
    each rate as ``{value}_rate``: the enum order is the roll order and
    must stay the config's rate-field order."""

    def test_attack_kinds_match_adversary_rate_fields(self):
        assert [f"{kind.value}_rate" for kind in AttackKind] == list(
            AdversaryConfig._RATE_FIELDS
        )

    def test_fault_verdicts_match_fault_rate_fields(self):
        fields = [f.name for f in dataclasses.fields(FaultConfig) if f.name.endswith("_rate")]
        verdicts = [v for v in FaultVerdict if v is not FaultVerdict.OK]
        assert [f"{v.value}_rate" for v in verdicts] == fields == list(_FAULT_FIELDS)


class TestAttackReport:
    def _populated(self) -> AttackReport:
        r = AttackReport()
        r.note_injected(AttackKind.REPLAY)
        r.note_injected(AttackKind.FORGE)
        r.note_detected(AttackKind.REPLAY)
        r.note_accepted(AttackKind.FORGE)
        r.note_quarantined(1, 2)
        return r

    def test_round_trip(self):
        r = self._populated()
        clone = AttackReport.from_dict(r.as_dict())
        assert clone.as_dict() == r.as_dict()

    def test_totals(self):
        r = self._populated()
        assert r.total_injected == 2
        assert r.total_detected == 1
        assert r.accepted_undetected == 1
        assert r.unresolved == 0

    def test_merge_accumulates(self):
        a, b = self._populated(), self._populated()
        a.merge(b)
        assert a.total_injected == 4
        assert a.accepted_undetected == 2
        assert a.quarantined == [[1, 2], [1, 2]]

    def test_report_serialization_round_trip(self):
        report = _run("private", **ALL_RATES)
        data = report_to_dict(report)
        assert "attack_report" in data
        clone = report_from_dict(data)
        assert clone.attack_report.as_dict() == report.attack_report.as_dict()

    def test_clean_report_has_no_attack_section(self):
        report = _run("private")
        assert report.attack_report is None
        assert "attack_report" not in report_to_dict(report)


class TestZeroUndetectedContract:
    @pytest.mark.parametrize("scheme", ["private", "dynamic", "batching"])
    def test_secure_scheme_detects_everything(self, scheme):
        report = _run(scheme, **ALL_RATES)
        ledger = report.attack_report
        assert ledger.total_injected > 0
        assert ledger.accepted_undetected == 0
        assert ledger.unresolved == 0
        assert report.metrics["adv.accepted_undetected"]["value"] == 0
        assert report.metrics["adv.invariant_violations"]["value"] == 0

    def test_unsecure_baseline_accepts_attacks(self):
        report = _run("unsecure", **ALL_RATES)
        ledger = report.attack_report
        assert ledger.total_injected > 0
        assert ledger.accepted_undetected > 0
        assert ledger.unresolved == 0

    def test_attack_runs_are_deterministic(self):
        a = report_to_dict(_run("private", **ALL_RATES))
        b = report_to_dict(_run("private", **ALL_RATES))
        assert a == b


class TestDormantByteIdentity:
    def test_rate_zero_adversary_is_invisible(self):
        pristine = report_to_dict(_run("private"))
        dormant = report_to_dict(_run("private", flip_cipher_rate=0.0))
        assert dormant == pristine

    def test_rate_zero_adversary_shares_the_cache_key(self):
        spec = get_workload("fir")
        plain = SweepJob(spec=spec, config=scheme_config("private"), seed=1, scale=SCALE)
        dormant = SweepJob(
            spec=spec,
            config=scheme_config("private").with_adversary(replay_rate=0.0),
            seed=1,
            scale=SCALE,
        )
        active = SweepJob(
            spec=spec,
            config=scheme_config("private").with_adversary(replay_rate=0.01),
            seed=1,
            scale=SCALE,
        )
        assert job_key(plain) == job_key(dormant)
        assert job_key(plain) != job_key(active)

    def test_adversary_metrics_absent_when_dormant(self):
        report = execute_job(
            SweepJob(
                spec=get_workload("fir"),
                config=scheme_config("private").with_adversary(forge_rate=0.0),
                seed=1,
                scale=SCALE,
            )
        )
        assert not any(n.startswith("adv.") for n in report.metrics)


class TestQuarantine:
    def test_detections_trigger_quarantine_and_run_completes(self):
        report = _run(
            "private",
            flip_cipher_rate=0.05,
            flip_mac_rate=0.02,
            truncate_rate=0.02,
            seed=5,
            quarantine_threshold=3,
        )
        ledger = report.attack_report
        assert ledger.quarantined, "expected at least one quarantined link"
        assert ledger.accepted_undetected == 0
        assert ledger.unresolved == 0
        assert report.metrics["adv.quarantined_links"]["value"] == len(
            ledger.quarantined
        )

    def test_threshold_zero_never_quarantines(self):
        report = _run("private", flip_cipher_rate=0.05, seed=5)
        assert report.attack_report.quarantined == []

    def test_p2p_reroute_changes_the_path(self):
        topo = Topology(4)
        before = topo.path(1, 2)
        assert topo.quarantine(1, 2)
        after = topo.path(1, 2)
        assert after != before
        assert topo.is_quarantined(1, 2)
        assert not topo.is_quarantined(2, 1)  # directed
        assert topo.quarantine(1, 2)  # idempotent

    def test_ring_reroute_uses_the_other_direction(self):
        topo = Topology(4, fabric="ring")
        before = topo.path(1, 2)
        assert topo.quarantine(1, 2)
        after = topo.path(1, 2)
        assert after != before
        assert len(after) == topo.n_gpus - 1  # long way round

    def test_switch_reroute_avoids_direct_transit(self):
        topo = Topology(4, fabric="switch")
        before = topo.path(1, 2)
        assert topo.quarantine(1, 2)
        assert topo.path(1, 2) != before

    def test_cpu_links_cannot_be_rerouted(self):
        topo = Topology(4)
        assert not topo.quarantine(CPU_NODE, 1)
        assert not topo.quarantine(1, CPU_NODE)

    def test_two_gpu_p2p_falls_back_to_host_detour(self):
        topo = Topology(2)
        assert topo.quarantine(1, 2)
        names = [ch.name for ch in topo.path(1, 2)]
        assert any("pcie" in name for name in names)


class TestInvariantMonitor:
    def test_clean_transcript_passes(self):
        m = InvariantMonitor()
        m.on_counter(1, 2, 0)
        m.on_send_pad(1, 2, 0)
        m.on_recv_pad(1, 2, 0)
        m.on_delivered(1, 2, 0, pid=7)
        m.check()

    def test_counter_regression_flagged(self):
        m = InvariantMonitor()
        m.on_counter(1, 2, 5)
        m.on_counter(1, 2, 5)
        with pytest.raises(InvariantViolationError, match="monotonic"):
            m.check()

    def test_pad_double_consumption_flagged(self):
        m = InvariantMonitor()
        m.on_send_pad(1, 2, 3)
        m.on_send_pad(1, 2, 3)
        with pytest.raises(InvariantViolationError, match="send pad"):
            m.check()

    def test_tampered_delivery_flagged(self):
        m = InvariantMonitor()
        m.on_tampered_copy(1, 2, 4, pid=11)
        m.on_delivered(1, 2, 4, pid=11)
        with pytest.raises(InvariantViolationError, match="tampered"):
            m.check()

    def test_delivery_after_mac_reject_flagged(self):
        m = InvariantMonitor()
        m.on_mac_reject(1, 2, 4, pid=11)
        m.on_delivered(1, 2, 4, pid=11)
        with pytest.raises(InvariantViolationError, match="rejection"):
            m.check()

    def test_copy_identity_is_per_pid(self):
        # the same counter on a different wire copy is a different block
        m = InvariantMonitor()
        m.on_tampered_copy(1, 2, 4, pid=11)
        m.on_delivered(1, 2, 4, pid=12)
        m.check()

    def test_unresolved_attacks_flagged(self):
        m = InvariantMonitor()
        report = AttackReport()
        report.note_injected(AttackKind.SPLICE)
        m.check_attack_report(report)
        with pytest.raises(InvariantViolationError, match="never resolved"):
            m.check()


class TestExperimentHarness:
    def test_smoke_assertions_importable(self):
        from repro.experiments.fig_adversary import (
            MIXES,
            adversary_config,
            adversary_overrides,
        )

        for mix in MIXES:
            overrides = adversary_overrides(mix, rate=0.04)
            rates = [v for k, v in overrides.items() if k.endswith("_rate")]
            assert abs(sum(rates) - 0.04) < 1e-12
            config = adversary_config("private", mix)
            assert config.adversary.enabled

    def test_rate_zero_config_is_pristine(self):
        from repro.experiments.fig_adversary import adversary_config

        assert adversary_config("private", "all", rate=0.0) == scheme_config("private")

    def test_faults_and_attacks_together_keep_the_contract(self, capsys):
        from repro.experiments.fig_adversary import SMOKE_WORKLOADS, check_combined

        assert check_combined() == 3 * len(SMOKE_WORKLOADS)
        assert "0 accepted undetected" in capsys.readouterr().out
