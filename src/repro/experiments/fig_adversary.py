"""Active-adversary sweep: attack mixes vs. schemes, zero-undetected contract.

Puts an adversary *in the fabric* (:mod:`repro.secure.adversary`) and sweeps
attack mixes across schemes.  The headline asymmetry mirrors the fault
sweep, but against a malicious rather than a merely unreliable link: the
unsecure baseline consumes tampered, replayed, spliced, and forged blocks
without ever noticing (``accepted`` counts them), while every secure scheme
must end the run with **zero** accepted-undetected attacks — each injected
manipulation either dies at the MsgMAC / counter check (``detected``) or
provably changed nothing (``harmless``, e.g. a reorder the counter protocol
absorbs).  A per-transport :class:`~repro.secure.invariants.InvariantMonitor`
sanitizer independently audits every run, so a contract breach fails twice.

The composite "attack rate" r splits into the seven attack classes as 25 %
ciphertext flips, 10 % MAC flips, 20 % replays, 15 % reorders, 10 %
truncations, 10 % cross-link splices, and 10 % forgeries per the "all" mix;
the focused mixes concentrate the same budget on one attack family.

Not a paper figure: this is the reproduction's adversarial-robustness
harness (see ``docs/ROBUSTNESS.md``), run at small scale as a CI smoke
check via :func:`smoke`, which additionally exercises detection-driven
link quarantine and reroute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.configs import SystemConfig, scheme_config
from repro.experiments.ascii_chart import hbar_chart
from repro.experiments.common import ExperimentRunner, fmt, format_table, ledger_grid
from repro.secure.adversary import AttackReport
from repro.system import MultiGpuSystem
from repro.workloads import get_workload

#: Composite attack rate: probability any one data-block wire copy is hit.
RATE = 0.04

#: Named attack mixes: fractions of the composite rate per attack class.
MIXES: dict[str, dict[str, float]] = {
    # everything at once, weighted toward the cheap high-volume attacks
    "all": {
        "flip_cipher_rate": 0.25,
        "flip_mac_rate": 0.10,
        "replay_rate": 0.20,
        "reorder_rate": 0.15,
        "truncate_rate": 0.10,
        "splice_rate": 0.10,
        "forge_rate": 0.10,
    },
    # integrity attacks only: bit flips and truncation die at the MsgMAC
    "tamper": {
        "flip_cipher_rate": 0.5,
        "flip_mac_rate": 0.25,
        "truncate_rate": 0.25,
    },
    # freshness attacks only: replays and window-boundary reorders
    "replay": {
        "replay_rate": 0.6,
        "reorder_rate": 0.4,
    },
    # injection attacks only: cross-link splices and from-scratch forgeries
    "inject": {
        "splice_rate": 0.5,
        "forge_rate": 0.5,
    },
}

#: Schemes compared: the undefended baseline and one representative of each
#: secure protocol family (conventional, dynamic allocation, batching).
SCHEMES = ("unsecure", "private", "dynamic", "batching")


def adversary_overrides(
    mix: str, rate: float = RATE, seed: int = 0, quarantine_threshold: int = 0
) -> dict[str, float | int]:
    """Split a composite attack rate into the per-class injector knobs."""
    out: dict[str, float | int] = {
        knob: fraction * rate for knob, fraction in MIXES[mix].items()
    }
    out["seed"] = seed
    out["quarantine_threshold"] = quarantine_threshold
    return out


def adversary_config(
    scheme: str,
    mix: str,
    rate: float = RATE,
    n_gpus: int = 4,
    quarantine_threshold: int = 0,
) -> SystemConfig:
    """Scheme config under one attack mix (rate 0 = the pristine config,
    so its cells hash and simulate identically to an adversary-free sweep)."""
    config = scheme_config(scheme, n_gpus=n_gpus)
    if rate > 0:
        config = config.with_adversary(
            **adversary_overrides(mix, rate, quarantine_threshold=quarantine_threshold)
        )
    return config


@dataclass
class AdversaryResult:
    n_gpus: int
    rate: float
    mixes: tuple[str, ...]
    schemes: tuple[str, ...]
    #: scheme -> mix -> geomean slowdown vs. the attack-free unsecure run
    slowdowns: dict[str, dict[str, float]] = field(default_factory=dict)
    #: scheme -> mix -> attack ledgers merged across workloads
    attack_totals: dict[str, dict[str, AttackReport]] = field(default_factory=dict)


def run(
    runner: ExperimentRunner | None = None,
    rate: float = RATE,
    mixes: tuple[str, ...] = tuple(MIXES),
    schemes: tuple[str, ...] = SCHEMES,
) -> AdversaryResult:
    runner = runner or ExperimentRunner()
    slowdowns, totals = ledger_grid(
        runner,
        schemes,
        mixes,
        lambda scheme, mix: adversary_config(scheme, mix, rate, n_gpus=runner.n_gpus),
        lambda report: report.attack_report,
        AttackReport,
    )
    return AdversaryResult(runner.n_gpus, rate, mixes, schemes, slowdowns, totals)


def assert_zero_undetected(result: AdversaryResult) -> int:
    """Fail loudly unless every secure scheme detected every effective attack.

    Returns the number of (scheme, mix) cells checked.  This is the
    contract the CI smoke job enforces: under every attack mix a secure
    scheme ends with ``accepted_undetected == 0`` and a fully resolved
    ledger, while the unsecure baseline *must* have accepted attacks —
    proving the injector genuinely lands its manipulations.
    """
    checked = 0
    for scheme in result.schemes:
        for mix in result.mixes:
            ledger = result.attack_totals[scheme][mix]
            if ledger.total_injected == 0:
                raise AssertionError(
                    f"{scheme} @ mix {mix!r}: no attacks injected — sweep too small?"
                )
            if ledger.unresolved:
                raise AssertionError(
                    f"{scheme} @ mix {mix!r}: {ledger.unresolved} injected "
                    "attack(s) never resolved"
                )
            if scheme == "unsecure":
                continue
            if ledger.accepted_undetected:
                raise AssertionError(
                    f"{scheme} @ mix {mix!r}: {ledger.accepted_undetected} "
                    "attack(s) accepted undetected"
                )
            checked += 1
    unsecure = result.attack_totals.get("unsecure")
    if unsecure is not None:
        landed = sum(ledger.accepted_undetected for ledger in unsecure.values())
        if not landed:
            raise AssertionError(
                "unsecure baseline accepted no attacks — injector ineffective?"
            )
    return checked


def check_quarantine(
    scale: float = 0.05,
    threshold: int = 3,
    jobs: int | None = None,
    use_cache: bool | None = None,
) -> AttackReport:
    """Drive repeated tamper detections into link quarantine and reroute.

    Runs one tamper-heavy cell with a finite quarantine threshold and
    asserts that at least one directed link was quarantined, that the run
    still completed (traffic rerouted over the memoized alternate path),
    and that the zero-undetected contract survived the failover.
    """
    runner = ExperimentRunner(
        scale=scale,
        workloads=[get_workload("fir")],
        jobs=jobs,
        use_cache=use_cache,
    )
    spec = runner.workloads[0]
    config = adversary_config(
        "private", "tamper", rate=2 * RATE, n_gpus=runner.n_gpus,
        quarantine_threshold=threshold,
    )
    report = runner.run(spec, config)
    ledger = report.attack_report
    if ledger is None or not ledger.quarantined:
        raise AssertionError(
            f"quarantine threshold {threshold} triggered no link quarantine"
        )
    if ledger.accepted_undetected or ledger.unresolved:
        raise AssertionError(
            f"quarantine failover broke the contract: {ledger.as_dict()}"
        )
    return ledger


def check_combined(scale: float = 0.05, rate: float = 2 * RATE) -> int:
    """Link faults and attacks on the same wire copies, on every secure scheme.

    Duplicate and delay faults leave each copy intact for the ``all``
    attack mix to touch as well, so the two halves of one wire event
    compose on a single copy.  Every cell must keep the zero-undetected
    contract, a fully resolved ledger, the runtime invariants (checked
    again here, after the run's own pass) and MAC-caught corruptions.
    Returns the number of cells checked.
    """
    checked = 0
    for name in SMOKE_WORKLOADS:
        trace = get_workload(name).generate(n_gpus=4, seed=1, scale=scale)
        for scheme in ("private", "dynamic", "batching"):
            config = adversary_config(scheme, "all", rate).with_fault(
                duplicate_rate=rate, delay_rate=rate, seed=1
            )
            system = MultiGpuSystem(config)
            report = system.run(trace)
            system.transport.run_invariant_checks()
            ledger, stats = report.attack_report, report.fault_stats
            fired = ledger.total_injected and stats.duplicates_injected and stats.delays_injected
            caught = stats.corruptions_detected == stats.corruptions_injected
            if ledger.accepted_undetected or ledger.unresolved or not (fired and caught):
                raise AssertionError(f"{name}/{scheme}: {ledger.as_dict()} {stats.as_dict()}")
            checked += 1
    print(f"combined: {checked} secure cells with faults and attacks, 0 accepted undetected")
    return checked


def format_result(result: AdversaryResult) -> str:
    mix_cols = list(result.mixes)
    rows = [
        [scheme, *[fmt(result.slowdowns[scheme][mix]) for mix in result.mixes]]
        for scheme in result.schemes
    ]
    table = format_table(
        f"Adversary sweep: slowdown vs. attack-free unsecure "
        f"(r={result.rate:g}, {result.n_gpus} GPUs)",
        ["scheme", *mix_cols],
        rows,
    )

    ledger_rows = []
    for scheme in result.schemes:
        totals = AttackReport()
        for mix in result.mixes:
            totals.merge(result.attack_totals[scheme][mix])
        ledger_rows.append(
            [
                scheme,
                str(totals.total_injected),
                str(totals.total_detected),
                str(totals.total_harmless),
                str(totals.accepted_undetected),
            ]
        )
    ledger = format_table(
        "Attack ledger merged across mixes",
        ["scheme", "injected", "detected", "harmless", "accepted"],
        ledger_rows,
    )

    chart = hbar_chart(
        "Slowdown under the 'all' mix (| marks the attack-free baseline)",
        [(scheme, result.slowdowns[scheme]["all"]) for scheme in result.schemes],
        baseline=1.0,
    )
    return "\n\n".join([table, ledger, chart])


#: Small high-traffic workload set for the CI smoke run: enough remote
#: data blocks to exercise every attack class without a long wall clock.
SMOKE_WORKLOADS = ("fir", "stencil2d", "matrixtranspose")


def smoke(
    scale: float = 0.05,
    mixes: tuple[str, ...] = tuple(MIXES),
    jobs: int | None = None,
    use_cache: bool | None = None,
) -> AdversaryResult:
    """CI-scale adversary sweep enforcing the zero-undetected contract."""
    runner = ExperimentRunner(
        scale=scale,
        workloads=[get_workload(name) for name in SMOKE_WORKLOADS],
        jobs=jobs,
        use_cache=use_cache,
    )
    result = run(runner, mixes=mixes)
    checked = assert_zero_undetected(result)
    quarantined = check_quarantine(scale=scale, jobs=jobs, use_cache=use_cache)
    injected = sum(
        result.attack_totals[s][m].total_injected
        for s in result.schemes
        for m in result.mixes
    )
    print(format_result(result))
    print(
        f"\nsmoke: {checked} secure cells checked, {injected} attacks injected, "
        f"0 accepted undetected; quarantine rerouted "
        f"{len(quarantined.quarantined)} link(s)"
    )
    return result


__all__ = [
    "RATE",
    "MIXES",
    "SCHEMES",
    "SMOKE_WORKLOADS",
    "AdversaryResult",
    "adversary_overrides",
    "adversary_config",
    "run",
    "assert_zero_undetected",
    "check_quarantine",
    "check_combined",
    "format_result",
    "smoke",
]
