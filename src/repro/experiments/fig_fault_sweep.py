"""Fault-rate sweep: secure recovery vs. unsecure silent corruption.

Sweeps the link fault rate across schemes and surfaces the headline
robustness asymmetry: on an unreliable fabric the unsecure baseline simply
loses or consumes corrupted data (``lost_messages`` /
``corrupted_deliveries`` — nothing in the system can even tell), while the
secure schemes detect every corruption at the MsgMAC, recover every loss by
NACK/timeout-driven retransmission, and pay a measurable price for it
(retransmits, wasted OTPs, backoff cycles) that this experiment reports per
scheme.

The composite "fault rate" r splits into the four injected fault classes as
40 % drops, 40 % corruptions, 10 % wire duplicates, 10 % delay spikes —
drops and corruptions dominate because they are the classes that force
actual recovery work.

Not a paper figure: this is the reproduction's robustness harness (see
``docs/ROBUSTNESS.md``), also run at small scale as a CI smoke check via
:func:`smoke`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.configs import SystemConfig, scheme_config
from repro.experiments.ascii_chart import hbar_chart
from repro.experiments.common import ExperimentRunner, fmt, format_table, ledger_grid
from repro.sim.stats import FaultStats
from repro.workloads import get_workload

#: Composite fault rates swept by default (0.0 = the clean-channel anchor).
RATES = (0.0, 0.02, 0.05)

#: Schemes compared: the undefended baseline and one representative of each
#: secure protocol family (conventional, dynamic allocation, batching).
SCHEMES = ("unsecure", "private", "dynamic", "batching")


def fault_overrides(rate: float, seed: int = 0) -> dict[str, float | int]:
    """Split a composite fault rate into the per-class injector knobs."""
    return {
        "drop_rate": 0.4 * rate,
        "corrupt_rate": 0.4 * rate,
        "duplicate_rate": 0.1 * rate,
        "delay_rate": 0.1 * rate,
        "seed": seed,
    }


def fault_config(scheme: str, rate: float, n_gpus: int = 4) -> SystemConfig:
    """Scheme config at one swept fault rate (rate 0 = the pristine config,
    so its cells hash and simulate identically to a no-fault sweep)."""
    config = scheme_config(scheme, n_gpus=n_gpus)
    if rate > 0:
        config = config.with_fault(**fault_overrides(rate))
    return config


@dataclass
class FaultSweepResult:
    n_gpus: int
    rates: tuple[float, ...]
    schemes: tuple[str, ...]
    #: scheme -> rate -> geomean slowdown vs. the fault-free unsecure run
    slowdowns: dict[str, dict[float, float]] = field(default_factory=dict)
    #: scheme -> rate -> fault/recovery counters merged across workloads
    fault_totals: dict[str, dict[float, FaultStats]] = field(default_factory=dict)

    def undetected(self, scheme: str, rate: float) -> int:
        return self.fault_totals[scheme][rate].undetected


def run(
    runner: ExperimentRunner | None = None,
    rates: tuple[float, ...] = RATES,
    schemes: tuple[str, ...] = SCHEMES,
) -> FaultSweepResult:
    runner = runner or ExperimentRunner()
    slowdowns, totals = ledger_grid(
        runner,
        schemes,
        rates,
        lambda scheme, rate: fault_config(scheme, rate, n_gpus=runner.n_gpus),
        lambda report: report.fault_stats,
        FaultStats,
    )
    return FaultSweepResult(runner.n_gpus, rates, schemes, slowdowns, totals)


def assert_no_undetected(result: FaultSweepResult) -> int:
    """Fail loudly if any secure scheme let a fault through undetected.

    Returns the number of (scheme, rate) cells checked.  This is the
    robustness contract the CI smoke job enforces: a secure scheme must
    never deliver a corrupted block or silently lose a message, and every
    injected corruption must show up as a MsgMAC rejection.
    """
    checked = 0
    for scheme in result.schemes:
        if scheme == "unsecure":
            continue
        for rate in result.rates:
            stats = result.fault_totals[scheme][rate]
            if stats.lost_messages or stats.corrupted_deliveries:
                raise AssertionError(
                    f"{scheme} @ rate {rate}: {stats.lost_messages} lost, "
                    f"{stats.corrupted_deliveries} corrupted blocks reached a device"
                )
            if stats.corruptions_detected != stats.corruptions_injected:
                raise AssertionError(
                    f"{scheme} @ rate {rate}: {stats.corruptions_injected} corruptions "
                    f"injected but only {stats.corruptions_detected} detected"
                )
            checked += 1
    return checked


def format_result(result: FaultSweepResult) -> str:
    rate_cols = [f"r={rate:g}" for rate in result.rates]
    rows = [
        [scheme, *[fmt(result.slowdowns[scheme][rate]) for rate in result.rates]]
        for scheme in result.schemes
    ]
    table = format_table(
        f"Fault sweep: slowdown vs. fault-free unsecure ({result.n_gpus} GPUs)",
        ["scheme", *rate_cols],
        rows,
    )

    worst = max(rate for rate in result.rates)
    recovery_rows = []
    for scheme in result.schemes:
        stats = result.fault_totals[scheme][worst]
        recovery_rows.append(
            [
                scheme,
                str(stats.retransmits),
                str(stats.wasted_otps),
                str(stats.timeouts_fired),
                str(stats.nacks_sent),
                str(stats.undetected),
            ]
        )
    recovery = format_table(
        f"Recovery work and silent damage at r={worst:g}",
        ["scheme", "retransmits", "wasted OTPs", "timeouts", "NACKs", "undetected"],
        recovery_rows,
    )

    chart = hbar_chart(
        f"Slowdown at r={worst:g} (| marks the fault-free baseline)",
        [(scheme, result.slowdowns[scheme][worst]) for scheme in result.schemes],
        baseline=1.0,
    )
    return "\n\n".join([table, recovery, chart])


#: Small high-traffic workload set for the CI smoke run: enough remote
#: data blocks to exercise every fault class without a long wall clock.
SMOKE_WORKLOADS = ("fir", "stencil2d", "matrixtranspose")


def smoke(
    scale: float = 0.05,
    rates: tuple[float, ...] = (0.0, 0.05),
    jobs: int | None = None,
    use_cache: bool | None = None,
) -> FaultSweepResult:
    """CI-scale fault sweep that enforces the zero-undetected contract."""
    runner = ExperimentRunner(
        scale=scale,
        workloads=[get_workload(name) for name in SMOKE_WORKLOADS],
        jobs=jobs,
        use_cache=use_cache,
    )
    result = run(runner, rates=rates)
    checked = assert_no_undetected(result)
    injected = sum(
        result.fault_totals[s][r].drops_injected
        + result.fault_totals[s][r].corruptions_injected
        for s in result.schemes
        for r in result.rates
    )
    if not injected:
        raise AssertionError("fault smoke injected no faults — sweep too small?")
    print(format_result(result))
    print(f"\nsmoke: {checked} secure cells checked, {injected} drops/corruptions injected, 0 undetected")
    return result


__all__ = [
    "RATES",
    "SCHEMES",
    "SMOKE_WORKLOADS",
    "FaultSweepResult",
    "fault_overrides",
    "fault_config",
    "run",
    "assert_no_undetected",
    "format_result",
    "smoke",
]
