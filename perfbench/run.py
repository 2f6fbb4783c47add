"""The repository's benchmark: one command per workload run.

    python3 perfbench/run.py --workload secure_stream --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  ``BENCHMARK.json`` names the
workloads, why each exists, and the metrics.  With ``--trace 0`` the
last line of standard output is a JSON object whose ``metrics`` hold
every end-to-end metric; with ``--trace 1`` they hold every per-layer
metric, measured by wrappers around each layer's public functions (see
``perfbench/tracer.py``) and written in full to ``.perfbench/traces/``.
The line before it carries the run's ``report_digest`` (SHA-256 over
each cell's canonical report JSON, in cell order), the calibration
score, the measured workload shares, the tail percentile used, and the
unscaled host times.

End-to-end times are in reference seconds: each measured host interval
is scaled by the speed of the seed engine loop probed just before it,
relative to ``common.REFERENCE_EVENTS_PER_S`` (see ``common.Calibrator``).
A shared host drifts by a third or more in speed over seconds to minutes,
and the scaling keeps runs made at different moments comparable.

Exits 0 only when the run completed; outputs that fail a check are
counted in ``failed`` and make ``correct`` false.
"""

from __future__ import annotations

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from fnmatch import fnmatch  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _parse(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metrics_block(
    values: dict[str, float], declared: list[dict], absent: dict[str, str]
) -> tuple[dict, dict]:
    """Every declared metric with its unit.  A metric matching one of the
    workload's ``absent`` patterns is reported as 0 with the reason."""
    block, reasons = {}, {}
    for metric in declared:
        name = metric["name"]
        reason = next((why for pattern, why in absent.items() if fnmatch(name, pattern)), None)
        if reason is not None:
            reasons[name] = reason
            value = 0.0
        else:
            value = values[name]
        block[name] = {"value": float(value), "unit": metric["unit"]}
    return block, reasons


def main(argv: list[str] | None = None) -> int:
    spec = _load_spec()
    args = _parse(argv, spec)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import common

    common.scrub_env()
    if args.workload in ("secure_stream", "migrate_local"):
        from perfbench import sweeps

        outcome = sweeps.run(
            args.workload, args.seed, args.seconds, bool(args.trace), PROCESS_START
        )
    else:
        from perfbench import serve

        outcome = serve.run(args.seed, args.seconds, bool(args.trace))

    info = dict(outcome.info)
    snapshot = info.pop("snapshot", None)
    if snapshot is not None:
        out_dir = common.WORK_DIR / "traces"
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(snapshot))
        info["trace_file"] = str(path)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, absent = _metrics_block(outcome.metrics, declared, info.pop("absent", {}))
    if absent:
        info["absent"] = absent
    info.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        failed_frac=outcome.failed / outcome.attempted,
    )
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
