"""CI entry: end-to-end smoke of both control-plane fronts as real processes.

``serve`` — starts ``repro-sim serve``, submits a tiny matrix from two
*concurrent* clients, requires every served report to be byte-identical
(canonical JSON) to a direct :class:`~repro.runner.sweep.SweepRunner`
run and ``service.served`` to account for all of them, then SIGTERMs the
server and requires a clean drained exit with the socket removed.

``fleet coordinator`` — starts a coordinator and two ``serve-worker``
processes, checks that a wrong-key client is refused with
``auth_failed``, submits a sweep, SIGKILLs one worker while the sweep is
in flight, and requires zero lost and zero duplicated cells (every cell
accepted exactly once, the merge byte-identical to a direct run) with
``fleet.reassigned >= 1``; then SIGTERM must stop the coordinator and the
surviving worker cleanly (exit 0).

Run by the ``control-plane-smoke`` CI job under a wall-clock guard::

    PYTHONPATH=src timeout 900 python -c \\
        "from repro.service.smoke import smoke; smoke()"

Raises :class:`AssertionError` (or times out) on any contract breach.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable

from repro.configs import scheme_config
from repro.runner import SweepJob, SweepRunner
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.protocol import canonical_report_json
from repro.workloads import get_workload

SCHEMES = ("unsecure", "private", "batching")

#: The fleet sweep: three schemes x eight seeds -> 24 cells in eight
#: trace-key units, enough in-flight work that killing a worker once
#: results start landing reliably strands a half-finished unit.
FLEET_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)

SMOKE_KEY = b"fleet-smoke-shared-secret"


def _jobs(gpus: int, scale: float, seeds=(1,)) -> list[SweepJob]:
    return [
        SweepJob(
            spec=get_workload("fir"),
            config=scheme_config(scheme, n_gpus=gpus),
            seed=seed,
            scale=scale,
        )
        for scheme in SCHEMES
        for seed in seeds
    ]


def _direct(jobs: list[SweepJob]) -> list[str]:
    return [canonical_report_json(r) for r in SweepRunner(jobs=1, cache=None).run_jobs(jobs)]


def _wait_for(ready: Callable[[], bool], what: str, deadline_s: float = 30.0) -> None:
    started = time.monotonic()
    while time.monotonic() - started < deadline_s:
        try:
            if ready():
                return
        except ServiceUnavailable:
            pass
        time.sleep(0.1)
    raise AssertionError(f"{what} never happened")


def _ping(connect: Callable[[], ServiceClient]) -> bool:
    with connect() as client:
        return bool(client.ping().get("ok"))


class _Children:
    """``repro-sim`` child processes, killed on the way out if still alive."""

    def __init__(self, env: dict[str, str]) -> None:
        self.env = env
        self.procs: list[subprocess.Popen] = []

    def spawn(self, *argv: str) -> subprocess.Popen:
        child = subprocess.Popen([sys.executable, "-m", "repro", *argv], env=self.env)
        self.procs.append(child)
        return child

    def __enter__(self) -> "_Children":
        return self

    def __exit__(self, *exc_info) -> None:
        for child in self.procs:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=10)


def smoke_serve(workdir: Path, env: dict[str, str], gpus: int = 2, scale: float = 0.1) -> None:
    socket_path = workdir / "smoke.sock"
    jobs = _jobs(gpus, scale)

    def session(name: str) -> list[str]:
        with ServiceClient(socket_path, timeout=300.0) as client:
            rendered = []
            for scheme in SCHEMES:
                response = client.submit("fir", scheme=scheme, gpus=gpus, scale=scale, client=name)
                assert response.get("ok") and response["state"] == "done", response
                rendered.append(canonical_report_json(response["report"]))
            assert client.status().get("ok")
            return rendered

    with _Children(env) as children:
        server = children.spawn("serve", "--socket", str(socket_path), "--no-cache")
        _wait_for(lambda: _ping(lambda: ServiceClient(socket_path, 5.0)), "serve start-up")
        with ThreadPoolExecutor(max_workers=2) as pool:
            served = list(pool.map(session, ("client-a", "client-b"), timeout=300))
        with ServiceClient(socket_path, timeout=30.0) as client:
            count = client.metrics()["metrics"]["service.served"]["value"]
        assert count == 2 * len(jobs), f"expected {2 * len(jobs)} served, got {count}"
        expected = _direct(jobs)
        assert served == [expected, expected], "served reports differ from the direct runner"
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=60) == 0, "serve did not drain cleanly"
        assert not socket_path.exists(), "serve left its socket behind"
    print(f"serve smoke OK: {2 * len(jobs)} cells served byte-identical, clean drain")


def smoke_fleet(workdir: Path, env: dict[str, str], gpus: int = 2, scale: float = 0.5) -> None:
    key_file = workdir / "fleet.key"
    key_file.write_bytes(SMOKE_KEY)
    port_file = workdir / "port"
    jobs = _jobs(gpus, scale, FLEET_SEEDS)
    with _Children(env) as children:
        coordinator = children.spawn(
            "fleet", "coordinator", "--host", "127.0.0.1", "--port", "0",
            "--auth-key-file", str(key_file), "--port-file", str(port_file),
            "--lease-timeout", "3", "--steal-after", "2",
        )
        _wait_for(lambda: port_file.exists() and port_file.read_text().strip(), "port file")
        addr = f"127.0.0.1:{port_file.read_text().strip()}"
        workers = [
            children.spawn(
                "fleet", "serve-worker", "--addr", addr, "--auth-key-file", str(key_file),
                "--name", f"smoke-worker-{i}", "--heartbeat", "0.5",
            )
            for i in range(2)
        ]
        try:
            _ping(lambda: ServiceClient(addr, 10.0, key=b"not-the-fleet-key"))
            raise AssertionError("a client with the wrong key was accepted")
        except ServiceUnavailable as exc:
            assert exc.code == "auth_failed", f"expected auth_failed, got {exc.code}"

        def connect(name: str) -> ServiceClient:
            return ServiceClient(addr, 300.0, key=SMOKE_KEY, name=name)

        with connect("smoke-client") as client:
            _wait_for(lambda: len(client.status()["workers"]) == 2, "worker registration")

            # The blocking sweep call can't pull the trigger, so a thread
            # watches the metrics over its own connection and SIGKILLs a
            # worker as soon as results start landing: it is mid-unit then.
            killed, done = threading.Event(), threading.Event()

            def assassinate() -> None:
                with connect("smoke-assassin") as spy:
                    while not done.is_set():
                        metrics = spy.metrics()["metrics"]
                        if metrics.get("fleet.completed", {}).get("value", 0) >= 1:
                            workers[0].kill()
                            killed.set()
                            return
                        time.sleep(0.05)

            assassin = threading.Thread(target=assassinate, daemon=True)
            assassin.start()
            try:
                response = client.sweep(jobs)
            finally:
                done.set()
            assassin.join(timeout=10)
            status = client.status()
            metrics = client.metrics()["metrics"]

        assert response.get("ok"), f"fleet sweep failed: {response}"
        assert killed.is_set(), "sweep finished before the assassin saw any results"
        assert workers[0].wait(timeout=10) != 0, "SIGKILLed worker exited 0?"
        assert len(status["workers"]) == 1, f"expected 1 surviving worker: {status['workers']}"
        reassigned = metrics.get("fleet.reassigned", {}).get("value", 0)
        assert reassigned >= 1, f"expected reassignment after the kill: {metrics}"
        accepted = metrics["fleet.completed"]["value"]
        assert accepted == len(jobs), f"{accepted} cells accepted for {len(jobs)}: lost or doubled"
        served = [canonical_report_json(report) for report in response["reports"]]
        assert served == _direct(jobs), "fleet reports differ from the direct runner"

        coordinator.send_signal(signal.SIGTERM)
        assert coordinator.wait(timeout=30) == 0, "coordinator did not exit cleanly"
        assert workers[1].wait(timeout=30) == 0, "surviving worker did not exit cleanly"
    print(f"fleet smoke OK: {len(jobs)} cells byte-identical through a worker SIGKILL, clean shutdown")


def smoke() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-smoke-"))
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    env["REPRO_TRACE_DIR"] = str(workdir / "traces")
    smoke_serve(workdir, env)
    smoke_fleet(workdir, env)


if __name__ == "__main__":
    smoke()
