"""Child processes of the service workload.

Every measured server is started through ``python3 -m perfbench.launch``
with a scrubbed environment, and every one is stopped and reaped by
:class:`Children` even when the run fails.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time
from pathlib import Path

from perfbench import common

#: seconds a child may take to exit after SIGTERM before it is killed
STOP_TIMEOUT_S = 20.0

#: seconds a child may take to start answering
START_TIMEOUT_S = 60.0


class Children:
    """Owns launched processes; stops them all on exit."""

    def __init__(self, workspace: common.Workspace) -> None:
        self.workspace = workspace
        self.procs: list[subprocess.Popen] = []
        self._launched = 0

    def launch(self, *args: str, trace_out: Path | None = None, **env: str) -> subprocess.Popen:
        argv = [sys.executable, "-m", "perfbench.launch", *args]
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out)]
        self._launched += 1
        log = open(self.workspace.path / f"serve-{self._launched}.log", "wb")
        try:
            proc = subprocess.Popen(
                argv,
                cwd=common.ROOT,
                env=common.child_env(**env),
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        finally:
            log.close()
        self.procs.append(proc)
        return proc

    def stop(self, procs: list[subprocess.Popen] | None = None) -> None:
        """SIGTERM, wait, then SIGKILL whatever is left; reap everything."""
        procs = list(self.procs if procs is None else procs)
        for proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for proc in procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for proc in procs:
            if proc in self.procs:
                self.procs.remove(proc)

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def wait_until(ready, what: str, procs: list[subprocess.Popen]) -> None:
    """Poll ``ready()`` until true; fail if a child died or time ran out."""
    deadline = time.monotonic() + START_TIMEOUT_S
    while not ready():
        for proc in procs:
            if proc.poll() is not None:
                raise RuntimeError(f"{what}: child exited with code {proc.returncode}")
        if time.monotonic() > deadline:
            raise RuntimeError(f"{what}: not ready after {START_TIMEOUT_S}s")
        time.sleep(0.01)
