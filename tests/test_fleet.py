"""Tests for the TCP front of the control plane: wire auth, cells, failover.

The load-bearing contracts (``docs/SERVICE.md``):

* a sweep served by the coordinator is **byte-identical** (canonical
  JSON) to the same cells run directly through ``SweepRunner`` — through
  real TCP sockets and a worker death mid-sweep (the healthy-path
  identity over every front is ``tests/test_service.py``'s parametrized
  test);
* every frame is **HMAC-authenticated and replay-protected**: a wrong
  key is a structured ``auth_failed``, a replayed or reordered frame
  hangs up the connection, a frame never validates across sessions;
* **leases bound worker silence**: a dead worker's remaining cells are
  reassigned (zero lost, zero duplicated — at-most-once acceptance),
  while a *slow* worker that keeps heartbeating is never reaped;
* failures are **structured and bounded**: a cell that keeps dying
  exhausts its retry budget and fails the sweep with
  ``retries_exhausted``, never a hang.

Coordinator tests drive everything inside ``asyncio.run`` over real
loopback sockets; the blocking ``ServiceClient`` runs in an executor.
"""

from __future__ import annotations

import asyncio
import contextlib

import pytest

from repro.configs import scheme_config
from repro.runner import SweepJob, SweepRunner
from repro.runner.trace_store import job_trace_key, trace_key
from repro.service import protocol as fproto
from repro.service.client import ServiceClient, ServiceUnavailable, parse_addr
from repro.service.protocol import canonical_report_json
from repro.workloads import get_workload
from repro.workloads.synthetic import synthetic_spec

from repro.fleet import FleetCoordinator, FleetWorker
from repro.fleet.coordinator import MAX_CELL_RETRIES
from repro.fleet.wire import (
    DIR_FROM_COORDINATOR,
    DIR_TO_COORDINATOR,
    FleetAuthError,
    FrameCodec,
    FrameError,
    MAX_FRAME_BYTES,
    load_auth_key,
    make_nonce,
)

GPUS = 2
SCALE = 0.05
KEY = b"unit-test-fleet-key"


def _jobs(schemes=("unsecure", "private", "batching"), seeds=(1,)):
    return [
        SweepJob(
            spec=get_workload("fir"),
            config=scheme_config(scheme, n_gpus=GPUS),
            seed=seed,
            scale=SCALE,
        )
        for seed in seeds
        for scheme in schemes
    ]


# ---------------------------------------------------------------------------
# Wire: MAC, counters, sessions
# ---------------------------------------------------------------------------
class TestFrameCodec:
    def _pair(self):
        """Two codecs bound to the same session, a <-> b."""
        a, b = FrameCodec(KEY), FrameCodec(KEY)
        session = make_nonce() + make_nonce()
        a.bind(session, DIR_TO_COORDINATOR, DIR_FROM_COORDINATOR)
        b.bind(session, DIR_FROM_COORDINATOR, DIR_TO_COORDINATOR)
        return a, b

    def test_seal_open_round_trip(self):
        a, b = self._pair()
        body = {"op": "heartbeat", "load": 3}
        assert b.open(a.seal(body)) == body
        assert b.open(a.seal({"op": "x"})) == {"op": "x"}

    def test_replayed_frame_rejected(self):
        a, b = self._pair()
        line = a.seal({"op": "heartbeat"})
        b.open(line)
        with pytest.raises(FleetAuthError, match="replayed or reordered"):
            b.open(line)

    def test_reordered_frame_rejected(self):
        a, b = self._pair()
        first, second = a.seal({"op": "one"}), a.seal({"op": "two"})
        b.open(second)
        with pytest.raises(FleetAuthError, match="replayed or reordered"):
            b.open(first)

    def test_wrong_key_rejected(self):
        a, _ = self._pair()
        intruder = FrameCodec(b"some-other-key-entirely")
        intruder.bind(a.session, DIR_FROM_COORDINATOR, DIR_TO_COORDINATOR)
        with pytest.raises(FleetAuthError, match="MAC verification failed"):
            intruder.open(a.seal({"op": "heartbeat"}))

    def test_tampered_body_rejected(self):
        a, b = self._pair()
        line = a.seal({"op": "result", "cell": 1})
        tampered = line.replace(b'"cell":1', b'"cell":2')
        assert tampered != line
        with pytest.raises(FleetAuthError):
            b.open(tampered)

    def test_cross_session_splice_rejected(self):
        a, _ = self._pair()
        line = a.seal({"op": "heartbeat"})
        _, other = self._pair()  # different session nonces
        with pytest.raises(FleetAuthError):
            other.open(line)

    def test_direction_confusion_rejected(self):
        # A frame a peer sent cannot be reflected back at it.
        a, _ = self._pair()
        line = a.seal({"op": "heartbeat"})
        with pytest.raises(FleetAuthError):
            a.open(line)

    def test_hello_round_trip_and_counter_pinned_to_zero(self):
        connector = FrameCodec(KEY)
        listener = FrameCodec(KEY)
        hello = fproto.hello_body("worker", "w", make_nonce())
        assert listener.open_hello(connector.seal_hello(hello)) == hello
        # A session frame re-presented as a hello fails the counter check.
        a, _ = self._pair()
        with pytest.raises(FleetAuthError, match="counter 0"):
            listener.open_hello(a.seal({"op": "hello"}))

    def test_welcome_binds_session_and_verifies(self):
        my_nonce, their_nonce = make_nonce(), make_nonce()
        listener = FrameCodec(KEY)
        listener.bind(my_nonce + their_nonce, DIR_FROM_COORDINATOR, DIR_TO_COORDINATOR)
        line = listener.seal(fproto.welcome_body(their_nonce))
        connector = FrameCodec(KEY)
        body = connector.open_welcome(line, my_nonce, DIR_TO_COORDINATOR, DIR_FROM_COORDINATOR)
        assert body["op"] == "welcome"
        assert connector.session == my_nonce + their_nonce
        # ...and the session now carries ordinary traffic both ways.
        connector_line = connector.seal({"op": "heartbeat"})
        assert listener.open(connector_line) == {"op": "heartbeat"}

    def test_welcome_under_wrong_key_rejected(self):
        my_nonce, their_nonce = make_nonce(), make_nonce()
        mallory = FrameCodec(b"the-wrong-key-here")
        mallory.bind(my_nonce + their_nonce, DIR_FROM_COORDINATOR, DIR_TO_COORDINATOR)
        line = mallory.seal(fproto.welcome_body(their_nonce))
        connector = FrameCodec(KEY)
        with pytest.raises(FleetAuthError):
            connector.open_welcome(line, my_nonce, DIR_TO_COORDINATOR, DIR_FROM_COORDINATOR)

    def test_rejection_frame_round_trip(self):
        line = FrameCodec.seal_rejection("auth_failed", "bad hello")
        body = FrameCodec.is_rejection(line)
        assert body is not None
        assert body["error"] == {"code": "auth_failed", "message": "bad hello"}
        # Ordinary frames are not mistaken for rejections.
        a, _ = self._pair()
        assert FrameCodec.is_rejection(a.seal({"op": "heartbeat"})) is None
        assert FrameCodec.is_rejection(b"not json at all\n") is None

    def test_garbage_is_frame_error(self):
        _, b = self._pair()
        for line in (b"{}\n", b"[1,2]\n", b'{"b":1,"mac":"x","n":0}\n', b"nope\n"):
            with pytest.raises(FrameError):
                b.open(line)


class TestAuthKey:
    def test_key_file_wins_and_is_stripped(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_KEY", "environment-key")
        key_file = tmp_path / "fleet.key"
        key_file.write_bytes(b"  file-key-bytes\n")
        assert load_auth_key(key_file) == b"file-key-bytes"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_KEY", "environment-key")
        assert load_auth_key() == b"environment-key"

    def test_missing_key_refused(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLEET_KEY", raising=False)
        with pytest.raises(FleetAuthError, match="no fleet auth key"):
            load_auth_key()

    def test_short_key_refused(self, tmp_path):
        key_file = tmp_path / "fleet.key"
        key_file.write_bytes(b"tiny")
        with pytest.raises(FleetAuthError, match="at least"):
            load_auth_key(key_file)

    def test_unreadable_file_refused(self, tmp_path):
        with pytest.raises(FleetAuthError, match="cannot read"):
            load_auth_key(tmp_path / "nope.key")


# ---------------------------------------------------------------------------
# Protocol: cells across the wire
# ---------------------------------------------------------------------------
class TestCellWireForm:
    def test_job_round_trip(self):
        job = _jobs(schemes=("private",), seeds=(7,))[0]
        rebuilt = fproto.job_from_wire(fproto.job_to_wire(job))
        assert rebuilt.spec.name == job.spec.name
        assert rebuilt.config == job.config
        assert (rebuilt.seed, rebuilt.scale, rebuilt.n_lanes) == (7, SCALE, job.n_lanes)

    def test_wire_trace_key_matches_store(self):
        # A wire round-trip keeps the cell in its trace-key unit.
        job = _jobs()[0]
        rebuilt = fproto.job_from_wire(fproto.job_to_wire(job))
        assert job_trace_key(rebuilt) == trace_key(
            job.spec.name, job.config.n_gpus, job.seed, job.scale, job.n_lanes
        )

    def test_non_registry_spec_refused(self):
        job = SweepJob(
            spec=synthetic_spec("bespoke", remote_fraction=0.5),
            config=scheme_config("unsecure", n_gpus=GPUS),
            seed=1,
            scale=SCALE,
        )
        with pytest.raises(fproto.ProtocolError, match="not a registry spec"):
            fproto.job_to_wire(job)

    def test_unknown_workload_is_key_error(self):
        cell = fproto.job_to_wire(_jobs()[0])
        cell["workload"] = "no-such-workload"
        with pytest.raises(KeyError):
            fproto.job_from_wire(cell)

    def test_malformed_cells_refused(self):
        good = fproto.job_to_wire(_jobs()[0])
        for mutate in (
            lambda c: c.pop("config"),
            lambda c: c.update(seed="one"),
            lambda c: c.update(scale=0),
            lambda c: c.update(n_lanes=0),
        ):
            cell = {k: v for k, v in good.items()}
            mutate(cell)
            with pytest.raises(fproto.ProtocolError):
                fproto.job_from_wire(cell)
        with pytest.raises(fproto.ProtocolError):
            fproto.job_from_wire("not a dict")

    def test_parse_addr(self):
        assert parse_addr("10.0.0.7:7341") == ("10.0.0.7", 7341)
        assert parse_addr(":7341") == ("127.0.0.1", 7341)
        for bad in ("nope", "host:", "host:port", ""):
            with pytest.raises(ValueError):
                parse_addr(bad)


# ---------------------------------------------------------------------------
# End-to-end over real sockets
# ---------------------------------------------------------------------------
def _off_loop(call):
    """Run a blocking client call off the event loop thread."""
    return asyncio.get_running_loop().run_in_executor(None, call)


def _sweep(coordinator, jobs, key=KEY):
    """The sweep response of one blocking client, as an awaitable."""

    def call():
        with ServiceClient(("127.0.0.1", coordinator.port), 120.0, key=key) as client:
            return client.sweep(jobs)

    return _off_loop(call)


def _canonical(response) -> list[str]:
    assert response["ok"], response
    return [canonical_report_json(report) for report in response["reports"]]


async def _spawn_workers(coordinator, n, key=KEY, heartbeat_s=0.2) -> list:
    workers = [
        FleetWorker("127.0.0.1", coordinator.port, key, heartbeat_s=heartbeat_s)
        for _ in range(n)
    ]
    return [asyncio.ensure_future(worker.run()) for worker in workers]


async def _stop_all(coordinator, tasks):
    await coordinator.stop()
    for task in tasks:
        task.cancel()
    for task in tasks:
        try:
            await task
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass


class _Zombie:
    """A hand-driven worker connection for failure injection."""

    def __init__(self, port: int, key: bytes = KEY, name: str = "zombie") -> None:
        self.port = port
        self.key = key
        self.name = name
        self.codec = FrameCodec(key)
        self.reader = None
        self.writer = None

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port, limit=MAX_FRAME_BYTES
        )
        nonce = make_nonce()
        self.writer.write(
            self.codec.seal_hello(fproto.hello_body("worker", self.name, nonce))
        )
        await self.writer.drain()
        line = await self.reader.readline()
        assert FrameCodec.is_rejection(line) is None, "zombie was rejected at handshake"
        self.codec.open_welcome(line, nonce, DIR_TO_COORDINATOR, DIR_FROM_COORDINATOR)

    async def recv(self) -> dict:
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("coordinator hung up on the zombie")
        return self.codec.open(line)

    async def recv_assign(self) -> dict:
        while True:
            body = await self.recv()
            if body.get("op") == "assign":
                return body

    async def send(self, body: dict) -> None:
        self.writer.write(self.codec.seal(body))
        await self.writer.drain()

    async def send_raw(self, line: bytes) -> None:
        self.writer.write(line)
        await self.writer.drain()

    async def answer(self, assignment: dict, entry: dict) -> None:
        """Bank a real result for one assigned cell."""
        from repro.runner.serialize import report_to_dict

        report = SweepRunner(jobs=1, cache=None).run_jobs([fproto.job_from_wire(entry["job"])])[0]
        await self.send(
            {"op": "result", "unit": assignment["unit"], "cell": entry["index"],
             "report": report_to_dict(report)}
        )

    def drop(self) -> None:
        self.writer.close()


def _counter(coordinator, name: str) -> float:
    entry = coordinator.telemetry.snapshot().get(name)
    return entry["value"] if entry else 0


class TestFleetEndToEnd:
    def test_dead_worker_cells_reassigned_without_loss(self, tmp_path):
        """A worker that banks one result and dies mid-unit: the remaining
        cells are reassigned, nothing lost or doubled."""
        jobs = _jobs(seeds=(1,))
        direct = SweepRunner(jobs=1, cache=None).run_jobs(jobs)

        async def run():
            coordinator = FleetCoordinator(KEY, lease_timeout_s=0.6, steal_after_s=None)
            await coordinator.start()
            zombie = _Zombie(coordinator.port)
            await zombie.connect()
            sweep_future = _sweep(coordinator, jobs)
            assignment = await zombie.recv_assign()
            assert len(assignment["cells"]) == len(jobs)  # one trace key -> one unit
            await zombie.answer(assignment, assignment["cells"][0])
            await asyncio.sleep(0.1)
            zombie.drop()

            # A healthy worker arrives and inherits the remainder.
            tasks = await _spawn_workers(coordinator, 1)
            try:
                response = await sweep_future
                snapshot = coordinator.telemetry.snapshot()
                status = coordinator.service.status()
            finally:
                await _stop_all(coordinator, tasks)
            return response, snapshot, status

        response, snapshot, status = asyncio.run(run())
        assert _canonical(response) == [canonical_report_json(r) for r in direct]
        assert snapshot["fleet.reassigned"]["value"] == len(jobs) - 1
        assert snapshot["fleet.completed"]["value"] == len(jobs)  # each cell accepted once
        # The healthy worker ran only the cells the zombie never finished.
        assert status["workers"][0]["completed"] == len(jobs) - 1
        assert status["queue_depth"] == 0 and status["inflight_units"] == 0

    def test_straggler_tail_stolen_and_late_copy_discarded(self, tmp_path):
        """An idle worker steals a silent-but-alive straggler's unit; the
        straggler's late result for an already-answered cell is discarded."""
        jobs = _jobs(schemes=("unsecure", "private"))
        direct = SweepRunner(jobs=1, cache=None).run_jobs(jobs)

        async def run():
            coordinator = FleetCoordinator(KEY, lease_timeout_s=10.0, steal_after_s=0.2)
            await coordinator.start()
            straggler = _Zombie(coordinator.port, name="straggler")
            await straggler.connect()
            sweep_future = _sweep(coordinator, jobs)
            assignment = await straggler.recv_assign()
            tasks = await _spawn_workers(coordinator, 1)
            try:
                response = await sweep_future
                await straggler.answer(assignment, assignment["cells"][0])  # too late
                await asyncio.sleep(0.2)
                snapshot = coordinator.telemetry.snapshot()
            finally:
                straggler.drop()
                await _stop_all(coordinator, tasks)
            return response, snapshot

        response, snapshot = asyncio.run(run())
        assert _canonical(response) == [canonical_report_json(r) for r in direct]
        assert snapshot["fleet.stolen"]["value"] == len(jobs)
        assert snapshot["fleet.completed"]["value"] == len(jobs)
        assert snapshot["fleet.duplicates_discarded"]["value"] >= 1

    def test_finished_lease_is_retired_by_its_own_unit_done(self, tmp_path):
        """Another worker's result never retires a lease whose holder has
        answered every cell but not yet said unit_done: no spurious
        release, and the unit is counted when its holder reports."""
        jobs = _jobs(schemes=("unsecure",), seeds=(1, 2))  # two one-cell units

        async def frames(zombie) -> list[str]:
            ops = []
            with contextlib.suppress(asyncio.TimeoutError):
                while True:
                    ops.append((await asyncio.wait_for(zombie.recv(), 0.2))["op"])
            return ops

        async def run():
            coordinator = FleetCoordinator(KEY, lease_timeout_s=10.0, steal_after_s=None)
            await coordinator.start()
            zombies = [_Zombie(coordinator.port, name=name) for name in ("a", "b")]
            for zombie in zombies:
                await zombie.connect()
            sweep_future = _sweep(coordinator, jobs)
            assignments = [await zombie.recv_assign() for zombie in zombies]
            for zombie, assignment in zip(zombies, assignments):
                await zombie.answer(assignment, assignment["cells"][0])
                await asyncio.sleep(0.1)
            for zombie, assignment in zip(zombies, assignments):
                await zombie.send({"op": "unit_done", "unit": assignment["unit"]})
            response = await sweep_future
            received = [await frames(zombie) for zombie in zombies]
            batches = _counter(coordinator, "service.batches")
            for zombie in zombies:
                zombie.drop()
            await coordinator.stop()
            return response, received, batches

        response, received, batches = asyncio.run(run())
        assert response["ok"], response
        assert all("release" not in ops for ops in received), received
        assert batches == len(jobs)

    def test_lease_expires_for_silent_worker_but_not_slow_one(self, tmp_path):
        """Silence past the lease timeout reaps a worker; a slow worker
        that keeps heartbeating (lease renewed) is never reaped."""

        async def run():
            coordinator = FleetCoordinator(KEY, lease_timeout_s=0.5, steal_after_s=None)
            await coordinator.start()
            silent = _Zombie(coordinator.port, name="silent")
            slow = _Zombie(coordinator.port, name="slow")
            await silent.connect()
            await slow.connect()
            assert len(coordinator._workers) == 2

            async def heartbeat_forever():
                while True:
                    await asyncio.sleep(0.1)
                    await slow.send({"op": "heartbeat"})

            beats = asyncio.ensure_future(heartbeat_forever())
            await asyncio.sleep(1.5)  # three lease timeouts of silence
            names = [w.name for w in coordinator._workers.values()]
            expired = _counter(coordinator, "fleet.lease_expired")
            beats.cancel()
            await coordinator.stop()
            return names, expired

        names, expired = asyncio.run(run())
        assert names == ["slow"]
        assert expired >= 0  # the silent zombie held no unit: reaped, no unit expiry

    def test_heartbeats_keep_grinding_worker_alive_past_lease(self, tmp_path):
        """End-to-end slow-vs-dead: cells that take longer than the lease
        timeout still complete, because heartbeats flow mid-cell."""
        jobs = _jobs(schemes=("unsecure",), seeds=(1,))
        direct = SweepRunner(jobs=1, cache=None).run_jobs(jobs)

        async def run():
            # Lease far shorter than a cell's runtime; heartbeat shorter still.
            coordinator = FleetCoordinator(KEY, lease_timeout_s=0.25, steal_after_s=None)
            await coordinator.start()
            tasks = await _spawn_workers(coordinator, 1)
            try:
                response = await _sweep(coordinator, jobs)
                expired = _counter(coordinator, "fleet.lease_expired")
            finally:
                await _stop_all(coordinator, tasks)
            return response, expired

        response, expired = asyncio.run(run())
        assert _canonical(response) == [canonical_report_json(direct[0])]
        assert expired == 0

    def test_replayed_worker_frame_hangs_up_connection(self, tmp_path):
        async def run():
            coordinator = FleetCoordinator(KEY, lease_timeout_s=10.0)
            await coordinator.start()
            zombie = _Zombie(coordinator.port)
            await zombie.connect()
            assert len(coordinator._workers) == 1
            line = zombie.codec.seal({"op": "heartbeat"})
            await zombie.send_raw(line)
            await asyncio.sleep(0.05)
            assert len(coordinator._workers) == 1  # first copy is fine
            await zombie.send_raw(line)  # byte-for-byte replay
            eof = await zombie.reader.readline()
            await coordinator.stop()
            return eof, len(coordinator._workers)

        eof, workers = asyncio.run(run())
        assert eof == b""  # coordinator hung up on the replayer
        assert workers == 0

    def test_wrong_key_peers_rejected_structurally(self, tmp_path):
        async def run():
            coordinator = FleetCoordinator(KEY, lease_timeout_s=10.0)
            await coordinator.start()

            def client_call():
                try:
                    with ServiceClient(("127.0.0.1", coordinator.port), 10.0, key=b"wrong-key-here") as c:
                        c.ping()
                    return None
                except ServiceUnavailable as exc:
                    return exc

            client_exc = await _off_loop(client_call)
            worker = FleetWorker("127.0.0.1", coordinator.port, b"also-wrong-key")
            try:
                await worker.run()
                worker_exc = None
            except FleetAuthError as exc:
                worker_exc = exc
            failures = _counter(coordinator, "fleet.auth_failures")
            await coordinator.stop()
            return client_exc, worker_exc, failures

        client_exc, worker_exc, failures = asyncio.run(run())
        assert client_exc is not None and client_exc.code == "auth_failed"
        assert worker_exc is not None
        assert failures == 2

    def test_sweep_validation_errors_are_structured(self, tmp_path):
        async def run():
            coordinator = FleetCoordinator(KEY, lease_timeout_s=10.0)
            await coordinator.start()

            def call():
                codes = {}
                with ServiceClient(("127.0.0.1", coordinator.port), 30.0, key=KEY) as client:
                    bad_cell = fproto.job_to_wire(_jobs()[0])
                    bad_cell["workload"] = "no-such-workload"
                    good_cell = fproto.job_to_wire(_jobs()[0])
                    for label, body in {
                        "unknown_workload": {"op": "sweep", "cells": [good_cell, bad_cell]},
                        "empty": {"op": "sweep", "cells": []},
                        "priority": {"op": "sweep", "priority": "urgent", "cells": [good_cell]},
                        "malformed": {"op": "sweep", "cells": [{**good_cell, "seed": "one"}]},
                    }.items():
                        response = client.request(body)
                        codes[label] = (response["ok"], response["error"]["code"])
                return codes

            codes = await _off_loop(call)
            admitted = _counter(coordinator, "service.admitted")
            await coordinator.stop()
            return codes, admitted

        codes, admitted = asyncio.run(run())
        assert codes["unknown_workload"] == (False, "unknown_workload")
        assert codes["empty"] == (False, "bad_request")
        assert codes["priority"] == (False, "bad_request")
        assert codes["malformed"] == (False, "bad_request")
        assert admitted == 0  # validation is whole-sweep, before any admission

    def test_retries_exhausted_is_bounded_and_structured(self, tmp_path):
        """A unit whose holders keep dying burns its retry budget and the
        sweep fails with ``retries_exhausted`` — never a hang."""
        jobs = _jobs(schemes=("unsecure",))

        async def run():
            coordinator = FleetCoordinator(KEY, lease_timeout_s=0.4, steal_after_s=None)
            await coordinator.start()
            sweep_future = _sweep(coordinator, jobs)
            for _ in range(MAX_CELL_RETRIES + 1):  # first assignment + every retry
                zombie = _Zombie(coordinator.port)
                await zombie.connect()
                await zombie.recv_assign()
                zombie.drop()
                await asyncio.sleep(0.05)
            response = await sweep_future
            await coordinator.stop()
            return response

        response = asyncio.run(run())
        assert not response["ok"]
        assert response["error"]["code"] == "retries_exhausted"

    def test_stop_answers_outstanding_sweep_with_draining(self, tmp_path):
        """Stopping a coordinator with no workers never leaves a client hanging."""

        async def run():
            coordinator = FleetCoordinator(KEY, lease_timeout_s=10.0)
            await coordinator.start()
            sweep_future = _sweep(coordinator, _jobs(schemes=("unsecure",)))
            while _counter(coordinator, "service.admitted") < 1:
                await asyncio.sleep(0.01)
            await coordinator.stop()
            return await asyncio.wait_for(sweep_future, 30)

        response = asyncio.run(run())
        assert not response["ok"]
        assert response["error"]["code"] == "draining"

    def test_no_coordinator_is_fleet_unavailable(self, tmp_path):
        with pytest.raises(ServiceUnavailable):
            with ServiceClient(("127.0.0.1", 1), 2.0, key=KEY) as client:
                client.ping()


# ---------------------------------------------------------------------------
# SweepRunner integration
# ---------------------------------------------------------------------------
class TestSweepRunnerFleetMode:
    def test_fleet_mode_round_trip_and_stats(self, tmp_path):
        jobs = _jobs()
        direct = SweepRunner(jobs=1, cache=None).run_jobs(jobs)

        async def run():
            coordinator = FleetCoordinator(KEY, lease_timeout_s=10.0)
            await coordinator.start()
            tasks = await _spawn_workers(coordinator, 1)

            def call():
                runner = SweepRunner(
                    jobs=1,
                    cache=None,
                    fleet_addr=f"127.0.0.1:{coordinator.port}",
                    fleet_key=KEY,
                )
                return runner.run_jobs(jobs), runner.stats

            try:
                return await _off_loop(call)
            finally:
                await _stop_all(coordinator, tasks)

        reports, stats = asyncio.run(run())
        assert [canonical_report_json(r) for r in reports] == [
            canonical_report_json(r) for r in direct
        ]
        assert stats.mode == "fleet"
        assert stats.fleet_runs == len(jobs)
        assert stats.fallbacks == 0

    def test_service_forwards_units_to_coordinator(self, tmp_path):
        """``serve --fleet``: the Unix front's dispatcher runs its units on a
        coordinator's workers, and the served report is still the direct one."""
        from repro.service import SimulationService

        job = _jobs(schemes=("private",))[0]
        direct = SweepRunner(jobs=1, cache=None).run_jobs([job])[0]

        async def run():
            coordinator = FleetCoordinator(KEY, lease_timeout_s=10.0)
            await coordinator.start()
            tasks = await _spawn_workers(coordinator, 1)
            service = SimulationService(fleet_addr=f"127.0.0.1:{coordinator.port}", fleet_key=KEY)
            try:
                async with service:
                    report = await service.submit(job).future
                return report, service.runner.stats, _counter(coordinator, "fleet.completed")
            finally:
                await _stop_all(coordinator, tasks)

        report, stats, completed = asyncio.run(run())
        assert canonical_report_json(report) == canonical_report_json(direct)
        assert stats.fleet_runs == 1 and completed == 1

    def test_unreachable_fleet_falls_back_to_local(self):
        jobs = _jobs(schemes=("unsecure",))
        runner = SweepRunner(jobs=1, cache=None, fleet_addr="127.0.0.1:1", fleet_key=KEY)
        reports = runner.run_jobs(jobs)
        direct = SweepRunner(jobs=1, cache=None).run_jobs(jobs)
        assert canonical_report_json(reports[0]) == canonical_report_json(direct[0])
        assert runner.stats.fallbacks == len(jobs)
        assert runner.stats.fleet_runs == 0

    def test_wrong_key_raises_instead_of_falling_back(self, tmp_path):
        async def run():
            coordinator = FleetCoordinator(KEY, lease_timeout_s=10.0)
            await coordinator.start()

            def call():
                runner = SweepRunner(
                    jobs=1, cache=None,
                    fleet_addr=f"127.0.0.1:{coordinator.port}", fleet_key=b"wrong-key-here",
                )
                with pytest.raises(ServiceUnavailable) as excinfo:
                    runner.run_jobs(_jobs(schemes=("unsecure",)))
                return excinfo.value.code

            try:
                return await _off_loop(call)
            finally:
                await coordinator.stop()

        assert asyncio.run(run()) == "auth_failed"
