"""GPU device model tests against a fixed-delay fake transport."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.configs import GpuConfig, MigrationConfig
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.compute_unit import NEVER, ComputeUnitLane, LaneState
from repro.gpu.cpu import HostCpu
from repro.gpu.gpu import GpuDevice
from repro.interconnect.arbiter import RoundRobinArbiter
from repro.interconnect.packet import PacketKind
from repro.memory.address_space import BLOCK_BYTES, PAGE_BYTES
from repro.memory.migration import AccessCounterMigrationPolicy, MigrationCost
from repro.memory.page_table import PageTable
from repro.sim.engine import Simulator
from repro.workloads.base import Access, AccessKind, GpuTrace
from tests.conftest import FakeTransport


def make_gpu(sim, transport, owners, node=1, threshold=100, device=GpuDevice, **gpu_overrides):
    pt = PageTable(owners)
    policy = AccessCounterMigrationPolicy(
        pt, threshold=threshold, cost=MigrationCost(driver_cycles=50, shootdown_cycles=20)
    )
    cfg = GpuConfig(**gpu_overrides) if gpu_overrides else GpuConfig()
    gpu = device(
        node_id=node,
        sim=sim,
        cfg=cfg,
        transport=transport,
        page_table=pt,
        migration_policy=policy,
        migration_cfg=MigrationConfig(driver_cycles=50, shootdown_cycles=20),
    )
    return gpu, pt


def reads(addresses, gap=1):
    return [Access(gap=gap, address=a) for a in addresses]


class TestComputeUnitLane:
    def test_state_progression(self):
        lane = ComputeUnitLane(0, reads([0, 64], gap=5), max_outstanding=1)
        assert lane.state(0) is LaneState.WAITING
        assert lane.state(5) is LaneState.READY
        lane.issue(5, consumes_slot=True)
        assert lane.state(10) is LaneState.BLOCKED
        lane.complete()
        assert lane.state(10) is LaneState.READY
        lane.issue(10, consumes_slot=False)
        assert lane.state(10) is LaneState.DONE
        assert lane.drained

    def test_gap_measured_from_issue(self):
        lane = ComputeUnitLane(0, reads([0, 64], gap=3))
        lane.issue(7, consumes_slot=False)
        assert lane.ready_at == 10

    def test_issue_when_not_ready_raises(self):
        lane = ComputeUnitLane(0, reads([0], gap=10))
        with pytest.raises(RuntimeError):
            lane.issue(0, consumes_slot=False)

    def test_complete_without_outstanding_raises(self):
        lane = ComputeUnitLane(0, [])
        with pytest.raises(RuntimeError):
            lane.complete()

    def test_every_state_change_returns_the_readiness(self):
        lane = ComputeUnitLane(0, reads([0, 64, 128], gap=3), max_outstanding=2)
        assert lane.readiness() == 3
        assert lane.issue(3, consumes_slot=True) == 6 == lane.readiness()
        assert lane.hold() == NEVER == lane.readiness()  # at its cap
        lane.outstanding += 1  # defensively over its cap
        assert lane.complete() == NEVER == lane.readiness()
        assert lane.complete() == 6 == lane.readiness()
        assert lane.issue(6, consumes_slot=False) == 9
        assert lane.issue(9, consumes_slot=False) == NEVER == lane.readiness()  # exhausted

    def test_empty_trace_is_drained(self):
        lane = ComputeUnitLane(0, [])
        assert lane.drained and lane.finished


class TestGpuLocalExecution:
    def test_pure_local_reads_finish(self, sim, fake_transport):
        # GPU 1 owns page 1; all accesses local.
        gpu, _ = make_gpu(sim, fake_transport, {1: 1})
        addrs = [PAGE_BYTES + i * BLOCK_BYTES for i in range(8)]
        gpu.load_trace(GpuTrace(lanes=[reads(addrs)], instructions=1000))
        gpu.start()
        sim.run()
        assert gpu.finish_cycle is not None
        assert gpu.remote_requests == 0
        assert gpu._local_accesses.value == 8
        assert fake_transport.sent == []

    def test_cache_hits_filter_memory_traffic(self, sim, fake_transport):
        gpu, _ = make_gpu(sim, fake_transport, {1: 1})
        addr = PAGE_BYTES
        # serial accesses (gap larger than walk+HBM) so the first fill lands
        # before the next lookup; the remaining nine then hit in L1
        gpu.load_trace(GpuTrace(lanes=[reads([addr] * 10, gap=500)], instructions=100))
        gpu.start()
        sim.run()
        assert gpu._cache_hits.value == 9
        assert gpu.hbm.accesses == 1

    def test_rpki_computation(self, sim, fake_transport):
        gpu, _ = make_gpu(sim, fake_transport, {1: 1})
        gpu.load_trace(GpuTrace(lanes=[reads([PAGE_BYTES])], instructions=2000))
        gpu.start()
        sim.run()
        assert gpu.rpki() == 0.0


class TestGpuRemoteExecution:
    def _run_remote(self, sim, fake_transport, n_blocks=4, **overrides):
        # GPU 1's accesses land on a page owned by the CPU (node 0).
        gpu, pt = make_gpu(sim, fake_transport, {0: 0}, **overrides)
        HostCpu(sim, fake_transport)
        addrs = [i * BLOCK_BYTES for i in range(n_blocks)]
        gpu.load_trace(GpuTrace(lanes=[reads(addrs)], instructions=1000))
        gpu.start()
        sim.run()
        return gpu

    def test_remote_reads_round_trip(self, sim, fake_transport):
        gpu = self._run_remote(sim, fake_transport, n_blocks=4)
        assert gpu.finish_cycle is not None
        kinds = [p.kind for p in fake_transport.sent]
        assert kinds.count(PacketKind.READ_REQ) == 4
        assert kinds.count(PacketKind.DATA_RESP) == 4
        assert gpu.remote_requests == 4
        assert gpu.rpki() == pytest.approx(4.0)

    def test_duplicate_block_requests_merge(self, sim, fake_transport):
        gpu, _ = make_gpu(sim, fake_transport, {0: 0}, lane_outstanding=8)
        HostCpu(sim, fake_transport)
        # two lanes read the same block at the same time: one fetch expected
        lanes = [reads([0], gap=0), reads([0], gap=0)]
        gpu.load_trace(GpuTrace(lanes=lanes, instructions=100))
        gpu.start()
        sim.run()
        reqs = [p for p in fake_transport.sent if p.kind is PacketKind.READ_REQ]
        assert len(reqs) == 1
        assert gpu.directory.merged == 1
        assert gpu.finish_cycle is not None

    def test_remote_write_completes_via_ack(self, sim, fake_transport):
        gpu, _ = make_gpu(sim, fake_transport, {0: 0})
        HostCpu(sim, fake_transport)
        trace = [Access(gap=1, address=0, kind=AccessKind.WRITE)]
        gpu.load_trace(GpuTrace(lanes=[trace], instructions=100))
        gpu.start()
        sim.run()
        kinds = [p.kind for p in fake_transport.sent]
        assert PacketKind.WRITE_REQ in kinds
        assert PacketKind.WRITE_ACK in kinds
        assert gpu.finish_cycle is not None

    def test_second_read_of_same_block_hits_l2(self, sim, fake_transport):
        gpu = self._run_remote(sim, fake_transport, n_blocks=1)
        assert gpu._cache_hits.value == 0
        # re-run same address: already filled into L2+L1 by the response
        assert gpu.l2.contains(0)

    def test_global_window_throttles_issue(self, sim, fake_transport):
        gpu, _ = make_gpu(
            sim, fake_transport, {0: 0}, max_outstanding=2, n_lanes=1, lane_outstanding=64
        )
        HostCpu(sim, fake_transport)
        addrs = [i * BLOCK_BYTES for i in range(8)]
        gpu.load_trace(GpuTrace(lanes=[reads(addrs, gap=0)], instructions=100))
        gpu.start()
        # after the first pump, at most 2 requests may be outstanding
        sim.step()  # initial pump event
        reqs = [p for p in fake_transport.sent if p.kind is PacketKind.READ_REQ]
        assert len(reqs) == 2
        sim.run()
        assert gpu.finish_cycle is not None
        assert gpu.remote_requests == 8


class TestMigration:
    def test_threshold_triggers_page_pull(self, sim, fake_transport):
        gpu, pt = make_gpu(sim, fake_transport, {0: 0}, threshold=3)
        HostCpu(sim, fake_transport)
        # 6 distinct blocks of the same CPU page, reads cross the threshold
        addrs = [i * BLOCK_BYTES for i in range(6)]
        gpu.load_trace(GpuTrace(lanes=[reads(addrs, gap=2)], instructions=100))
        gpu.start()
        sim.run()
        assert pt.owner(0) == 1
        assert pt.migrations == 1
        kinds = [p.kind for p in fake_transport.sent]
        assert kinds.count(PacketKind.MIGRATION_REQ) == 1
        assert kinds.count(PacketKind.MIGRATION_DATA) == 64

    def test_pinned_page_never_migrates(self, sim, fake_transport):
        gpu, pt = make_gpu(sim, fake_transport, {0: 0}, threshold=2)
        gpu.migration_policy.pin(0)
        HostCpu(sim, fake_transport)
        addrs = [i * BLOCK_BYTES for i in range(6)]
        gpu.load_trace(GpuTrace(lanes=[reads(addrs, gap=2)], instructions=100))
        gpu.start()
        sim.run()
        assert pt.owner(0) == 0
        assert pt.migrations == 0

    def test_migration_commit_callback_fires(self, sim, fake_transport):
        commits = []
        gpu, pt = make_gpu(sim, fake_transport, {0: 0}, threshold=1)
        gpu.on_migration_commit = lambda page, old, new: commits.append((page, old, new))
        HostCpu(sim, fake_transport)
        gpu.load_trace(GpuTrace(lanes=[reads([0, 64], gap=2)], instructions=100))
        gpu.start()
        sim.run()
        assert commits == [(0, 0, 1)]

    def test_invalidate_page_clears_state(self, sim, fake_transport):
        gpu, _ = make_gpu(sim, fake_transport, {1: 1})
        gpu.load_trace(GpuTrace(lanes=[reads([PAGE_BYTES])], instructions=10))
        gpu.start()
        sim.run()
        assert gpu.l2.contains(PAGE_BYTES)
        gpu.invalidate_page(1)
        assert not gpu.l2.contains(PAGE_BYTES)


class _ReferencePump(GpuDevice):
    """The issue pump before per-lane readiness was cached, kept verbatim:
    every pump ends with a full lane scan for the next wakeup, and a read
    completion pumps once more after its waiters."""

    def _pump(self) -> None:
        now = self.sim.now
        max_out = self.cfg.max_outstanding
        lanes = self.lanes
        while True:
            winner, next_time = self._grant_lane(now, self.outstanding < max_out)
            if winner is None:
                break
            self._handle_access(lanes[winner], now)
        self._schedule_wakeup(now, next_time)
        if self.finish_cycle is None:
            self._check_finished(now)

    def _grant_lane(self, now: int, window_open: bool) -> tuple[int | None, int | None]:
        lanes = self.lanes
        n = len(lanes)
        start = self._rr_next
        next_time = None
        for offset in range(n):
            idx = start + offset
            if idx >= n:
                idx -= n
            l = lanes[idx]
            if l.index < l.n and l.outstanding < l.max_outstanding:
                ready_at = l.ready_at
                if now < ready_at:
                    if next_time is None or ready_at < next_time:
                        next_time = ready_at
                elif window_open:
                    self._rr_next = idx + 1 if idx + 1 < n else 0
                    return idx, next_time
        return None, next_time

    def _schedule_wakeup(self, now: int, next_time: int | None) -> None:
        if next_time is None:
            return
        super()._schedule_wakeup(now, next_time)

    def _complete_read(self, packet, now: int) -> None:
        super()._complete_read(packet, now)
        self._pump()


# (n, index, max_outstanding, outstanding, ready_at): exhausted or not,
# at, under or (defensively) over its cap, gap elapsed or still running
_lane_states = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(1, 3), st.integers(0, 4), st.integers(0, 20)
)
#: one access: (gap, page, block within the page, is_write); page 0 is the
#: CPU's (remote), page 1 the device's own (local)
_accesses = st.tuples(st.integers(0, 4), st.integers(0, 1), st.integers(0, 3), st.booleans())


def _readiness_is_cached(gpu) -> bool:
    return gpu._ready == [lane.readiness() for lane in gpu.lanes]


class TestIssuePump:
    @staticmethod
    def _device(states, pointer, streams=None, device=GpuDevice, **gpu_overrides):
        """A device whose lanes start mid-stream in the given states.

        ``streams`` gives each lane's accesses; by default every access is
        a read of block 0 one cycle after the previous issue.
        """
        sim = Simulator()
        transport = FakeTransport(sim)
        gpu, _ = make_gpu(sim, transport, {0: 0, 1: 1}, device=device, **gpu_overrides)
        HostCpu(sim, transport)
        for lane_id, (n, index, cap, outstanding, ready_at) in enumerate(states):
            stream = streams[lane_id][:n] if streams else [(1, 0, 0, False)] * n
            n = len(stream)
            lane = ComputeUnitLane(
                lane_id,
                [
                    Access(
                        gap=gap,
                        address=page * PAGE_BYTES + block * BLOCK_BYTES,
                        kind=AccessKind.WRITE if write else AccessKind.READ,
                    )
                    for gap, page, block, write in stream
                ],
                max_outstanding=cap,
            )
            lane.index = min(index, n)
            lane.outstanding, lane.ready_at = outstanding, ready_at
            gpu.lanes.append(lane)
            gpu.l1s.append(SetAssociativeCache(f"l1.{lane_id}", 16 * 1024, 4))
        gpu._ready = [lane.readiness() for lane in gpu.lanes]
        gpu._rr_next = pointer % len(states)
        return gpu

    @staticmethod
    def _record_issues(gpu, then=None):
        """Wrap the device's access handler to log the lanes it issues."""
        issued = []
        handle = gpu._handle_access

        def recording(lane, now):
            issued.append(lane.lane_id)
            handle(lane, now)
            if then is not None:
                then()

        gpu._handle_access = recording
        return issued

    @staticmethod
    def _reference(lanes, pointer, now, window_open):
        """One round-robin grant as a RoundRobinArbiter makes it over the
        ready lanes, plus the wakeup a separate scan of every lane finds."""
        arbiter = RoundRobinArbiter(range(len(lanes)))
        arbiter._next = pointer
        ready = [
            l.lane_id
            for l in lanes
            if l.index < l.n and l.outstanding < l.max_outstanding and now >= l.ready_at
        ]
        winner = arbiter.grant(ready) if window_open and ready else None
        waiting = [
            l.ready_at
            for l in lanes
            if l.index < l.n and l.outstanding < l.max_outstanding and now < l.ready_at
        ]
        return winner, arbiter._next, min(waiting, default=None)

    @settings(max_examples=300, deadline=None)
    @given(
        states=st.lists(_lane_states, min_size=1, max_size=12),
        pointer=st.integers(0, 11),
        now=st.integers(0, 20),
        window_open=st.booleans(),
    )
    def test_single_scan_matches_arbiter_and_wakeup_scan(self, states, pointer, now, window_open):
        gpu = self._device(states, pointer)
        pointer = gpu._rr_next
        winner, next_pointer, next_time = self._reference(gpu.lanes, pointer, now, window_open)
        full = gpu.cfg.max_outstanding
        gpu.outstanding = 0 if window_open else full

        def close_window():  # stop the pump after its first grant
            gpu.outstanding = full

        issued = self._record_issues(gpu, then=close_window)
        gpu.sim.now = now
        gpu._pump()
        assert issued == ([] if winner is None else [winner])
        assert gpu._rr_next == next_pointer
        if winner is None:
            assert (gpu._wakeup.time if gpu._wakeup else None) == next_time

    @settings(max_examples=300, deadline=None)
    @given(
        states=st.lists(_lane_states, min_size=1, max_size=8),
        streams=st.lists(st.lists(_accesses, min_size=3, max_size=3), min_size=8, max_size=8),
        pointer=st.integers(0, 7),
        now=st.integers(0, 20),
        max_outstanding=st.integers(1, 6),
        window_used=st.integers(0, 6),
        armed=st.one_of(st.none(), st.integers(1, 30)),
    )
    def test_pump_matches_reference_pump(
        self, states, streams, pointer, now, max_outstanding, window_used, armed
    ):
        """Exhausted, capped and over-cap lanes, any pointer, a window that
        may close mid-pump, an already armed timer: the same lanes issue in
        the same order, and the same wakeup is left armed."""
        devices = []
        for device in (GpuDevice, _ReferencePump):
            gpu = self._device(states, pointer, streams, device, max_outstanding=max_outstanding)
            gpu.outstanding = min(window_used, max_outstanding)
            gpu.sim.now = now
            if armed is not None:
                gpu._wakeup = gpu.sim.schedule(armed, gpu._pump)
            devices.append(gpu)
        gpu, reference = devices

        def check_cache():
            assert _readiness_is_cached(gpu)

        issued = self._record_issues(gpu, then=check_cache)
        expected = self._record_issues(reference)
        gpu._pump()
        reference._pump()
        assert issued == expected
        assert gpu._rr_next == reference._rr_next
        assert gpu.outstanding == reference.outstanding
        assert _readiness_is_cached(gpu)
        wakeups = [g._wakeup and (g._wakeup.time, g._wakeup.cancelled) for g in devices]
        assert wakeups[0] == wakeups[1]
        assert gpu.sim.queue.pushes == reference.sim.queue.pushes
        assert gpu.finish_cycle == reference.finish_cycle

    @settings(max_examples=100, deadline=None)
    @given(
        streams=st.lists(st.lists(_accesses, min_size=1, max_size=10), min_size=1, max_size=4),
        max_outstanding=st.integers(1, 6),
        cap=st.integers(1, 3),
    )
    def test_whole_run_matches_reference_pump(self, streams, max_outstanding, cap):
        """Event by event, a full run issues, wakes and finishes exactly as
        the reference pump does, with the readiness cache exact throughout."""
        runs = []
        for device in (GpuDevice, _ReferencePump):
            states = [(len(s), 0, cap, 0, s[0][0]) for s in streams]
            gpu = self._device(states, 0, streams, device, max_outstanding=max_outstanding)
            issued = self._record_issues(gpu)
            gpu.start()
            while gpu.sim.step():
                if device is GpuDevice:
                    assert _readiness_is_cached(gpu)
            sim = gpu.sim
            runs.append(
                (
                    issued,
                    gpu.finish_cycle,
                    sim.events_processed,
                    sim.queue.pushes,
                    sim.queue.cancelled_dropped,
                )
            )
        assert runs[0] == runs[1]
        assert runs[0][1] is not None

    def test_no_waiting_lane_arms_no_wakeup(self):
        # one exhausted lane, one at its cap: nothing ready, nothing waiting
        gpu = self._device([(0, 0, 1, 0, 5), (2, 0, 1, 1, 5)], 0)
        assert gpu._ready == [NEVER, NEVER]
        gpu._pump()
        assert gpu._wakeup is None

    def test_pump_arms_wakeup_for_earliest_waiting_lane(self):
        gpu = self._device([(2, 0, 1, 0, 9), (2, 0, 1, 0, 4), (2, 0, 1, 1, 1)], 2)
        gpu._pump()
        assert gpu._wakeup.time == 4 and gpu._rr_next == 2
