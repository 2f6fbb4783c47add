"""Transports: the unsecured fabric and the secure channel layer.

``UnsecureTransport`` moves packets straight over the topology — the
baseline every figure normalizes against.  ``SecureTransport`` applies the
full protection pipeline of Fig. 5 around the same topology:

sender:   acquire send pads (scheme) → XOR encrypt + GHASH MAC → attach
          metadata bytes (conventional or batched) → serialize on the link
receiver: acquire receive pads (scheme, honouring counter sync) → XOR
          decrypt (+ blocking MAC verify unless lazily batched) → deliver
          → emit replay-protection ACK (per message, or per batch)

When the configuration enables link faults
(:class:`~repro.configs.FaultConfig`) or an active adversary
(:class:`~repro.configs.AdversaryConfig`), both transports hold one
:class:`~repro.secure.adversary.WireInjector` and run every data-block
wire copy through one hook, :meth:`_TransportBase._wire_copies`: it rolls
nothing itself, but turns the injector's ``(fault, attack)`` event into
the copies that land — the original, a link duplicate, a replayed,
spliced, or forged copy — each tagged with what happened to it.  Each
transport then consumes those copies its own way (see
``docs/ROBUSTNESS.md``).  The unsecure fabric delivers on schedule and
books the silent damage; the secure transport runs a detection-driven
recovery protocol: corrupted or tampered blocks fail their MsgMAC and
trigger a NACK, lost blocks fire a sender-side retransmission timer with
exponential backoff, wire duplicates and replays are rejected by the
receiver's counter check, and a retry budget bounds how long any block
keeps the link busy — exhausting it raises a structured
:class:`~repro.interconnect.faults.LinkFailureError`.  Every retransmitted
block burns a fresh counter/pad, so recovery cost feeds straight back
into the OTP allocator the paper studies.

Both transports also collect the paper's motivation measurements: per-node
send/receive timelines (Figs 13/14) and per-pair data-block burstiness
histograms (Figs 15/16).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.configs import SystemConfig
from repro.core.batching import BatchingController, MsgMacStorage
from repro.interconnect.faults import FaultVerdict, LinkFailureError
from repro.interconnect.packet import Packet, PacketKind
from repro.interconnect.topology import Topology
from repro.obs import Telemetry
from repro.secure.adversary import (
    ALIEN_KINDS,
    TAMPER_KINDS,
    AttackKind,
    AttackReport,
    WireInjector,
)
from repro.secure.engine import AesGcmEngineModel
from repro.secure.invariants import InvariantMonitor
from repro.secure.metadata import MetadataAccountant
from repro.secure.replay import ReplayGuard
from repro.secure.schemes import build_scheme
from repro.sim.engine import Simulator
from repro.sim.stats import FaultStats, Histogram, IntervalSeries
from repro.transport import DeliveryHandler

#: Histogram bin edges of Figs 15/16.
BURST_EDGES = [40, 160, 640, 2560]

#: the FaultStats counter each injected link fault bumps
_INJECTED = {
    FaultVerdict.DROP: "drops_injected",
    FaultVerdict.CORRUPT: "corruptions_injected",
    FaultVerdict.DUPLICATE: "duplicates_injected",
    FaultVerdict.DELAY: "delays_injected",
}


@dataclass(slots=True, eq=False)
class _PendingMessage:
    """Sender-side retransmission state for one in-flight data block."""

    packet: Packet
    counter: int  # the counter of the *current* wire copy
    batch_ctx: object
    rto: int
    first_sent: int
    counters: list[int] = field(init=False)  # every counter any copy ever used
    attempts: int = 1  # transmissions so far (first copy included)
    timer: object = None

    def __post_init__(self) -> None:
        self.counters = [self.counter]


class _TransportBase:
    """Delivery registry plus the measurement instrumentation."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        cfg: SystemConfig,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.cfg = cfg
        #: run-scoped metric sink; the owning system passes its own so the
        #: transport's ``fault.*`` counters land in the run's namespace
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._handlers: dict[int, DeliveryHandler] = {}
        self.timelines: dict[int, IntervalSeries] = {
            node: IntervalSeries(f"node{node}", cfg.timeline_interval)
            for node in topology.nodes()
        }
        #: per-destination timeline channel names, built once
        self._to_names: dict[int, str] = {node: f"to{node}" for node in topology.nodes()}
        self.burst16 = Histogram("burst16", BURST_EDGES)
        self.burst32 = Histogram("burst32", BURST_EDGES)
        self._burst_state: dict[tuple[int, int], list[int]] = {}
        self.messages_sent = 0
        self.data_blocks = 0
        # Link faults and the active adversary are strictly opt-in: with
        # every rate at zero the injector is absent and the clean-channel
        # paths run unchanged (bit-identical reports).  Its presence also
        # arms the recovery machinery (pending table, RTO timers, dedup sets).
        self.fault_stats = FaultStats() if cfg.fault.enabled else None
        self.attack_report = AttackReport() if cfg.adversary.enabled else None
        self.wire = (
            WireInjector(cfg.fault, cfg.adversary, topology.nodes())
            if cfg.fault.enabled or cfg.adversary.enabled
            else None
        )

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def register(self, node: int, handler: DeliveryHandler) -> None:
        if node in self._handlers:
            raise ValueError(f"node {node} already registered")
        self._handlers[node] = handler

    def close(self) -> None:
        """End of run: forget what leads back into the machine.

        Delivery handlers are bound device methods, and each device holds
        this transport.
        """
        self._handlers.clear()

    def _deliver(self, packet: Packet, time: int) -> None:
        handler = self._handlers.get(packet.dst)
        if handler is None:
            raise KeyError(f"no delivery handler for node {packet.dst}")
        handler(packet, time)

    def _deliver_at(self, packet: Packet, arrival: int) -> None:
        """Hand an unprotected packet to its destination at ``arrival``."""
        self.sim.post_at(
            arrival, lambda p=packet: (self._note_arrival(p, self.sim.now), self._deliver(p, self.sim.now))
        )

    # ------------------------------------------------------------------
    # The hostile wire
    # ------------------------------------------------------------------
    def _wire_copies(
        self, packet: Packet, now: int, verdict: FaultVerdict, attack: AttackKind | None
    ) -> list[tuple[Packet, int, FaultVerdict | AttackKind | None]]:
        """Put one data-block copy on a hostile link; list what lands.

        Returns ``(packet, arrival, tag)`` entries in the order their
        arrivals must be posted; the first entry is always the original
        copy.  ``tag`` is ``None`` for an intact copy, ``FaultVerdict.DROP``
        for a copy that never reaches its receiver (lost on the link, or
        captured by a splice), ``FaultVerdict.CORRUPT`` for a copy the link
        garbled, and the :class:`AttackKind` for a copy the attacker touched
        or made.  Every copy occupies link bandwidth, dropped ones included
        (the bits crossed the wire; only the far end never saw them intact).
        """
        arrival = self.topology.send(packet, now)
        if verdict is not FaultVerdict.OK:
            stats, name = self.fault_stats, _INJECTED[verdict]
            setattr(stats, name, getattr(stats, name) + 1)
            self._note_fault(packet, verdict.value)
            if verdict is FaultVerdict.DROP or verdict is FaultVerdict.CORRUPT:
                return [(packet, arrival, verdict)]
        landing = arrival + self.cfg.fault.delay_cycles if verdict is FaultVerdict.DELAY else arrival
        if attack is None:
            copies = [(packet, landing, None)]
        else:
            self.attack_report.note_injected(attack)
            self._note_adv(f"{attack.value}_injected")
            adv = self.cfg.adversary
            if attack is AttackKind.REPLAY:
                # The original proceeds untouched; the captured copy is
                # re-injected later and burns real bandwidth.
                replayed = self.topology.send(packet, landing + adv.replay_lag)
                copies = [(packet, landing, None), (packet, replayed, attack)]
            elif attack is AttackKind.SPLICE or attack is AttackKind.FORGE:
                # A splice redirects the block onto a third node's link (it
                # never reaches dst); a forge fabricates one alongside it.
                splice = attack is AttackKind.SPLICE
                made = Packet(
                    kind=packet.kind,
                    src=packet.src,
                    dst=self.wire.splice_target(packet.src, packet.dst) if splice else packet.dst,
                    size_bytes=packet.size_bytes,
                    meta_bytes=packet.meta_bytes,
                )
                copies = [
                    (packet, landing, FaultVerdict.DROP if splice else None),
                    (made, self.topology.send(made, landing), attack),
                ]
            elif attack is AttackKind.REORDER:
                # Held back so later counters overtake it on the wire.
                copies = [(packet, landing + adv.reorder_lag, attack)]
            else:
                copies = [(packet, landing, attack)]  # mutated in flight
        if verdict is FaultVerdict.DUPLICATE:
            # the link echo trails the original and burns bandwidth
            copies.append((packet, self.topology.send(packet, arrival), None))
        return copies

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def _note_fault(self, packet: Packet, event: str) -> None:
        """Observation hook for fault/recovery events (wrapped by tracers).

        Only ever invoked under active fault injection, so a rate-0 run
        creates no ``fault.*`` metrics at all — absence of the namespace is
        the telemetry-level statement that the link stayed clean.
        """
        self.telemetry.counter(f"fault.{event.replace('-', '_')}").add()

    def _note_adv(self, event: str) -> None:
        """Observation hook for adversary/defense events.

        Only ever invoked under an active adversary, so attack-free runs
        create no ``adv.*`` metrics — mirroring the ``fault.*`` contract.
        """
        self.telemetry.counter(f"adv.{event.replace('-', '_')}").add()

    def _note_send(self, packet: Packet, now: int) -> None:
        self.messages_sent += 1
        if packet.kind.housekeeping:
            return  # protocol housekeeping stays off the request timelines
        timeline = self.timelines[packet.src]
        timeline.record(now, "send")
        timeline.record(now, self._to_names[packet.dst])

    def _note_arrival(self, packet: Packet, now: int) -> None:
        kind = packet.kind
        if kind.housekeeping:
            return
        self.timelines[packet.dst].record(now, "recv")
        if kind.carries_data:
            self.data_blocks += 1
            self._track_burst(packet.src, packet.dst, now)

    def _track_burst(self, src: int, dst: int, now: int) -> None:
        # state: [count16, start16, count32, start32]
        state = self._burst_state.setdefault((src, dst), [0, 0, 0, 0])
        if state[0] == 0:
            state[1] = now
        state[0] += 1
        if state[0] == 16:
            self.burst16.record(now - state[1])
            state[0] = 0
        if state[2] == 0:
            state[3] = now
        state[2] += 1
        if state[2] == 32:
            self.burst32.record(now - state[3])
            state[2] = 0


class UnsecureTransport(_TransportBase):
    """The vanilla multi-GPU fabric: no pads, no metadata, no ACKs.

    On a hostile wire the unsecure fabric has *no detection*: dropped
    payloads, flipped bits and attacker-controlled bytes reach the
    consuming device as silently wrong data at zero timing cost.  The
    packet still reaches its handler when the original copy lands, while
    the :class:`FaultStats` (``lost_messages`` / ``corrupted_deliveries``)
    and :class:`AttackReport` (``accepted``) ledgers record the damage the
    secure schemes' recovery machinery exists to prevent — the asymmetry
    ``experiments.fig_fault_sweep`` and ``experiments.fig_adversary`` plot.
    """

    def send(self, packet: Packet, now: int) -> None:
        self._note_send(packet, now)
        wire = self.wire
        if wire is None or not packet.kind.carries_data:
            self._deliver_at(packet, self.topology.send(packet, now))
            return
        verdict, attack = wire.decide(packet.src, packet.dst)
        copies = self._wire_copies(packet, now, verdict, attack)
        # No detection: the device consumes the original when it lands,
        # whatever became of it, and the ledgers record the damage.
        if verdict is FaultVerdict.DROP:
            self.fault_stats.lost_messages += 1
        elif verdict is FaultVerdict.CORRUPT:
            self.fault_stats.corrupted_deliveries += 1
        if attack is AttackKind.REORDER:
            # Late but intact: nothing attacker-controlled is consumed.
            self.attack_report.note_harmless(attack)
            self._note_adv("reorder_absorbed")
        elif attack is not None:
            self.attack_report.note_accepted(attack)
            self._note_adv("accepted")
        self._deliver_at(packet, copies[0][1])


class SecureTransport(_TransportBase):
    """Authenticated-encrypted fabric with OTP buffers and metadata."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        cfg: SystemConfig,
        telemetry: Telemetry | None = None,
    ) -> None:
        super().__init__(sim, topology, cfg, telemetry)
        sec = cfg.security
        if sec.scheme == "unsecure":
            raise ValueError("SecureTransport requires a managed scheme")
        self.accountant = MetadataAccountant(sec.metadata, sec.count_metadata)
        self.engines: dict[int, AesGcmEngineModel] = {}
        self.schemes = {}
        self.guards: dict[int, ReplayGuard] = {}
        self.batchers: dict[int, BatchingController] = {}
        self.mac_storage: dict[int, MsgMacStorage] = {}
        # Under an active adversary the replay guards tolerate in-window
        # ACK reordering (held-back blocks deliver late but legitimately);
        # dormant configs keep the strict-FIFO default.
        guard_window = cfg.adversary.replay_window if cfg.adversary.enabled else 0
        for node in topology.nodes():
            engine = AesGcmEngineModel(sec.aes_gcm_latency, sec.ghash_latency, sec.xor_latency)
            self.engines[node] = engine
            self.schemes[node] = build_scheme(
                sec.scheme, node, topology.peers_of(node), sec, engine
            )
            self.guards[node] = ReplayGuard(node, window=guard_window)
            if sec.batching:
                self.batchers[node] = BatchingController(
                    sec.metadata, sec.batch_size, sec.batch_timeout
                )
                self.mac_storage[node] = MsgMacStorage(capacity_per_pair=64)
        self._ctrs: dict[tuple[int, int], int] = {}
        # Crypto units are FIFO per directed pair: a pad stall blocks the
        # messages queued behind it (head-of-line), while the XOR/GHASH
        # fast paths are fully pipelined and add latency only.
        self._send_crypto_busy: dict[tuple[int, int], int] = {}
        self._recv_crypto_busy: dict[tuple[int, int], int] = {}
        # receiver-side batch completion tracking:
        # (src, dst, batch_id) -> [blocks_arrived, expected_or_None]
        self._batch_arrivals: dict[tuple[int, int, int], list] = {}
        self.acks_sent = 0
        self.batch_macs_sent = 0
        #: secured messages that took the conventional per-message metadata
        #: path (MsgCTR+MsgMAC+senderID each) vs. the batched-block path —
        #: the split the metadata byte law in ``repro.verify`` is written in
        self.conventional_msgs = 0
        self.batched_blocks = 0
        #: when SecurityConfig.audit is set, every secured message is
        #: recorded for functional replay (repro.secure.audit)
        self.audit_log: list = [] if sec.audit else None
        # Recovery-protocol state, populated only under fault injection:
        # in-flight blocks awaiting their ACK (insertion-ordered per pair),
        # an alias from any live wire counter to the logical block it
        # carries, the receiver's already-seen counter sets (wire-replay
        # rejection), and the set of block pids already handed to a device
        # (late original vs. retransmit races deliver exactly once).
        self._pending: dict[tuple[int, int], dict[int, _PendingMessage]] = {}
        self._counter_owner: dict[tuple[int, int, int], int] = {}
        self._recv_seen: dict[tuple[int, int], set[int]] = {}
        self._delivered_pids: dict[tuple[int, int], set[int]] = {}
        # Adversary-side state: the runtime invariant sanitizer, per-pair
        # detection counts feeding quarantine, and the fabricated-counter
        # sequence forged blocks arrive under (negative: disjoint from any
        # counter a sender can ever issue).
        self.monitor = InvariantMonitor() if cfg.adversary.enabled else None
        self._adv_detections: dict[tuple[int, int], int] = {}
        self._forge_seq = 0

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def send(self, packet: Packet, now: int) -> None:
        # The clean path reads each per-message fact once into a local and
        # tests each dormant hostile layer once: this runs for every
        # secured message of every cell.
        kind = packet.kind
        if kind.housekeeping:
            raise ValueError("ACK/batch-MAC packets are generated by the transport itself")
        self._note_send(packet, now)

        carries_data = kind.carries_data
        sec = self.cfg.security
        if not carries_data and not sec.protect_requests:
            # Control messages (read requests, write acks, migration
            # requests) carry addresses, not data; the paper's protocol
            # authenticated-encrypts *data* transfers (Figs 5/19) and
            # leaves request-content hiding to oblivious routing [34].
            # ``protect_requests`` enables that extension: control messages
            # then take the full secured path below.
            self._deliver_at(packet, self.topology.send(packet, now))
            return

        src, dst = packet.src, packet.dst
        pair = (src, dst)
        engine = self.engines[src]
        scheme = self.schemes[src]
        guarded = self.wire is not None and carries_data
        # head-of-line: the pad acquisition happens when this message
        # reaches the front of the pair's crypto queue
        demand = kind is not PacketKind.MIGRATION_DATA
        # monitoring observes the message as it enqueues, before any stall
        scheme.note_send(dst, now, demand=demand)
        busy = self._send_crypto_busy.get(pair, 0)
        start = busy if busy > now else now
        send_grant = scheme.acquire_send(dst, start, demand=demand)
        ready = start + send_grant.grant.wait
        self._send_crypto_busy[pair] = ready
        counter = self._ctrs.get(pair, 0)
        self._ctrs[pair] = counter + 1
        monitor = self.monitor
        if monitor is not None:
            monitor.on_counter(src, dst, counter)
            monitor.on_send_pad(src, dst, counter)

        batch_ctx = None
        if sec.batching and kind.batchable:
            grant = self.batchers[src].add_block(dst, now)
            meta = self.accountant.batched_block_meta(grant.opens_batch, grant.closes_batch)
            if guarded:
                # Hostile-channel batching verifies every block eagerly, so
                # each block keeps its own MsgMAC on the wire.
                meta += self.accountant.eager_block_mac_bytes()
            batch_ctx = grant
            self.batched_blocks += 1
            if grant.opens_batch:
                self.sim.post(
                    sec.batch_timeout,
                    lambda s=src, d=dst, b=grant.batch_id: self._batch_timeout(s, d, b),
                )
            # Batched blocks are ACKed once per batch: tag the entry so
            # the guard retires it on *that* batch's ACK, not blindly
            # from the FIFO head (conventional ACKs overtake batch ACKs
            # by design — the batch waits for its close).  Every
            # batchable kind carries data, so every one is ACKed.
            self.guards[src].on_send(dst, counter, batch_id=grant.batch_id)
        else:
            meta = self.accountant.conventional_meta(packet)
            self.conventional_msgs += 1
            if carries_data:
                self.guards[src].on_send(dst, counter)

        packet.size_bytes += meta
        packet.meta_bytes = meta
        engine.count_mac()

        audit_log = self.audit_log
        if audit_log is not None:
            from repro.secure.audit import AuditEntry

            audit_log.append(
                AuditEntry(
                    src=src,
                    dst=dst,
                    counter=counter,
                    in_batch=batch_ctx is not None,
                    closes_batch=bool(batch_ctx and batch_ctx.closes_batch),
                    batch_size=batch_ctx.batch_size if batch_ctx else 0,
                )
            )

        launch_at = ready + engine.mac_fast_path + engine.encrypt_fast_path
        synced = send_grant.receiver_synced
        if guarded:
            # Batched blocks are ACKed at batch close, which may lag by the
            # batch timeout; the sender's RTO accounts for that known delay
            # so a slow batch is not mistaken for a lost block.
            rto = self.cfg.fault.ack_timeout
            if batch_ctx is not None:
                rto += sec.batch_timeout
            pending = _PendingMessage(packet, counter, batch_ctx, rto, launch_at)
            self._pending.setdefault(pair, {})[packet.pid] = pending
            self._counter_owner[(src, dst, counter)] = packet.pid
            self.sim.post_at(
                launch_at,
                lambda p=packet, s=synced, b=batch_ctx, c=counter: self._launch_hostile(
                    p, s, b, c
                ),
            )
            return
        self.sim.post_at(
            launch_at,
            lambda p=packet, s=synced, b=batch_ctx, c=counter: self._launch(p, s, b, c),
        )

    def _launch(self, packet: Packet, synced: bool, batch_ctx, counter: int) -> None:
        """Put a clean-channel copy on the link (hostile copies take
        :meth:`_launch_hostile`, chosen when the message was sent)."""
        arrival = self.topology.send(packet, self.sim.now)
        self.sim.post_at(
            arrival,
            lambda p=packet, s=synced, b=batch_ctx, c=counter: self._arrive(p, s, b, c),
        )

    def _launch_hostile(self, packet: Packet, synced: bool, batch_ctx, counter: int) -> None:
        """Put one wire copy on a hostile link and post every copy that lands.

        Every copy — original or retransmission — rolls its own wire event.
        Spliced and forged copies travel under counters alien to the
        receiving pair (a forge's is one no sender ever issued) and carry
        no batch of it; the attacker holds no keys and no pads, so every
        tampered copy is destined for a MsgMAC rejection, charged to the
        compromised wire the block was captured on.
        """
        src, dst = packet.src, packet.dst
        pair = (src, dst)
        verdict, attack = self.wire.decide(src, dst)
        for copy, arrival, tag in self._wire_copies(packet, self.sim.now, verdict, attack):
            if tag is FaultVerdict.DROP:
                continue  # only the sender's RTO timer can notice the loss
            if tag is None or tag is FaultVerdict.CORRUPT:
                self.sim.post_at(
                    arrival,
                    lambda p=copy, k=tag is FaultVerdict.CORRUPT: self._arrive(
                        p, synced, batch_ctx, counter, corrupted=k
                    ),
                )
                continue
            ctr, batch = counter, batch_ctx
            if copy is not packet:
                batch = None
                if tag is AttackKind.FORGE:
                    self._forge_seq += 1
                    ctr = -self._forge_seq
            if tag in TAMPER_KINDS:
                self.monitor.on_tampered_copy(copy.src, copy.dst, ctr, copy.pid)
            self.sim.post_at(
                arrival,
                lambda p=copy, b=batch, c=ctr, a=tag: self._arrive(
                    p, synced, b, c, attack=a, origin=pair
                ),
            )
        pending = self._pending.get(pair, {}).get(packet.pid)
        if pending is not None:
            self._arm_timer(pending)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _arrive(
        self,
        packet: Packet,
        synced: bool,
        batch_ctx,
        counter: int,
        corrupted: bool = False,
        attack: AttackKind | None = None,
        origin: tuple[int, int] | None = None,
    ) -> None:
        now = self.sim.now
        kind = packet.kind
        src, dst = packet.src, packet.dst
        pair = (src, dst)
        guarded = self.wire is not None and kind.carries_data
        if guarded:
            seen = self._recv_seen.setdefault(pair, set())
            if counter in seen:
                if attack is not None:
                    # The plaintext counter check rejects the attacked copy
                    # before it touches the crypto pipeline or burns a pad:
                    # a whole-block replay re-presents a consumed counter,
                    # and a spliced copy's alien counter can collide with
                    # one this pair already accepted.
                    event = "replay_discard" if attack is AttackKind.REPLAY else "counter_reject"
                    self._attack_detected(attack, origin, event)
                    return
                # Wire replay (link echo): rejected the same way.
                if self.fault_stats is not None:
                    self.fault_stats.duplicates_discarded += 1
                    self._note_fault(packet, "dup-discard")
                return
            if attack not in ALIEN_KINDS:
                seen.add(counter)
        engine = self.engines[dst]
        scheme = self.schemes[dst]
        demand = kind is not PacketKind.MIGRATION_DATA
        scheme.note_recv(src, now, demand=demand)
        busy = self._recv_crypto_busy.get(pair, 0)
        start = busy if busy > now else now
        ready = start + scheme.acquire_recv(src, start, synced=synced, demand=demand).wait
        self._recv_crypto_busy[pair] = ready
        # Tampered/alien copies burn this pair's receive pad at the counter
        # they *claim* and then die at the MsgMAC — wasted-pad cost, not a
        # security double-use, so they stay out of the single-use ledger
        # (the legitimate block under the same counter still must be unique).
        if guarded and self.monitor is not None and attack not in TAMPER_KINDS:
            self.monitor.on_recv_pad(src, dst, counter)

        # A hostile link forfeits lazy verification: batched blocks verify
        # eagerly so corruption is caught before the block leaves the NoC.
        lazy = kind.batchable and self.cfg.security.batching and not guarded
        verify = 0 if lazy else engine.mac_fast_path
        deliver_at = ready + engine.encrypt_fast_path + verify
        if corrupted or (attack is not None and attack in TAMPER_KINDS):
            self.sim.post_at(
                deliver_at,
                lambda p=packet, c=counter, a=attack, o=origin: self._mac_rejected(p, c, a, o),
            )
            return
        self.sim.post_at(
            deliver_at,
            lambda p=packet, b=batch_ctx, c=counter, a=attack: self._delivered(p, b, c, a),
        )

    def _delivered(
        self, packet: Packet, batch_ctx, counter: int, attack: AttackKind | None = None
    ) -> None:
        now = self.sim.now
        kind = packet.kind
        src, dst = packet.src, packet.dst
        carries_data = kind.carries_data
        if self.wire is not None and carries_data:
            delivered = self._delivered_pids.setdefault((src, dst), set())
            if packet.pid in delivered:
                # A late original raced its own retransmit: identical
                # content, different counter.  Deliver exactly once.
                if attack is not None:
                    # The attacked copy lost the race — absorbed, no damage.
                    self.attack_report.note_harmless(attack)
                    self._note_adv(f"{attack.value}_absorbed")
                if self.fault_stats is not None:
                    self.fault_stats.spurious_retransmits += 1
                    self.fault_stats.wasted_otps += 1  # the extra receive pad
                    self._note_fault(packet, "dup-content")
                return
            delivered.add(packet.pid)
        if attack is not None:
            if attack in TAMPER_KINDS:
                # Contract breach: a tampered copy reached a device.  The
                # ledger records it (the zero-undetected assertion fails)
                # and the invariant monitor flags it below.
                self.attack_report.note_accepted(attack)
                self._note_adv("accepted")
            else:
                # Replay/reorder copies that deliver are authentic data
                # arriving once: late (reorder) or standing in for a copy
                # a link fault destroyed (replay).
                self.attack_report.note_harmless(attack)
                self._note_adv(f"{attack.value}_absorbed")
        if self.monitor is not None and carries_data:
            self.monitor.on_delivered(src, dst, counter, packet.pid)
        self._note_arrival(packet, now)

        if kind.batchable and self.cfg.security.batching:
            self.mac_storage[dst].store(src)
            self._batch_progress(
                src,
                dst,
                batch_ctx.batch_id,
                arrived=1,
                expected=batch_ctx.batch_size if batch_ctx.closes_batch else None,
            )
        elif carries_data:
            self._send_ack(dst, src, retire=1, counter=counter)

        self._deliver(packet, now)

    # ------------------------------------------------------------------
    # Batch completion and timeout
    # ------------------------------------------------------------------
    def _batch_progress(
        self, src: int, dst: int, batch_id: int, arrived: int, expected: int | None
    ) -> None:
        """Count a batch's blocks (and learn its size from the closing block
        or the standalone BatchMAC); verify and ACK it once complete."""
        key = (src, dst, batch_id)
        state = self._batch_arrivals.setdefault(key, [0, None])
        state[0] += arrived
        if expected is not None:
            state[1] = expected
        if state[1] is None or state[0] < state[1]:
            return
        del self._batch_arrivals[key]
        self.mac_storage[dst].release_batch(src, state[1])
        self.engines[dst].count_mac()  # the batched-MAC verification
        self._send_ack(dst, src, retire=state[1], batch_id=batch_id)

    def _batch_timeout(self, src: int, dst: int, batch_id: int) -> None:
        closed = self.batchers[src].timeout_close(dst, batch_id)
        if closed is None:
            return  # batch already filled up
        if self.audit_log is not None:
            from repro.secure.audit import AuditEntry

            self.audit_log.append(
                AuditEntry(
                    src=src,
                    dst=dst,
                    counter=-1,
                    in_batch=True,
                    closes_batch=True,
                    batch_size=closed,
                    timeout_close=True,
                )
            )
        packet = Packet(
            kind=PacketKind.BATCH_MAC,
            src=src,
            dst=dst,
            size_bytes=self.accountant.standalone_batch_mac_size(),
            meta_bytes=0,
        )
        packet.meta_bytes = packet.size_bytes if self.cfg.security.count_metadata else 0
        self.batch_macs_sent += 1
        self._note_send(packet, self.sim.now)
        arrival = self.topology.send(packet, self.sim.now)
        self.sim.post_at(
            arrival,
            lambda s=src, d=dst, b=batch_id, n=closed: self._batch_progress(s, d, b, 0, n),
        )

    # ------------------------------------------------------------------
    # Replay-protection ACKs
    # ------------------------------------------------------------------
    def _send_ack(
        self,
        from_node: int,
        to_node: int,
        retire: int,
        counter: int | None = None,
        batch_id: int | None = None,
    ) -> None:
        if not self.cfg.security.count_metadata:
            # +SecureCommu mode: account the protocol without its bandwidth.
            self._ack_retire(to_node, from_node, counter, retire, batch_id)
            return
        ack = Packet(
            kind=PacketKind.SEC_ACK,
            src=from_node,
            dst=to_node,
            size_bytes=self.accountant.ack_packet_size(),
            txn_id=retire,
        )
        ack.meta_bytes = ack.size_bytes
        self.acks_sent += 1
        self._note_send(ack, self.sim.now)
        arrival = self.topology.send(ack, self.sim.now)
        self.sim.post_at(
            arrival,
            lambda c=counter, b=batch_id: self._ack_retire(to_node, from_node, c, retire, b),
        )

    def _ack_retire(
        self, sender: int, receiver: int, counter: int | None, retire: int, batch_id: int | None
    ) -> None:
        """The ACK reached the original sender: its replay table retires entries."""
        self.guards[sender].on_ack(receiver, counter, retire, batch_id=batch_id)
        if self.wire is not None:
            self._resolve_acked(sender, receiver, counter, retire, batch_id)

    # ------------------------------------------------------------------
    # Fault recovery: detection, NACK/timeout, retransmission
    # ------------------------------------------------------------------
    def _resolve_acked(
        self,
        sender: int,
        receiver: int,
        counter: int | None,
        retire: int,
        batch_id: int | None,
    ) -> None:
        """Settle retransmission state for blocks the receiver just ACKed
        (called only when the recovery protocol is armed)."""
        pair = self._pending.get((sender, receiver))
        if not pair:
            return
        if batch_id is not None:
            # Batches can complete out of order under faults (a dropped
            # block stalls its batch while later ones finish), so batch
            # ACKs settle by batch id, never by queue position.
            pids = [
                pid
                for pid, p in pair.items()
                if p.batch_ctx is not None and p.batch_ctx.batch_id == batch_id
            ]
        elif counter is not None:
            pid = self._counter_owner.get((sender, receiver, counter))
            pids = [pid] if pid is not None and pid in pair else []
        else:
            pids = list(pair)[:retire]
        for pid in pids:
            self._resolve_pending(sender, receiver, pid)

    def _resolve_pending(self, sender: int, receiver: int, pid: int) -> None:
        pair = self._pending.get((sender, receiver))
        pending = pair.pop(pid, None) if pair else None
        if pending is None:
            return
        if pending.timer is not None:
            pending.timer.cancel()
            pending.timer = None
        for ctr in pending.counters:
            self._counter_owner.pop((sender, receiver, ctr), None)

    def _arm_timer(self, pending: _PendingMessage) -> None:
        if pending.timer is not None:
            pending.timer.cancel()
        src, dst = pending.packet.src, pending.packet.dst
        pending.timer = self.sim.schedule(
            pending.rto,
            lambda s=src, d=dst, pid=pending.packet.pid: self._ack_timeout(s, d, pid),
        )

    def _ack_timeout(self, src: int, dst: int, pid: int) -> None:
        pair = self._pending.get((src, dst))
        pending = pair.get(pid) if pair else None
        if pending is None:
            return  # ACK won the race; this timer was lazily cancelled
        stats = self.fault_stats
        if stats is not None:
            stats.timeouts_fired += 1
            stats.backoff_cycles += pending.rto
            self._note_fault(pending.packet, "timeout")
        else:
            self._note_adv("timeout")
        fault = self.cfg.fault
        pending.rto = min(int(pending.rto * fault.backoff_factor), fault.backoff_max)
        pending.timer = None
        self._retransmit(pending, "timeout")

    def _mac_rejected(
        self,
        packet: Packet,
        counter: int,
        attack: AttackKind | None,
        origin: tuple[int, int] | None,
    ) -> None:
        """MsgMAC verification rejected a garbled, mutated or fabricated copy.

        The receive pad it burned is wasted and the receiver NACKs the
        counter it saw.  For spliced copies the NACK reaches a sender with
        no matching pending entry (a no-op — the *original* pair's RTO
        drives recovery), and for forged copies the fabricated counter
        matches nothing either.  Attack detections are always charged to
        the compromised wire the attack originated on.
        """
        stats = self.fault_stats
        if attack is None:  # a link corruption
            stats.corruptions_detected += 1
            stats.wasted_otps += 1
            self._note_fault(packet, "mac-reject")
        else:
            if self.monitor is not None:
                self.monitor.on_mac_reject(packet.src, packet.dst, counter, packet.pid)
            if stats is not None:
                stats.wasted_otps += 1
            self._attack_detected(attack, origin, "mac_reject")
        self._send_nack(packet.dst, packet.src, counter)

    # ------------------------------------------------------------------
    # Adversary detection and link quarantine
    # ------------------------------------------------------------------
    def _attack_detected(
        self, attack: AttackKind, origin: tuple[int, int], event: str
    ) -> None:
        self.attack_report.note_detected(attack)
        self._note_adv(event)
        self._register_detection(*origin)

    def _register_detection(self, src: int, dst: int) -> None:
        """Count a detection against the (src → dst) wire; maybe failover.

        Hitting ``quarantine_threshold`` detections takes the directed
        link out of service: the topology reroutes the pair over an
        alternate path and the injector stops seeing its traffic.  When no
        alternate exists (CPU↔GPU over the single PCIe bus) the pair stays
        on the guarded direct route and detections simply keep counting.
        """
        threshold = self.cfg.adversary.quarantine_threshold
        if threshold <= 0:
            return
        key = (src, dst)
        count = self._adv_detections.get(key, 0) + 1
        self._adv_detections[key] = count
        if count == threshold and self.topology.quarantine(src, dst):
            self.wire.on_quarantine(src, dst)
            self.attack_report.note_quarantined(src, dst)
            self._note_adv("quarantine")

    def _send_nack(self, from_node: int, to_node: int, counter: int) -> None:
        if self.fault_stats is not None:
            self.fault_stats.nacks_sent += 1
        if not self.cfg.security.count_metadata:
            # +SecureCommu mode: the NACK costs no bandwidth or latency.
            self._recover(to_node, from_node, counter, "nack")
            return
        nack = Packet(
            kind=PacketKind.SEC_NACK,
            src=from_node,
            dst=to_node,
            size_bytes=self.accountant.ack_packet_size(),
        )
        nack.meta_bytes = nack.size_bytes
        self._note_send(nack, self.sim.now)
        arrival = self.topology.send(nack, self.sim.now)
        self.sim.post_at(
            arrival, lambda n=nack, c=counter: self._recover(n.dst, n.src, c, "nack")
        )

    def _recover(self, sender: int, receiver: int, counter: int, reason: str) -> None:
        pid = self._counter_owner.get((sender, receiver, counter))
        pair = self._pending.get((sender, receiver))
        pending = pair.get(pid) if (pair and pid is not None) else None
        if pending is None or pending.counter != counter:
            return  # stale NACK: a retransmit already superseded this copy
        self._retransmit(pending, reason)

    def _retransmit(self, pending: _PendingMessage, reason: str) -> None:
        fault = self.cfg.fault
        packet = pending.packet
        src, dst = packet.src, packet.dst
        stats = self.fault_stats
        if pending.attempts > fault.max_retries:
            if stats is not None:
                stats.link_failures += 1
                self._note_fault(packet, "give-up")
            else:
                self._note_adv("give_up")
            self._resolve_pending(src, dst, packet.pid)
            raise LinkFailureError(
                src=src,
                dst=dst,
                pid=packet.pid,
                counter=pending.counter,
                attempts=pending.attempts,
                first_sent=pending.first_sent,
                gave_up_at=self.sim.now,
                fault_stats=stats.as_dict() if stats is not None else {},
            )
        pending.attempts += 1
        if stats is not None:
            stats.retransmits += 1
            stats.wasted_otps += 1  # the superseded copy's send pad
            self._note_fault(packet, "retransmit")
        else:
            self._note_adv("retransmit")
        if pending.timer is not None:
            pending.timer.cancel()
            pending.timer = None
        # The old copy's ACK can never arrive; void its replay-guard entry
        # so the FIFO freshness check stays aligned.
        self.guards[src].retire_lost(dst, pending.counter)
        # Re-run the send tail: a retransmission is a brand-new secured
        # message — fresh pad, fresh counter, fresh MAC (a pad must never
        # encrypt two wire copies).
        now = self.sim.now
        engine = self.engines[src]
        demand = packet.kind is not PacketKind.MIGRATION_DATA
        self.schemes[src].note_send(dst, now, demand=demand)
        pair = (src, dst)
        start = max(now, self._send_crypto_busy.get(pair, 0))
        send_grant = self.schemes[src].acquire_send(dst, start, demand=demand)
        self._send_crypto_busy[pair] = start + send_grant.grant.wait
        counter = self._ctrs.get(pair, 0)
        self._ctrs[pair] = counter + 1
        if self.monitor is not None:
            self.monitor.on_counter(src, dst, counter)
            self.monitor.on_send_pad(src, dst, counter)
        pending.counter = counter
        pending.counters.append(counter)
        self._counter_owner[(src, dst, counter)] = packet.pid
        self.guards[src].on_send(
            dst,
            counter,
            batch_id=pending.batch_ctx.batch_id if pending.batch_ctx is not None else None,
        )
        engine.count_mac()
        launch_at = (
            start
            + send_grant.grant.wait
            + engine.mac_fast_path
            + engine.encrypt_fast_path
        )
        self.sim.post_at(
            launch_at,
            lambda p=packet, s=send_grant.receiver_synced, b=pending.batch_ctx, c=counter: (
                self._launch_hostile(p, s, b, c)
            ),
        )

    def close(self) -> None:
        """End of run: also drop the blocks still awaiting an ACK (a run
        that raised leaves some), whose timers call back into this
        transport."""
        super().close()
        self._pending.clear()

    # ------------------------------------------------------------------
    # Aggregated reporting
    # ------------------------------------------------------------------
    def run_invariant_checks(self) -> None:
        """End-of-run sanitizer pass over the whole security transcript.

        No-op without an attached monitor (adversary-free runs).  Raises
        :class:`~repro.secure.invariants.InvariantViolationError` if any
        invariant — counter monotonicity, pad single-use, tamper
        rejection, replay-window semantics, attack resolution — broke.
        """
        if self.monitor is None:
            return
        window = self.cfg.adversary.replay_window
        for guard in self.guards.values():
            self.monitor.check_guard(guard, window)
        if self.attack_report is not None:
            self.monitor.check_attack_report(self.attack_report)
        self.monitor.check()

    def otp_summary(self) -> dict[str, dict[str, float]]:
        """Fleet-wide send/recv hit-partial-miss fractions (Figs 10/22)."""
        send = {"hit": 0, "partial": 0, "miss": 0}
        recv = {"hit": 0, "partial": 0, "miss": 0}
        for scheme in self.schemes.values():
            for key, val in scheme.send_outcomes.counts.items():
                send[key] = send.get(key, 0) + val
            for key, val in scheme.recv_outcomes.counts.items():
                recv[key] = recv.get(key, 0) + val

        def fractions(counts):
            total = sum(counts.values())
            if not total:
                return {k: 0.0 for k in counts}
            return {k: v / total for k, v in counts.items()}

        return {"send": fractions(send), "recv": fractions(recv)}


def build_transport(
    sim: Simulator,
    topology: Topology,
    cfg: SystemConfig,
    telemetry: Telemetry | None = None,
):
    """Pick the transport matching ``cfg.security.scheme``."""
    if cfg.security.scheme == "unsecure":
        return UnsecureTransport(sim, topology, cfg, telemetry)
    return SecureTransport(sim, topology, cfg, telemetry)


__all__ = ["UnsecureTransport", "SecureTransport", "build_transport", "BURST_EDGES"]
