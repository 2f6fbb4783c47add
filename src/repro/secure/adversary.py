"""The hostile wire: one seeded injector for link faults and attacks.

A :class:`WireInjector` sits on the data-block path of both transports
and, per wire copy, rolls one *wire event*: a link-fault verdict
(:class:`~repro.interconnect.faults.FaultVerdict`: drop, corrupt,
duplicate, delay — see :class:`~repro.configs.FaultConfig`) and an attack
(:class:`AttackKind`: ciphertext bit-flip, MAC bit-flip, whole-block
replay, counter-window reorder, truncation, cross-link splice,
forge-from-scratch — see :class:`~repro.configs.AdversaryConfig`).  The
transports turn that event into wire copies in one shared hook
(``_TransportBase._wire_copies`` in :mod:`repro.secure.channel`).

The attacker is *link-local*: it owns one (or more) directed wires and can
capture, mutate, re-inject, redirect, and fabricate traffic on them, but
it holds no keys and no pads — every mutated or fabricated block fails the
receiver's MsgMAC.  That asymmetry is the whole experiment: the secure
schemes turn all seven attacks into detections (and recover via the ARQ
machinery that also heals link faults), while the unsecure fabric
consumes attacker-controlled bytes silently.  :class:`AttackReport` keeps
the per-attack ledger the zero-undetected contract is asserted against.

Determinism is load-bearing: the sweep runner promises bit-identical
reports across serial / parallel / cached execution, so each policy draws
from its own ``random.Random`` per directed pair, seeded from
``(config seed, src, dst)`` and rolled once per wire copy in transmission
order — events never depend on cross-pair interleaving.

Quarantine interacts with the injector through :meth:`WireInjector.on_quarantine`:
once a directed link is rerouted, the attacker sitting on the physical
wire loses access to that pair's traffic and the attack policy stops
rolling for it (the fault policy keeps rolling: the new path is still a
physical link).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum

from repro.configs import AdversaryConfig, FaultConfig
from repro.interconnect.faults import FaultVerdict


class AttackKind(Enum):
    """One attacker action against a single wire copy.

    Member order is the injector's roll order, and each value names its
    :class:`~repro.configs.AdversaryConfig` rate field (``{value}_rate``).
    """

    FLIP_CIPHER = "flip_cipher"  # ciphertext bit-flip
    FLIP_MAC = "flip_mac"  # MAC-tag bit-flip
    REPLAY = "replay"  # exact re-injection of a captured block
    REORDER = "reorder"  # held back so later counters overtake
    TRUNCATE = "truncate"  # block cut short on the wire
    SPLICE = "splice"  # redirected onto another directed link
    FORGE = "forge"  # fabricated from scratch, no captured material


#: Attacks that mutate the authenticated material of an existing block —
#: a secure receiver must reject every one of them at MsgMAC verification.
TAMPER_KINDS = frozenset(
    {AttackKind.FLIP_CIPHER, AttackKind.FLIP_MAC, AttackKind.TRUNCATE,
     AttackKind.SPLICE, AttackKind.FORGE}
)

#: Attack kinds whose injected copy carries a counter the receiver may
#: legitimately see again (alien or fabricated) — never added to the
#: receiver's seen-set, so they cannot poison later legitimate traffic.
ALIEN_KINDS = frozenset({AttackKind.SPLICE, AttackKind.FORGE})


def _policy(cfg, outcomes) -> tuple:
    """``(outcome, rate)`` rows for the outcomes that can fire under ``cfg``.

    Each outcome's rate is the config field named ``{outcome.value}_rate``;
    zero-rate rows are left out, which never changes a roll's result.
    """
    rows = ((outcome, getattr(cfg, f"{outcome.value}_rate")) for outcome in outcomes)
    return tuple((outcome, rate) for outcome, rate in rows if rate > 0.0)


def _roll(rng: random.Random, policy: tuple, default):
    """One uniform draw against cumulative rate thresholds, in table order."""
    roll = rng.random()
    for outcome, rate in policy:
        if roll < rate:
            return outcome
        roll -= rate
    return default


class WireInjector:
    """Seeded per-pair wire events for every data-block wire copy."""

    __slots__ = ("fault", "adversary", "_faults", "_attacks", "_rngs", "_nodes", "_quarantined")

    def __init__(self, fault: FaultConfig, adversary: AdversaryConfig, nodes: list[int]) -> None:
        self.fault = fault
        self.adversary = adversary
        self._faults = _policy(fault, [v for v in FaultVerdict if v is not FaultVerdict.OK])
        self._attacks = _policy(adversary, AttackKind)
        self._rngs: dict[tuple[int, int], tuple[random.Random, random.Random]] = {}
        self._nodes = list(nodes)
        self._quarantined: set[tuple[int, int]] = set()

    def decide(self, src: int, dst: int) -> tuple[FaultVerdict, AttackKind | None]:
        """Roll the wire event for one (src -> dst) copy.

        The fault stream rolls first, then the attack stream.  Quarantined
        pairs are never attacked *and never rolled*: the traffic left the
        compromised wire, so the attacker cannot even observe it, and
        skipping the roll keeps the pair's attack stream a pure function of
        its pre-quarantine transmission count.  A copy a fault dropped or
        corrupted leaves nothing intact to attack, so its attack is void.
        """
        key = (src, dst)
        rngs = self._rngs.get(key)
        if rngs is None:
            # String seeding hashes through SHA-512: stable across processes
            # and Python versions, unlike builtin hash() of tuples.
            rngs = (
                random.Random(f"fault:{self.fault.seed}:{src}->{dst}"),
                random.Random(f"adv:{self.adversary.seed}:{src}->{dst}"),
            )
            self._rngs[key] = rngs
        verdict = _roll(rngs[0], self._faults, FaultVerdict.OK) if self._faults else FaultVerdict.OK
        attack = None
        if self._attacks and key not in self._quarantined:
            attack = _roll(rngs[1], self._attacks, None)
            if attack is AttackKind.SPLICE and self.splice_target(src, dst) is None:
                # Nowhere to redirect (two-node fabric): the capture
                # degrades to in-place tampering.
                attack = AttackKind.FLIP_CIPHER
            if verdict is FaultVerdict.DROP or verdict is FaultVerdict.CORRUPT:
                attack = None
        return verdict, attack

    def splice_target(self, src: int, dst: int) -> int | None:
        """Deterministic third node a spliced (src -> dst) block lands on."""
        for node in self._nodes:
            if node != src and node != dst:
                return node
        return None

    def on_quarantine(self, src: int, dst: int) -> None:
        """The (src -> dst) pair was rerouted off the attacker's wire."""
        self._quarantined.add((src, dst))

    @property
    def quarantined_pairs(self) -> set[tuple[int, int]]:
        return set(self._quarantined)


@dataclass
class AttackReport:
    """Per-attack ledger: what the adversary did and what became of it.

    Every injected attack is eventually resolved into exactly one bucket:

    * ``detected`` — the secure machinery caught it (MsgMAC reject,
      counter replay check) and, where applicable, recovered,
    * ``harmless`` — the attack fired but the system absorbed it without
      a detection being *needed* (a reordered block that still delivered
      exactly once, a replay whose original was already lost to a fault),
    * ``accepted`` — attacker-influenced data reached a consuming device
      unnoticed.  This is the silent-compromise count: the zero-undetected
      contract asserts it stays 0 on every secure scheme, and the unsecure
      fabric's nonzero count is the asymmetry being measured.
    """

    injected: dict[str, int] = field(default_factory=dict)
    detected: dict[str, int] = field(default_factory=dict)
    harmless: dict[str, int] = field(default_factory=dict)
    accepted: dict[str, int] = field(default_factory=dict)
    #: directed links quarantined after repeated detections
    quarantined: list[list[int]] = field(default_factory=list)

    @staticmethod
    def _bump(ledger: dict[str, int], kind: "AttackKind | str") -> None:
        key = kind.value if isinstance(kind, AttackKind) else str(kind)
        ledger[key] = ledger.get(key, 0) + 1

    def note_injected(self, kind: AttackKind | str) -> None:
        self._bump(self.injected, kind)

    def note_detected(self, kind: AttackKind | str) -> None:
        self._bump(self.detected, kind)

    def note_harmless(self, kind: AttackKind | str) -> None:
        self._bump(self.harmless, kind)

    def note_accepted(self, kind: AttackKind | str) -> None:
        self._bump(self.accepted, kind)

    def note_quarantined(self, src: int, dst: int) -> None:
        self.quarantined.append([src, dst])

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    @property
    def total_detected(self) -> int:
        return sum(self.detected.values())

    @property
    def total_harmless(self) -> int:
        return sum(self.harmless.values())

    @property
    def accepted_undetected(self) -> int:
        """Attacks that reached a device without anyone noticing."""
        return sum(self.accepted.values())

    @property
    def unresolved(self) -> int:
        """Injected attacks not yet settled into any outcome bucket.

        Nonzero after a completed run would mean an attack's outcome event
        never fired — the invariant monitor treats that as a violation.
        """
        return (
            self.total_injected
            - self.total_detected
            - self.total_harmless
            - self.accepted_undetected
        )

    def as_dict(self) -> dict:
        out = {name: dict(sorted(getattr(self, name).items())) for name in _LEDGERS}
        out["quarantined"] = [list(pair) for pair in self.quarantined]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "AttackReport":
        return cls(
            **{name: dict(data.get(name, {})) for name in _LEDGERS},
            quarantined=[list(pair) for pair in data.get("quarantined", [])],
        )

    def merge(self, other: "AttackReport") -> None:
        for name in _LEDGERS:
            mine = getattr(self, name)
            for key, val in getattr(other, name).items():
                mine[key] = mine.get(key, 0) + val
        self.quarantined.extend(list(pair) for pair in other.quarantined)


#: the outcome ledgers of an :class:`AttackReport`, in report order
_LEDGERS = ("injected", "detected", "harmless", "accepted")


__all__ = [
    "AttackKind",
    "WireInjector",
    "AttackReport",
    "TAMPER_KINDS",
    "ALIEN_KINDS",
]
