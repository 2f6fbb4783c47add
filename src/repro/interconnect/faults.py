"""Link-level fault vocabulary for the timing simulator.

The functional layer (:mod:`repro.secure.faults`) proves the cryptographic
machinery *detects* tampering and replay; the timing stack suffers the
same hostile channel so the performance cost of recovery becomes
measurable.  :class:`FaultVerdict` names the fate of one wire copy —
deliver intact, drop, bit-corrupt, duplicate, or delay-spike (see
:class:`~repro.configs.FaultConfig`).  The verdicts are rolled, together
with the active adversary's attacks, by the one seeded per-directed-pair
:class:`~repro.secure.adversary.WireInjector`.

When a secure sender exhausts its retransmission budget the channel raises
:class:`LinkFailureError`: a structured diagnostic that terminates the
simulation cleanly instead of letting the workload deadlock on a message
that will never arrive.
"""

from __future__ import annotations

from enum import Enum


class FaultVerdict(Enum):
    """Fate of one wire transmission.

    Member order is the injector's roll order, and each non-OK value names
    its :class:`~repro.configs.FaultConfig` rate field (``{value}_rate``).
    """

    OK = "ok"
    DROP = "drop"
    CORRUPT = "corrupt"
    DUPLICATE = "duplicate"
    DELAY = "delay"


class LinkFailureError(RuntimeError):
    """A message exhausted its retransmission budget.

    Raised by the secure channel when ``max_retries`` retransmissions of
    the same logical block all failed.  Carries the full diagnostic so the
    caller (sweep runner, experiment harness, operator) can report *which*
    link degraded and how hard recovery tried, instead of debugging a hung
    simulation.
    """

    def __init__(
        self,
        *,
        src: int,
        dst: int,
        pid: int,
        counter: int,
        attempts: int,
        first_sent: int,
        gave_up_at: int,
        fault_stats: dict | None = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.pid = pid
        self.counter = counter
        self.attempts = attempts
        self.first_sent = first_sent
        self.gave_up_at = gave_up_at
        self.fault_stats = dict(fault_stats or {})
        super().__init__(
            f"link {src}->{dst} failed: message pid={pid} undeliverable after "
            f"{attempts} transmissions (first sent cycle {first_sent}, gave up "
            f"cycle {gave_up_at})"
        )

    @property
    def diagnostic(self) -> dict:
        """Structured rendering for logs and reports."""
        return {
            "src": self.src,
            "dst": self.dst,
            "pid": self.pid,
            "counter": self.counter,
            "attempts": self.attempts,
            "first_sent": self.first_sent,
            "gave_up_at": self.gave_up_at,
            "fault_stats": dict(self.fault_stats),
        }


__all__ = ["FaultVerdict", "LinkFailureError"]
