"""The control plane: one dispatcher behind a Unix-socket front door.

Everything built for one-shot sweeps — the result cache, the trace
store, process-pool fan-out, telemetry — behind a socket server so many
clients can share one warm scheduler::

    repro-sim serve --socket /tmp/repro.sock          # the server
    repro-sim submit fir --scheme batching \\
        --socket /tmp/repro.sock                      # a client

Modules: :mod:`~repro.service.protocol` (the one wire schema),
:mod:`~repro.service.scheduler` (the dispatcher: admission, dedup,
trace-key units, fairness, deadlines, sweeps, drain),
:mod:`~repro.service.server` (asyncio Unix-socket front end),
:mod:`~repro.service.client` (the blocking client for either front).
The TCP front and its leased workers live in :mod:`repro.fleet`.  The
full contract is documented in ``docs/SERVICE.md``.
"""

from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.queues import DEFAULT_PRIORITY, PRIORITIES, PriorityRoundRobin
from repro.service.protocol import (
    ERROR_CODES,
    PROTOCOL_VERSION,
    ProtocolError,
    canonical_report_json,
)
from repro.service.scheduler import ServiceError, SimulationService, Ticket, job_from_spec
from repro.service.server import DEFAULT_SOCKET, SimulationServer, run_server

__all__ = [
    "DEFAULT_PRIORITY",
    "DEFAULT_SOCKET",
    "ERROR_CODES",
    "PRIORITIES",
    "PriorityRoundRobin",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "SimulationServer",
    "SimulationService",
    "Ticket",
    "canonical_report_json",
    "job_from_spec",
    "run_server",
]
