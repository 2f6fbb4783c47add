"""The TCP side of the control plane: authenticated wire, coordinator, workers.

The dispatcher itself lives in :mod:`repro.service.scheduler`; this
package only puts it on the network:

* :mod:`~repro.fleet.wire` — the HMAC-SHA256 frame codec (session
  binding, per-direction replay counters) that seals each
  :mod:`repro.service.protocol` line on TCP;
* :mod:`~repro.fleet.coordinator` — ``repro-sim fleet coordinator``: the
  dispatcher behind a TCP listener, running units on leased workers
  (lease expiry, bounded retry, steal, at-most-once acceptance);
* :mod:`~repro.fleet.worker` — ``repro-sim fleet serve-worker``: executes
  assigned units through :func:`~repro.runner.jobs.execute_job`.

Clients use the one :class:`~repro.service.client.ServiceClient` with a
``key``.  The full contract is documented in ``docs/SERVICE.md``.
"""

from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.wire import FleetAuthError, FrameError, load_auth_key
from repro.fleet.worker import FleetWorker, run_worker

__all__ = [
    "FleetAuthError",
    "FleetCoordinator",
    "FleetWorker",
    "FrameError",
    "load_auth_key",
    "run_worker",
]
