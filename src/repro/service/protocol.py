"""The control plane's one wire schema: canonical-JSON lines.

One request per line, one response per line.  ``repro-sim serve`` sends
the lines as they are over a Unix domain socket; ``repro-sim fleet
coordinator`` sends the very same lines sealed by
:class:`~repro.fleet.wire.FrameCodec` (HMAC, session binding, replay
counters) over TCP.  Both directions use *canonical JSON* — sorted keys,
compact separators — so any response carrying a report renders
byte-identically to the same report serialized anywhere else in the
codebase.  That is what makes the determinism contract checkable with a
plain string comparison: :func:`canonical_report_json` over a report
served through the dispatcher must equal :func:`canonical_report_json`
over the same cell run directly through
:class:`~repro.runner.sweep.SweepRunner` (``docs/SERVICE.md``).

Requests are ``{"op": ..., ...}`` objects; :func:`validate_request`
normalizes and type-checks them so the dispatcher never sees malformed
input.  Responses are ``{"ok": true, ...}`` on success or
``{"ok": false, "error": {"code", "message", ...}}`` on failure, with
``code`` drawn from :data:`ERROR_CODES`.  A ``queue_full`` error always
carries ``retry_after_s`` — backpressure is explicit, never a silent
drop or a hung connection.

A ``submit`` names its cell by scheme preset; a ``sweep`` carries every
cell in wire form (:func:`job_to_wire`) with its *entire*
:class:`~repro.configs.SystemConfig` tree, so fault rates, adversary
mixes and fabric overrides ship exactly.  Only registry workloads cross
the wire: a closure has no content identity to rebuild from.
"""

from __future__ import annotations

import json
from typing import Any

from repro.configs import config_from_dict, config_to_dict
from repro.runner.jobs import SweepJob, is_registry_spec
from repro.runner.serialize import report_to_dict
from repro.service.queues import DEFAULT_PRIORITY, PRIORITIES
from repro.system import SimulationReport
from repro.workloads import get_workload

#: Bump on incompatible wire changes; ``ping`` and the TCP hello echo it.
PROTOCOL_VERSION = 2

#: Longest line either side reads: a sweep carries every cell's config
#: tree and its answer every report, but a peer must still bound memory.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Scheme names a submission may request (mirrors the CLI choices).
SCHEMES = ("unsecure", "private", "shared", "cached", "dynamic", "batching", "ideal")

#: Operations a client may send.
OPS = ("submit", "sweep", "status", "cancel", "metrics", "ping")

#: Roles a TCP connector declares in its hello.
ROLES = ("worker", "client")

#: Every structured error code a response may carry.
#:
#: ``bad_request``        malformed or unparseable request object
#: ``unknown_workload``   a submitted workload is not in the registry
#: ``queue_full``         admission queue at capacity; retry_after_s attached
#: ``draining``           the dispatcher is stopping; no new admissions
#: ``unknown_job``        status/cancel for a job id the server never issued
#: ``cancelled``          the submission was cancelled before completion
#: ``deadline_exceeded``  the job's deadline elapsed before completion
#: ``execution_failed``   every execution attempt failed
#: ``retries_exhausted``  a cell outlived more worker leases than allowed
#: ``auth_failed``        TCP handshake MAC verification failed
#: ``internal``           unexpected server-side error (bug — report it)
ERROR_CODES = (
    "bad_request",
    "unknown_workload",
    "queue_full",
    "draining",
    "unknown_job",
    "cancelled",
    "deadline_exceeded",
    "execution_failed",
    "retries_exhausted",
    "auth_failed",
    "internal",
)


class ProtocolError(ValueError):
    """A message that does not conform to the wire schema."""


def encode(message: dict[str, Any]) -> bytes:
    """Render one message as a canonical-JSON line (UTF-8, trailing newline)."""
    return (json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def decode(line: bytes | str) -> dict[str, Any]:
    """Parse one received line into a message object."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("request must be a JSON object")
    return message


def canonical_report_json(report: SimulationReport | dict[str, Any]) -> str:
    """The one true JSON rendering of a report (sorted keys, compact).

    Accepts either a live :class:`SimulationReport` or its
    :func:`~repro.runner.serialize.report_to_dict` dict — both render to
    the same bytes, which is the control plane's determinism contract.
    """
    if isinstance(report, SimulationReport):
        report = report_to_dict(report)
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Cells on the wire
# ----------------------------------------------------------------------
def job_to_wire(job: SweepJob) -> dict[str, Any]:
    """Render one sweep cell for the wire; registry workloads only."""
    if not is_registry_spec(job.spec):
        raise ProtocolError(
            f"workload {job.spec.name!r} is not a registry spec; "
            "non-registry cells cannot cross the wire"
        )
    return {
        "workload": job.spec.name,
        "config": config_to_dict(job.config),
        "seed": job.seed,
        "scale": job.scale,
        "n_lanes": job.n_lanes,
    }


def _int(value: Any, minimum: int | None = None) -> bool:
    return (
        isinstance(value, int)
        and not isinstance(value, bool)
        and (minimum is None or value >= minimum)
    )


def _positive(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value > 0


def job_from_wire(cell: dict[str, Any]) -> SweepJob:
    """Rebuild the :class:`SweepJob` a wire cell describes.

    Raises :class:`KeyError` for an unknown workload and
    :class:`ProtocolError` for a malformed cell — the server maps those
    to ``unknown_workload`` / ``bad_request`` before anything is admitted.
    """
    if not isinstance(cell, dict):
        raise ProtocolError("cell must be a JSON object")
    for field in ("workload", "config", "seed", "scale", "n_lanes"):
        if field not in cell:
            raise ProtocolError(f"cell is missing required field {field!r}")
    spec = get_workload(cell["workload"])
    try:
        config = config_from_dict(cell["config"])
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"cell config does not parse: {exc}") from exc
    seed, scale, n_lanes = cell["seed"], cell["scale"], cell["n_lanes"]
    if not _int(seed):
        raise ProtocolError("cell 'seed' must be an integer")
    if not _positive(scale):
        raise ProtocolError("cell 'scale' must be a positive number")
    if not _int(n_lanes, 1):
        raise ProtocolError("cell 'n_lanes' must be a positive integer")
    return SweepJob(spec=spec, config=config, seed=seed, scale=float(scale), n_lanes=n_lanes)


# ----------------------------------------------------------------------
# Request validation
# ----------------------------------------------------------------------
_MISSING = object()


def _require(obj: dict, field: str, types: type | tuple):
    value = obj.get(field, _MISSING)
    if value is _MISSING:
        raise ProtocolError(f"missing required field {field!r}")
    if value is not None and not isinstance(value, types):
        raise ProtocolError(f"field {field!r} has wrong type {type(value).__name__}")
    return value


def _admission_fields(message: dict[str, Any]) -> dict[str, Any]:
    """The fields ``submit`` and ``sweep`` share: who, how urgent, how long."""
    deadline_s = message.get("deadline_s")
    if deadline_s is not None and not _positive(deadline_s):
        raise ProtocolError("field 'deadline_s' must be a positive number")
    client = message.get("client", "anonymous")
    if not isinstance(client, str) or not client:
        raise ProtocolError("field 'client' must be a non-empty string")
    priority = message.get("priority", DEFAULT_PRIORITY)
    if priority not in PRIORITIES:
        raise ProtocolError(
            f"unknown priority {priority!r}; choose from {', '.join(PRIORITIES)}"
        )
    return {
        "client": client,
        "priority": priority,
        "deadline_s": float(deadline_s) if deadline_s is not None else None,
    }


def validate_submit(message: dict[str, Any]) -> dict[str, Any]:
    """Normalize a ``submit`` request; raises :class:`ProtocolError`."""
    spec = _require(message, "job", dict)
    workload = _require(spec, "workload", str)
    scheme = spec.get("scheme", "batching")
    if scheme not in SCHEMES:
        raise ProtocolError(f"unknown scheme {scheme!r}; choose from {', '.join(SCHEMES)}")
    gpus = spec.get("gpus", 4)
    seed = spec.get("seed", 1)
    n_lanes = spec.get("n_lanes", 8)
    scale = spec.get("scale", 1.0)
    if not _int(gpus, 2):
        raise ProtocolError("field 'gpus' must be an integer >= 2")
    if not _int(seed):
        raise ProtocolError("field 'seed' must be an integer")
    if not _int(n_lanes, 1):
        raise ProtocolError("field 'n_lanes' must be a positive integer")
    if not _positive(scale):
        raise ProtocolError("field 'scale' must be a positive number")
    wait = message.get("wait", True)
    if not isinstance(wait, bool):
        raise ProtocolError("field 'wait' must be a boolean")
    return {
        "op": "submit",
        "wait": wait,
        **_admission_fields(message),
        "job": {
            "workload": workload,
            "scheme": scheme,
            "gpus": gpus,
            "seed": seed,
            "scale": float(scale),
            "n_lanes": n_lanes,
        },
    }


def validate_request(message: dict[str, Any]) -> dict[str, Any]:
    """Validate any request; returns the normalized form.

    A ``sweep``'s cells are checked for shape here and rebuilt (which
    resolves every workload) by the server before any cell is admitted.
    """
    op = _require(message, "op", str)
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; choose from {', '.join(OPS)}")
    if op == "submit":
        return validate_submit(message)
    if op == "sweep":
        cells = message.get("cells")
        if not isinstance(cells, list) or not cells:
            raise ProtocolError("sweep requires a non-empty 'cells' list")
        return {"op": "sweep", "cells": cells, **_admission_fields(message)}
    if op in ("status", "cancel"):
        job_id = message.get("job_id")
        if op == "cancel" and not isinstance(job_id, str):
            raise ProtocolError("cancel requires a string 'job_id'")
        if job_id is not None and not isinstance(job_id, str):
            raise ProtocolError("field 'job_id' must be a string")
        return {"op": op, "job_id": job_id}
    return {"op": op}


# ----------------------------------------------------------------------
# TCP handshake bodies
# ----------------------------------------------------------------------
def hello_body(role: str, name: str, nonce: str) -> dict[str, Any]:
    return {"op": "hello", "role": role, "name": name, "nonce": nonce, "protocol": PROTOCOL_VERSION}


def validate_hello(body: dict[str, Any]) -> dict[str, Any]:
    """Check a hello body; raises :class:`ProtocolError`."""
    if body.get("op") != "hello":
        raise ProtocolError("first frame must be a hello")
    if body.get("role") not in ROLES:
        raise ProtocolError(f"unknown role {body.get('role')!r}; choose from {', '.join(ROLES)}")
    for field in ("nonce", "name"):
        if not isinstance(body.get(field), str) or not body[field]:
            raise ProtocolError(f"hello must carry a non-empty string {field}")
    if body.get("protocol") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol mismatch: peer speaks {body.get('protocol')!r}, "
            f"this side speaks {PROTOCOL_VERSION}"
        )
    return body


def welcome_body(nonce: str) -> dict[str, Any]:
    return {"op": "welcome", "nonce": nonce, "protocol": PROTOCOL_VERSION}


# ----------------------------------------------------------------------
# Response builders
# ----------------------------------------------------------------------
def ok(**fields: Any) -> dict[str, Any]:
    """A success response."""
    return {"ok": True, **fields}


def error(code: str, message: str, **fields: Any) -> dict[str, Any]:
    """A structured failure response; ``code`` must be a known error code."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    return {"ok": False, "error": {"code": code, "message": message, **fields}}


__all__ = [
    "ERROR_CODES",
    "MAX_LINE_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "ROLES",
    "SCHEMES",
    "ProtocolError",
    "canonical_report_json",
    "decode",
    "encode",
    "error",
    "hello_body",
    "job_from_wire",
    "job_to_wire",
    "ok",
    "validate_hello",
    "validate_request",
    "validate_submit",
    "welcome_body",
]
