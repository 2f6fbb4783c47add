"""The control plane's one blocking client, for either front.

A thin blocking wrapper over the line protocol: connect, send one
request line, read one response line.  Given a socket path it talks to
``repro-sim serve`` over a Unix socket; given ``key`` it dials a
``host:port`` fleet coordinator, performs the authenticated hello, and
seals every line with :class:`~repro.fleet.wire.FrameCodec` (imported
only then, so the Unix path never loads the TCP/HMAC modules).  Used by
the ``submit`` / ``status`` / ``cancel`` subcommands, by
:class:`~repro.runner.sweep.SweepRunner` when it has a ``fleet_addr``,
by the CI smoke and by the end-to-end tests.  The client never
interprets reports — it hands back the decoded response objects so
callers can render the canonical JSON themselves
(:func:`repro.service.protocol.canonical_report_json`).
"""

from __future__ import annotations

import socket
from pathlib import Path
from typing import Any, Sequence

from repro.runner.jobs import SweepJob
from repro.service import protocol


class ServiceUnavailable(ConnectionError):
    """No usable session: the server is absent, refused, or hung up.

    ``code`` is ``auth_failed`` when a fleet coordinator rejected the key
    (or a response failed verification), ``unavailable`` otherwise.
    """

    def __init__(self, message: str, code: str = "unavailable") -> None:
        super().__init__(message)
        self.code = code


def parse_addr(addr: str) -> tuple[str, int]:
    """``host:port`` (or ``:port`` for localhost) -> ``(host, port)``."""
    host, sep, port_text = addr.rpartition(":")
    if not sep or not port_text.isdigit():
        raise ValueError(f"fleet address {addr!r} must look like host:port")
    return (host or "127.0.0.1", int(port_text))


class ServiceClient:
    """One blocking connection to a running dispatcher.

    ``address`` is a Unix socket path, or — with ``key`` — a fleet
    coordinator's ``host:port`` (or ``(host, port)``); ``name`` is the
    client name its hello declares.  ``timeout`` bounds every socket
    operation (None waits as long as a sweep needs).
    """

    def __init__(
        self,
        address: str | Path | tuple[str, int],
        timeout: float | None = None,
        *,
        key: bytes | None = None,
        name: str = "repro-sim-client",
    ) -> None:
        self._buffer = b""
        self._codec = None
        try:
            if key is None:
                self.address = str(address)
                self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                self._sock.settimeout(timeout)
                self._sock.connect(self.address)
            else:
                host, port = parse_addr(address) if isinstance(address, str) else address
                self.address = f"{host}:{port}"
                self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ServiceUnavailable(
                f"no simulation service at {address} ({exc}); is it running?"
            ) from exc
        if key is not None:
            self._handshake(key, name)

    def _handshake(self, key: bytes, name: str) -> None:
        from repro.fleet.wire import FrameCodec, FrameError, finish_handshake, make_nonce

        codec = FrameCodec(key)
        nonce = make_nonce()
        try:
            self._sock.sendall(codec.seal_hello(protocol.hello_body("client", name, nonce)))
            finish_handshake(codec, self._read_line(), nonce)
        except FrameError as exc:
            self.close()
            raise ServiceUnavailable(f"authentication failed: {exc}", "auth_failed") from exc
        except OSError:
            self.close()
            raise
        self._codec = codec

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        """Send one request line and block for its response line."""
        codec = self._codec
        try:
            self._sock.sendall(codec.seal(message) if codec else protocol.encode(message))
            line = self._read_line()
        except OSError as exc:
            self.close()
            raise ServiceUnavailable(f"connection to {self.address} lost: {exc}") from exc
        if codec is None:
            return protocol.decode(line)
        try:
            return codec.open(line)
        except ValueError as exc:  # FrameError: tampered, replayed or garbled
            self.close()
            raise ServiceUnavailable(f"response failed verification: {exc}", "auth_failed") from exc

    def _read_line(self) -> bytes:
        while b"\n" not in self._buffer:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ServiceUnavailable(f"service at {self.address} closed the connection")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def ping(self) -> dict[str, Any]:
        return self.request({"op": "ping"})

    def submit(
        self,
        workload: str,
        *,
        scheme: str = "batching",
        gpus: int = 4,
        seed: int = 1,
        scale: float = 1.0,
        n_lanes: int = 8,
        client: str = "anonymous",
        wait: bool = True,
        priority: str = "normal",
        deadline_s: float | None = None,
    ) -> dict[str, Any]:
        """Submit one cell; with ``wait`` the response carries the report."""
        return self.request(
            {
                "op": "submit",
                "client": client,
                "wait": wait,
                "priority": priority,
                "deadline_s": deadline_s,
                "job": {
                    "workload": workload,
                    "scheme": scheme,
                    "gpus": gpus,
                    "seed": seed,
                    "scale": scale,
                    "n_lanes": n_lanes,
                },
            }
        )

    def sweep(self, jobs: Sequence[SweepJob]) -> dict[str, Any]:
        """Run ``jobs`` (full config trees); ``reports`` come back in input order."""
        return self.request({"op": "sweep", "cells": [protocol.job_to_wire(job) for job in jobs]})

    def status(self, job_id: str | None = None) -> dict[str, Any]:
        return self.request({"op": "status", "job_id": job_id})

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self.request({"op": "cancel", "job_id": job_id})

    def metrics(self) -> dict[str, Any]:
        return self.request({"op": "metrics"})


__all__ = ["ServiceClient", "ServiceUnavailable", "parse_addr"]
