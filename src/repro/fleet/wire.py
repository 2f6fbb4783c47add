"""Authenticated, replay-protected NDJSON framing for the fleet wire.

The fleet crosses real network boundaries, so unlike the local Unix
socket service every frame is authenticated.  The construction mirrors
the security posture of the paper's own transport — MAC everything,
never accept a counter twice:

* **frames** are one canonical-JSON line each (sorted keys, compact
  separators) wrapping one :mod:`repro.service.protocol` message:
  ``{"b": <body>, "mac": <hex>, "n": <counter>}``;
* the **MAC** is HMAC-SHA256 under the fleet's shared secret over the
  canonical JSON of ``{"body", "ctr", "dir", "session"}`` — binding each
  frame to its position (counter), direction, and session;
* the **session id** is the concatenation of both sides' random hello
  nonces, so no frame from one connection can ever validate on another
  (cross-session replay), and the per-direction strictly-increasing
  counter rejects replays *within* a session;
* the **handshake** is two frames: the connector's ``hello`` (counter 0,
  empty session — its MAC proves knowledge of the key before any state
  is allocated) and the listener's ``welcome`` (already session-bound).
  A hello that fails verification is answered with a structured,
  unauthenticated ``auth_failed`` frame and the connection is closed.

The shared secret comes from ``--auth-key-file`` (the file's bytes,
surrounding whitespace stripped) or the ``REPRO_FLEET_KEY`` environment
variable; see :func:`load_auth_key`.

This module is transport-agnostic — it seals and opens byte lines.  The
coordinator/worker sides feed it asyncio stream lines; the blocking
client feeds it raw socket reads.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import secrets
from pathlib import Path
from typing import Any

#: Hard per-frame ceiling.  A sweep submission carries every cell's full
#: config tree and a sweep result carries every report, so frames are
#: allowed to be large — but a peer must still be able to bound memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: The shared secret must not be trivially short.
MIN_KEY_BYTES = 8

#: Direction labels folded into every MAC.
DIR_HELLO = "hello"
DIR_TO_COORDINATOR = "c2s"
DIR_FROM_COORDINATOR = "s2c"

#: Hello/auth-failure nonce length (hex-encoded on the wire).
NONCE_BYTES = 16


class FrameError(ValueError):
    """A frame that does not conform to the wire schema."""


class FleetAuthError(FrameError):
    """Authentication failure: bad key, tampered frame, or replay."""


def load_auth_key(key_file: str | Path | None = None) -> bytes:
    """Resolve the fleet's shared secret.

    Precedence: an explicit ``key_file`` (its bytes, stripped of
    surrounding whitespace so trailing newlines don't change the key),
    else the ``REPRO_FLEET_KEY`` environment variable.  Raises
    :class:`FleetAuthError` when neither is present or the key is too
    short — an unauthenticated fleet is never silently accepted.
    """
    if key_file is not None:
        try:
            key = Path(key_file).read_bytes().strip()
        except OSError as exc:
            raise FleetAuthError(f"cannot read auth key file {key_file}: {exc}") from exc
    else:
        key = os.environ.get("REPRO_FLEET_KEY", "").encode("utf-8")
        if not key:
            raise FleetAuthError(
                "no fleet auth key: pass --auth-key-file or set REPRO_FLEET_KEY"
            )
    if len(key) < MIN_KEY_BYTES:
        raise FleetAuthError(f"fleet auth key must be at least {MIN_KEY_BYTES} bytes")
    return key


def make_nonce() -> str:
    """A fresh random session nonce (hex)."""
    return secrets.token_hex(NONCE_BYTES)


def _canonical(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def compute_mac(key: bytes, session: str, direction: str, counter: int, body: dict) -> str:
    material = _canonical(
        {"body": body, "ctr": counter, "dir": direction, "session": session}
    )
    return hmac.new(key, material, hashlib.sha256).hexdigest()


class FrameCodec:
    """Seals outgoing and opens incoming frames for one connection side.

    Construct with the shared key, then :meth:`bind` the session and
    direction labels once the handshake nonces are known.  ``seal``
    assigns strictly increasing counters to outgoing frames; ``open``
    verifies the MAC in constant time and rejects any counter that does
    not advance (replay, reorder, or cross-session splice).
    """

    def __init__(self, key: bytes) -> None:
        self._key = key
        self._session: str | None = None
        self._send_dir = ""
        self._recv_dir = ""
        self._send_ctr = 0
        self._recv_ctr = 0
        self.bytes_sealed = 0
        self.bytes_opened = 0

    def bind(self, session: str, send_dir: str, recv_dir: str) -> None:
        self._session = session
        self._send_dir = send_dir
        self._recv_dir = recv_dir

    @property
    def session(self) -> str | None:
        return self._session

    # ------------------------------------------------------------------
    # Framing
    # ------------------------------------------------------------------
    def _frame(self, body: dict, session: str, direction: str, counter: int) -> bytes:
        mac = compute_mac(self._key, session, direction, counter, body)
        line = _canonical({"b": body, "mac": mac, "n": counter}) + b"\n"
        if len(line) > MAX_FRAME_BYTES:
            raise FrameError(f"frame of {len(line)} bytes exceeds MAX_FRAME_BYTES")
        self.bytes_sealed += len(line)
        return line

    def seal(self, body: dict) -> bytes:
        """One session-bound outgoing frame; counters start at 1."""
        if self._session is None:
            raise FrameError("codec is not session-bound yet (handshake incomplete)")
        self._send_ctr += 1
        return self._frame(body, self._session, self._send_dir, self._send_ctr)

    def seal_hello(self, body: dict) -> bytes:
        """The connector's first frame: counter 0, empty session."""
        return self._frame(body, "", DIR_HELLO, 0)

    def _parse(self, line: bytes) -> tuple[dict, str, int]:
        if len(line) > MAX_FRAME_BYTES:
            raise FrameError(f"frame of {len(line)} bytes exceeds MAX_FRAME_BYTES")
        self.bytes_opened += len(line)
        try:
            frame = json.loads(line)
        except (ValueError, UnicodeDecodeError) as exc:
            raise FrameError(f"frame is not valid JSON: {exc}") from exc
        if (
            not isinstance(frame, dict)
            or not isinstance(frame.get("b"), dict)
            or not isinstance(frame.get("mac"), str)
            or not isinstance(frame.get("n"), int)
            or isinstance(frame.get("n"), bool)
        ):
            raise FrameError("frame must be {b: object, mac: str, n: int}")
        return frame["b"], frame["mac"], frame["n"]

    def _verify(self, body: dict, mac: str, session: str, direction: str, counter: int) -> None:
        expected = compute_mac(self._key, session, direction, counter, body)
        if not hmac.compare_digest(expected, mac):
            raise FleetAuthError("frame MAC verification failed (wrong key or tampering)")

    def open(self, line: bytes) -> dict:
        """Verify and return one session-bound incoming frame's body."""
        if self._session is None:
            raise FrameError("codec is not session-bound yet (handshake incomplete)")
        body, mac, counter = self._parse(line)
        self._verify(body, mac, self._session, self._recv_dir, counter)
        if counter <= self._recv_ctr:
            raise FleetAuthError(
                f"replayed or reordered frame: counter {counter} <= {self._recv_ctr}"
            )
        self._recv_ctr = counter
        return body

    def open_hello(self, line: bytes) -> dict:
        """Verify a connector's hello frame (listener side)."""
        body, mac, counter = self._parse(line)
        if counter != 0:
            raise FleetAuthError(f"hello frame must carry counter 0, got {counter}")
        self._verify(body, mac, "", DIR_HELLO, counter)
        return body

    def open_welcome(self, line: bytes, my_nonce: str, send_dir: str, recv_dir: str) -> dict:
        """Verify the listener's welcome and bind the session (connector side).

        The listener's nonce travels *inside* the MAC'd welcome body, so
        the connector extracts it, binds ``my_nonce + their_nonce``, and
        only then verifies — a welcome sealed under the wrong key (or a
        spliced one from another session) fails exactly like any other
        tampered frame.
        """
        body, mac, counter = self._parse(line)
        nonce = body.get("nonce") if isinstance(body, dict) else None
        if not isinstance(nonce, str) or not nonce:
            raise FrameError("welcome frame must carry the listener's nonce")
        self.bind(my_nonce + nonce, send_dir, recv_dir)
        self._verify(body, mac, self._session, self._recv_dir, counter)
        if counter <= self._recv_ctr:
            raise FleetAuthError(
                f"replayed or reordered welcome: counter {counter} <= {self._recv_ctr}"
            )
        self._recv_ctr = counter
        return body

    # ------------------------------------------------------------------
    # Unauthenticated rejection frame
    # ------------------------------------------------------------------
    @staticmethod
    def seal_rejection(code: str, message: str) -> bytes:
        """An unauthenticated structured rejection (the peer has no valid
        key, so there is nothing to MAC with that it could verify)."""
        body = {"op": "auth_failed", "error": {"code": code, "message": message}}
        return _canonical({"b": body, "mac": "", "n": 0}) + b"\n"

    @staticmethod
    def is_rejection(line: bytes) -> dict | None:
        """Return the rejection body if ``line`` is an auth_failed frame."""
        try:
            frame = json.loads(line)
        except (ValueError, UnicodeDecodeError):
            return None
        body = frame.get("b") if isinstance(frame, dict) else None
        if isinstance(body, dict) and body.get("op") == "auth_failed":
            return body
        return None


def finish_handshake(codec: FrameCodec, line: bytes, nonce: str) -> None:
    """Connector side: check the listener's reply to our hello (sent with
    ``nonce``) and bind the session; raises :class:`FleetAuthError` on a
    rejection and ``ConnectionError`` when the listener hung up."""
    if not line:
        raise ConnectionError("coordinator closed during handshake")
    rejection = FrameCodec.is_rejection(line)
    if rejection is not None:
        message = rejection.get("error", {}).get("message", "auth failed")
        raise FleetAuthError(f"coordinator rejected handshake: {message}")
    codec.open_welcome(line, nonce, DIR_TO_COORDINATOR, DIR_FROM_COORDINATOR)


__all__ = [
    "DIR_FROM_COORDINATOR",
    "DIR_HELLO",
    "DIR_TO_COORDINATOR",
    "FleetAuthError",
    "FrameCodec",
    "FrameError",
    "MAX_FRAME_BYTES",
    "MIN_KEY_BYTES",
    "compute_mac",
    "finish_handshake",
    "load_auth_key",
    "make_nonce",
]
