"""Worker↔coordinator exchange framing.

Same length-prefixed framing as the replication/server protocol
(:mod:`repro.server.protocol`): a 4-byte big-endian length followed by
the body, with the same 32 MiB frame cap.  The body is a pickled dict
rather than JSON — partial aggregate states carry tuples and numpy
scalars, and JSON framing was measured (PR 3/X3) to both lose dtypes
and dominate small-batch cost.

Both transports speak it: a subprocess worker over loopback TCP, an
inline one on a thread over a socketpair.

Trust.  The listener is loopback-bound, but any local process can
connect to it (a socketpair has no listener and needs no greeting).
So a connection is authenticated *before anything it sent is
decoded* — a worker opens with a fixed-length raw greeting
(:func:`hello`: its id and the nonce it got over argv), compared in
constant time and answered, on a mismatch, by closing the socket — and
every frame, both ways, is decoded by an unpickler that refuses every
global: messages are dicts, lists, tuples, sets, strings and numbers
(``normalize_partial`` sees to partials), so a frame naming a class or
function raises :class:`ProtocolError` and runs nothing.

Writes are whole responses: everything one side has to say goes out in
**one** ``sendall`` (:func:`send_frames`), and both ends of a TCP
socket set ``TCP_NODELAY`` (:func:`no_delay`; a socketpair has no
Nagle).  Two small writes in a row on a default TCP socket is the
Nagle / delayed-ACK trap — the second write waits ~40 ms for the
peer's ACK of the first — and a worker response used to be exactly
that (partials, then the ack).
"""

from __future__ import annotations

import io
import pickle
import socket
import struct

from repro.errors import ProtocolError, WorkerDiedError

MAX_FRAME_BYTES = 32 * 1024 * 1024

_LENGTH = struct.Struct(">I")


def encode_frame(message: dict) -> bytes:
    """One framed message: length prefix + pickled body."""
    body = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"partition frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return _LENGTH.pack(len(body)) + body


class _DataUnpickler(pickle.Unpickler):
    """Plain data only: no frame gets to import or call anything."""

    def find_class(self, module, name):
        raise ProtocolError(
            f"partition frame names the global {module}.{name}; "
            "frames carry plain data only")


def decode_body(body: bytes) -> dict:
    message = _DataUnpickler(io.BytesIO(body)).load()
    if not isinstance(message, dict):
        raise ProtocolError("partition frame body must be a dict")
    return message


def no_delay(sock) -> None:
    """Turn Nagle off: a frame is written whole and is wanted now."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def hello(worker_id: int, nonce: str) -> bytes:
    """A worker's greeting: raw bytes of a length both ends know, read
    at that length and compared in constant time, never decoded."""
    return _LENGTH.pack(worker_id) + nonce.encode("ascii")


def send_frame(sock, message: dict) -> None:
    send_frames(sock, (message,))


def send_frames(sock, messages) -> None:
    """Write every message of one response with a single ``sendall``,
    in order (a worker's partials precede its ack)."""
    data = b"".join([encode_frame(message) for message in messages])
    try:
        sock.sendall(data)
    except OSError as exc:
        raise WorkerDiedError(f"send failed: {exc}") from exc


def recv_frame(sock) -> dict:
    """Read exactly one frame; raises WorkerDiedError on EOF/socket
    errors (the peer process died)."""
    header = _recv_exact(sock, _LENGTH.size)
    (length,) = _LENGTH.unpack_from(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"incoming partition frame claims {length} bytes "
            f"(limit {MAX_FRAME_BYTES}); stream is corrupt")
    return decode_body(_recv_exact(sock, length))


def _recv_exact(sock, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except OSError as exc:
            raise WorkerDiedError(f"recv failed: {exc}") from exc
        if not chunk:
            raise WorkerDiedError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
