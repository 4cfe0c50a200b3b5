"""The wire protocol: length-prefixed frames, JSON or JSON + a row block.

Every frame on the socket is a 4-byte big-endian unsigned length
followed by that many bytes of body.  A body takes one of two forms,
told apart by its first byte:

* ``{`` — a UTF-8 JSON object: every response and push, every control
  request, and an ``ingest`` from a version 1 or non-Python client
  (``rows`` as a JSON list of lists — accepted forever);
* ``0x01`` — bulk rows as typed columns: ``0x01`` · u32 big-endian
  header length · JSON header (the ``ingest`` frame without ``rows``) ·
  one row block (layout: :mod:`repro.rowblock`).  A server announcing
  ``protocol`` >= 2 in its ``hello`` answer reads it, and
  :func:`decode_body` hands back the same dict the JSON form would have
  made, ``rows`` a list of row tuples.

:func:`encode_frame` and :func:`decode_body` are the only two functions
that know either form.  Requests carry an ``id``
(per-connection, client-chosen, monotonically increasing) and an ``op``;
the server answers each request with exactly one frame echoing the
``id``.  Server-initiated frames (window/tuple pushes, shed notices,
shutdown notices) carry a ``push`` key and no ``id``, and may arrive
between any request and its response — clients must route by shape,
not by ordering.

Request ops::

    hello        {"id", "op", "client"?, "tenant"?} -> session id + version
                 (``tenant`` binds the session to a named tenant for
                 admission control; default tenant otherwise)
    execute      {"id", "op", "sql", "params"?}   -> result | subscription
    subscribe    {"id", "op", "name", "since"?}   -> subscription
    unsubscribe  {"id", "op", "sub"}              -> ok
    ingest       {"id", "op", "stream", "rows", "at"?, "sender"?, "seq"?,
                 "watermark"?}
                 -> counted ack {"accepted", "shed", "dropped",
                 "duplicate", "watermark"?}; ``(sender, seq)`` makes the
                 batch idempotent (a replay acks duplicate=len(rows) and
                 applies nothing).  ``watermark`` injects an explicit
                 event-time watermark after the rows land; event-time
                 streams ack their watermark back.
    advance      {"id", "op", "time"}             -> ok (heartbeat)
    flush        {"id", "op"}                     -> ok (drain windows)
    ping         {"id", "op"}                     -> ok
    metrics      {"id", "op"}                     -> observability scrape
    goodbye      {"id", "op"}                     -> ok, then close
    shutdown     {"id", "op"}                     -> ok, then server stops

Push frames::

    {"push": "window", "sub", "open", "close", "rows",
     "kind"?, "seq"?, "watermark"?}
    {"push": "tuple",  "sub", "time", "row", "replayed"?}

``kind`` types event-time records ("retract" / "correct" / "early";
absent means a final window), ``seq`` is a per-subscription monotone
sequence number so a client can detect shed or re-delivered frames, and
``watermark`` carries the source stream's event-time watermark at push
time.
    {"push": "shed",   "sub", "count"}            slow-client load shed
    {"push": "sub_closed", "sub", "reason"}       subscription cancelled
    {"push": "goodbye", "reason"}                 server is closing

Error responses: ``{"id": n, "ok": false, "error": {"type", "message"}}``.
An :class:`~repro.errors.AdmissionError` additionally ships
``retry_after_ms`` (number = transient, retry after that long; null =
quota exhausted, do not retry), ``tenant`` and ``reason`` so the client
rebuilds the typed error and can back off automatically.
"""

from __future__ import annotations

import json
import struct

from repro import rowblock
from repro.errors import (
    AdmissionError,
    ProtocolError,
    ReplicationGapError,
    RowBlockError,
    TruvisoError,
)

#: 2: the server reads the row-block body form (and every version 1 frame)
PROTOCOL_VERSION = 2

#: first byte of a body that carries a row block behind its JSON header
BLOCK_BODY = b"\x01"

#: refuse frames larger than this (a corrupt length prefix would
#: otherwise make the reader try to allocate gigabytes)
MAX_FRAME_BYTES = 32 * 1024 * 1024

_LENGTH = struct.Struct(">I")


def _json_default(value):
    # rows occasionally carry engine-side objects (Decimal-ish wrappers,
    # dates); degrade to their text form rather than failing the frame
    return str(value)


def encode_frame(payload: dict, rows=None) -> bytes:
    """One frame, ready for the socket: length prefix + body.  ``rows``
    ride behind ``payload`` as a row block (the block form)."""
    body = json.dumps(payload, separators=(",", ":"),
                      default=_json_default).encode("utf-8")
    if rows is not None:
        try:
            block = rowblock.encode(rows)
        except RowBlockError as exc:
            raise ProtocolError(f"rows cannot be framed: {exc}") from None
        body = b"".join((BLOCK_BODY, _LENGTH.pack(len(body)), body, block))
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return _LENGTH.pack(len(body)) + body


def decode_body(body: bytes) -> dict:
    if body[:1] != BLOCK_BODY:
        return _json_object(body)
    try:
        start = 1 + _LENGTH.size
        end = start + _LENGTH.unpack_from(body, 1)[0]
        # a header cut short by the body's end does not parse, or leaves
        # the row block starting past the end
        payload = _json_object(body[start:end])
        payload["rows"], end = rowblock.decode(body, end)
    except (struct.error, RowBlockError) as exc:
        raise ProtocolError(f"undecodable frame body: {exc}") from None
    if end != len(body):
        raise ProtocolError(
            f"{len(body) - end} bytes follow the frame's row block")
    return payload


def _json_object(text: bytes) -> dict:
    try:
        payload = json.loads(text.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame body: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(payload).__name__}")
    return payload


class FrameDecoder:
    """Incremental decoder for a byte stream of frames.

    Feed it whatever the transport produced; it yields complete frames
    and buffers partial ones.  Used by the synchronous client; the
    asyncio server reads exact lengths instead.
    """

    def __init__(self):
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list:
        self._buffer.extend(data)
        frames = []
        while True:
            if len(self._buffer) < _LENGTH.size:
                return frames
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"incoming frame claims {length} bytes "
                    f"(limit {MAX_FRAME_BYTES}); stream is corrupt")
            end = _LENGTH.size + length
            if len(self._buffer) < end:
                return frames
            body = bytes(self._buffer[_LENGTH.size:end])
            del self._buffer[:end]
            frames.append(decode_body(body))


async def read_frame(reader):
    """Read one frame from an ``asyncio.StreamReader``.

    Returns ``(payload, body length in bytes)`` — the length is what the
    byte quota charges an ingest frame — or ``None`` on clean EOF at a
    frame boundary; raises :class:`ProtocolError` on a truncated or
    oversized frame.
    """
    import asyncio

    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-frame") from None
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"incoming frame claims {length} bytes "
            f"(limit {MAX_FRAME_BYTES}); stream is corrupt")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-frame") from None
    return decode_body(body), length


# ---------------------------------------------------------------------------
# frame constructors (the single place response shapes are defined)
# ---------------------------------------------------------------------------


def ok_response(request_id, **fields) -> dict:
    frame = {"id": request_id, "ok": True}
    frame.update(fields)
    return frame


def error_response(request_id, exc: BaseException) -> dict:
    remote_type = (type(exc).__name__ if isinstance(exc, TruvisoError)
                   else "ExecutionError")
    error = {"type": remote_type,
             "message": str(exc) or type(exc).__name__}
    if isinstance(exc, AdmissionError):
        error["retry_after_ms"] = exc.retry_after_ms
        error["tenant"] = exc.tenant
        error["reason"] = exc.reason
    if isinstance(exc, ReplicationGapError):
        error["missing_from"] = exc.missing_from
        error["missing_to"] = exc.missing_to
    return {"id": request_id, "ok": False, "error": error}


def result_response(request_id, columns, rows, rowcount) -> dict:
    return ok_response(request_id, result={
        "columns": list(columns),
        "rows": [list(row) for row in rows],
        "rowcount": rowcount,
    })


def subscription_response(request_id, sub_id, name, columns,
                          kind: str) -> dict:
    return ok_response(request_id, subscription={
        "sub": sub_id, "name": name,
        "columns": list(columns), "kind": kind,
    })


def window_push(sub_id, rows, open_time, close_time, kind: str = "window",
                seq=None, watermark=None) -> dict:
    frame = {"push": "window", "sub": sub_id,
             "open": open_time, "close": close_time,
             "rows": [list(row) for row in rows]}
    if kind != "window":
        frame["kind"] = kind
    if seq is not None:
        frame["seq"] = seq
    if watermark is not None:
        frame["watermark"] = watermark
    return frame


def tuple_push(sub_id, row, event_time, replayed: bool = False) -> dict:
    frame = {"push": "tuple", "sub": sub_id,
             "time": event_time, "row": list(row)}
    if replayed:
        frame["replayed"] = True
    return frame


def shed_push(sub_id, count) -> dict:
    return {"push": "shed", "sub": sub_id, "count": count}


def sub_closed_push(sub_id, reason) -> dict:
    return {"push": "sub_closed", "sub": sub_id, "reason": reason}


def goodbye_push(reason) -> dict:
    return {"push": "goodbye", "reason": reason}
