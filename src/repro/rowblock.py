"""Row blocks: a batch of rows as typed columns, in bytes.

One codec with two users: the client's bulk ``ingest`` frame
(:mod:`repro.server.protocol`) and the WAL's ``stream_rows`` record
(:mod:`repro.storage.wal`).  Layout, little endian::

    u32 rows · u16 columns · per column:
        u8 kind (| 0x80: a null bitmap follows, ceil(rows / 8) bytes,
                 most significant bit first, set = NULL)
        F8 / I8   rows * 8 bytes (float64 / int64, what
                  ``ndarray.tobytes`` / ``frombuffer`` read and write)
        STR       u32 bytes · the strings as UTF-8, NUL between them
        JSON      u32 bytes · a JSON array of ``rows`` values

A column is typed by what it holds: all ``float`` (or NULL) is ``F8``,
all ``int`` within int64 is ``I8``, all ``str`` without a NUL in them is
``STR``.  Anything else — ``bool``, wider ints, mixed kinds, nested
values — is the JSON *fallback column*, so every value the JSON forms
carry comes back with the same type and nothing is refused for being
unusual; a value JSON itself cannot carry degrades through ``str``, as
it always has.  A block of zero columns pads one byte per row, so that
in every block the row count is bounded by the bytes behind it.

Decoding trusts nothing: every count and length is checked against the
buffer before it is used (a length larger than the buffer allocates
nothing), bytes are only ever reinterpreted as numbers, text or JSON,
and a malformed block raises :class:`~repro.errors.RowBlockError`.

A frame is decoded once: :func:`decode` returns a :class:`Block`, whose
columns ``Schema.coerce_rows`` checks by their tags and :func:`pack`
logs as the bytes they arrived in — byte for byte ``encode(rows,
times)`` for a block ``encode`` made, the same values for any other.
"""

from __future__ import annotations

import base64
import json
import struct
from typing import List, Tuple

import numpy as np

from repro.errors import RowBlockError

F8, I8, STR, JSON = 1, 2, 3, 4
NULL_FLAG = 0x80

_HEAD = struct.Struct("<IH")
_U32 = struct.Struct("<I")
_NONE = type(None)
_FLOATS, _INTS, _STRS = {float}, {int}, {str}


# -- encode --------------------------------------------------------------------

def encode(rows, times=None) -> bytes:
    """``rows`` (a list of equally long lists or tuples) as one block;
    ``times``, one a row, go in front of them as a column of their own."""
    check(rows)
    columns = list(zip(*rows))
    if times is not None:
        if len(times) != len(rows):
            raise RowBlockError(f"{len(times)} times for {len(rows)} rows")
        columns.insert(0, times)
    parts = [_HEAD.pack(len(rows), len(columns))]
    if not columns:
        parts.append(bytes(len(rows)))
    parts.extend(map(_column, columns))
    return b"".join(parts)


def pack(times, rows) -> str:
    """Base64 text of ``encode(rows, times)``, for a record that lives in
    a line of text.  A :class:`Block` is not encoded again: the times
    column is, and the bytes its columns arrived in follow it."""
    if isinstance(rows, Block) and len(times) == len(rows):
        data = b"".join((_HEAD.pack(len(rows), len(rows.tags) + 1),
                         _column(times), rows.column_bytes()))
    else:
        data = encode(rows, times)
    return base64.b64encode(data).decode("ascii")


def check(rows) -> None:
    """Refuse rows that do not lay out as columns: what ``zip`` would
    silently truncate (ragged rows) or split (a string as a row)."""
    if all(issubclass(kind, (tuple, list)) for kind in set(map(type, rows))) \
            and len(set(map(len, rows))) <= 1:
        return
    for index, row in enumerate(rows):
        if not isinstance(row, (tuple, list)):
            raise RowBlockError(
                f"row {index} is not a list or tuple of values "
                f"(got {type(row).__name__})")
        if len(row) != len(rows[0]):
            raise RowBlockError(
                f"row {index} has {len(row)} values, row 0 has "
                f"{len(rows[0])}")


def _column(values) -> bytes:
    """One column as it sits in a block: kind, null bitmap, body."""
    kinds = set(map(type, values))
    nulls = _NONE in kinds
    if nulls:
        kinds.discard(_NONE)
    kind, body = _column_body(kinds, values, nulls)
    if nulls and kind != JSON:          # JSON spells its own nulls
        return b"".join((bytes((kind | NULL_FLAG,)), np.packbits(
            [value is None for value in values]).tobytes(), body))
    return bytes((kind,)) + body


def _column_body(kinds: set, values, nulls: bool) -> Tuple[int, bytes]:
    """A column's kind and body; NULLs of a typed column (they are in its
    bitmap) are written as zero / the empty string."""
    if nulls:
        zero = "" if kinds == _STRS else 0.0 if kinds == _FLOATS else 0
        filled = [zero if value is None else value for value in values]
    else:
        filled = values
    if kinds == _FLOATS:
        return F8, struct.pack("<%dd" % len(values), *filled)
    if kinds == _INTS:
        try:
            return I8, struct.pack("<%dq" % len(values), *filled)
        except struct.error:
            pass                        # beyond int64: the fallback column
    if kinds == _STRS:
        text = "\0".join(filled)
        if text.count("\0") == len(values) - 1:
            # surrogatepass: a lone surrogate is a legal str, JSON carried it
            blob = text.encode("utf-8", "surrogatepass")
            return STR, _U32.pack(len(blob)) + blob
    text = json.dumps(values, separators=(",", ":"),
                      default=str).encode("utf-8")
    return JSON, _U32.pack(len(text)) + text


# -- decode --------------------------------------------------------------------

class Block(list):
    """A decoded block: its row tuples, and per column the decoded
    ``columns``, the kind ``tags`` (null flag included) and the
    ``(start, end)`` ``spans`` in ``source``.  Never changed in place: a
    slice, a coerced or a stamped batch is a plain list, encoded anew."""

    __slots__ = ("columns", "tags", "spans", "source")

    def __init__(self, source, count: int, columns, tags, spans):
        super().__init__(zip(*columns) if columns else [()] * count)
        self.columns, self.tags, self.spans = columns, tags, spans
        self.source = source

    def column_bytes(self) -> bytes:
        """The columns' bytes as they arrived (no header, no padding)."""
        if not self.spans:
            return b""
        return self.source[self.spans[0][0]:self.spans[-1][1]]


def decode(buf, offset: int = 0) -> Tuple[Block, int]:
    """The rows of the block at ``buf[offset:]``, a :class:`Block`, and
    the offset just past it."""
    count, columns, tags, spans, end = _columns(buf, offset)
    # bytes(): a bytearray may change before the block is logged
    return Block(bytes(buf), count, columns, tags, spans), end


def unpack(text: str) -> List[Tuple[float, tuple]]:
    """``(time, row)`` pairs of a :func:`pack` payload."""
    try:
        buf = base64.b64decode(text, validate=True)
    except (ValueError, TypeError) as exc:     # binascii.Error is one
        raise RowBlockError(f"row block is not base64 text: {exc}") from None
    count, columns, _tags, _spans, end = _columns(buf, 0)
    if end != len(buf) or not columns:
        raise RowBlockError(
            "packed row block has no time column or trailing bytes")
    rows = zip(*columns[1:]) if len(columns) > 1 else [()] * count
    return list(zip(columns[0], rows))


def _take(buf, pos: int, size: int, what: str) -> int:
    """The offset past ``size`` bytes at ``pos``, checked against the
    buffer."""
    if size > len(buf) - pos:
        raise RowBlockError(
            f"row block truncated: {what} needs {size} bytes at offset "
            f"{pos}, {len(buf) - pos} left")
    return pos + size


def _columns(buf, pos: int) -> Tuple[int, list, list, list, int]:
    if pos < 0:
        raise RowBlockError(f"negative row block offset {pos}")
    body = _take(buf, pos, _HEAD.size, "header")
    count, width = _HEAD.unpack_from(buf, pos)
    pos = body
    if count > len(buf) - pos:
        raise RowBlockError(
            f"row block claims {count} rows in {len(buf) - pos} bytes")
    if not width:
        pos = _take(buf, pos, count, "zero-column padding")
    columns, tags, spans = [], [], []
    for _ in range(width):
        begin = pos
        end = _take(buf, pos, 1, "column kind")
        tag = buf[pos]
        pos = end
        nulls = ()
        if tag & NULL_FLAG:
            end = _take(buf, pos, (count + 7) // 8, "null bitmap")
            nulls = np.flatnonzero(np.unpackbits(np.frombuffer(
                buf, np.uint8, end - pos, pos), count=count)).tolist()
            pos = end
        kind = tag & ~NULL_FLAG
        if kind == F8 or kind == I8:
            end = _take(buf, pos, 8 * count, "numeric column")
            values = struct.unpack_from(
                "<%d%s" % (count, "d" if kind == F8 else "q"), buf, pos)
        elif kind == STR or kind == JSON:
            start = _take(buf, pos, _U32.size, "column length")
            end = _take(buf, start, _U32.unpack_from(buf, pos)[0],
                        "string or JSON column")
            try:
                if kind == STR:
                    text = str(buf[start:end], "utf-8", "surrogatepass")
                    values = text.split("\0") if text or count else []
                else:
                    values = json.loads(bytes(buf[start:end]))
            except (ValueError, RecursionError) as exc:
                raise RowBlockError(f"undecodable column: {exc}") from None
            if not isinstance(values, list) or len(values) != count:
                raise RowBlockError(
                    f"column does not hold {count} strings or JSON values")
        else:
            raise RowBlockError(f"unknown column kind {kind}")
        pos = end
        if nulls:
            values = list(values)
            for index in nulls:
                values[index] = None
        columns.append(values)
        tags.append(tag)
        spans.append((begin, pos))
    return count, columns, tags, spans, pos
