"""The row-block codec and its two seams (wire frame, WAL payload).

Round trips are type-exact — ``1`` does not come back as ``1.0`` or
``True`` — and decoding arbitrary damage raises the seam's typed error
(:class:`RowBlockError` from the codec, ``ProtocolError`` on the wire,
``WALError`` from ``stream_points``), never anything else.
"""

import base64
import random
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import rowblock
from repro.errors import ProtocolError, RowBlockError, WALError
from repro.server import protocol
from repro.storage.wal import LogRecord, stream_points


def exact(rows):
    """Rows as comparable text: value *and* type of every cell (``repr``
    tells ``-0.0`` from ``0.0`` and ``nan`` from everything)."""
    return [[(type(v).__name__, repr(v)) for v in row] for row in rows]


_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")]))
_ints = st.one_of(
    st.integers(min_value=-2**63, max_value=2**63 - 1),
    st.sampled_from([2**63 - 1, -2**63, 2**63, -2**63 - 1, 2**70, -2**70]))
_texts = st.one_of(st.text(alphabet="abcxyz 0123", max_size=6),
                   st.text(max_size=6),          # any code point, NUL too
                   st.sampled_from(["", "é", "日本", "a\0b", "\ud800"]))
# one strategy per column: typed, typed with NULLs, or anything at all
_columns = st.sampled_from([
    _floats, _ints, _texts, st.booleans(), st.none(),
    st.one_of(st.none(), _floats), st.one_of(st.none(), _ints),
    st.one_of(st.none(), _texts),
    st.one_of(_floats, _ints, _texts, st.booleans(), st.none()),
])


@st.composite
def row_batches(draw):
    columns = draw(st.lists(_columns, max_size=5))
    count = draw(st.integers(min_value=0, max_value=12))
    make = draw(st.sampled_from([tuple, list]))
    return [make(draw(column) for column in columns) for _ in range(count)]


class TestRoundTrip:
    @given(rows=row_batches())
    @settings(max_examples=300, deadline=None)
    def test_decode_encode_is_identity_with_equal_types(self, rows):
        block = rowblock.encode(rows)
        decoded, end = rowblock.decode(block)
        assert end == len(block)
        assert exact(decoded) == exact(rows)
        assert all(type(row) is tuple for row in decoded)
        # the same block behind a prefix, read from its offset
        again, end = rowblock.decode(b"xyz" + block, 3)
        assert end == 3 + len(block) and exact(again) == exact(rows)

    @given(rows=row_batches())
    @settings(max_examples=100, deadline=None)
    def test_packed_text_carries_times_and_rows(self, rows):
        times = [float(i) / 3 for i in range(len(rows))]
        text = rowblock.pack(times, rows)
        assert text.isascii() and isinstance(text, str)
        points = rowblock.unpack(text)
        assert [when for when, _row in points] == times
        assert exact(row for _when, row in points) == exact(rows)

    def test_typed_columns_are_used_for_what_they_fit(self):
        kinds = []
        for column in ([1.5, None], [1, None], ["a", None], [True, False],
                       [2**63], ["a\0"], [1, 2.0], [None, None]):
            block = rowblock.encode([(value,) for value in column])
            kinds.append(block[6] & 0x7f)
        assert kinds == [rowblock.F8, rowblock.I8, rowblock.STR,
                         rowblock.JSON, rowblock.JSON, rowblock.JSON,
                         rowblock.JSON, rowblock.JSON]

    def test_zero_rows_and_zero_columns(self):
        assert rowblock.decode(rowblock.encode([])) == ([], 6)
        assert rowblock.decode(rowblock.encode([(), (), ()]))[0] \
            == [(), (), ()]

    @pytest.mark.parametrize("rows, index", [
        ([5], 0), ([(1, 2), 7], 1), (["ab"], 0), ([(1,), {1}], 1),
        ([(1, 2), (1,)], 1), ([(1,), (1, 2), (1,)], 1)])
    def test_rows_that_are_not_a_table_are_refused(self, rows, index):
        with pytest.raises(RowBlockError, match=f"row {index} "):
            rowblock.encode(rows)
        with pytest.raises(RowBlockError, match=f"row {index} "):
            rowblock.pack([0.0] * len(rows), rows)


class TestSplice:
    """A decoded block is logged as the bytes it arrived in: ``pack``
    writes the times column and splices the block's columns behind it."""

    @given(rows=row_batches())
    @settings(max_examples=300, deadline=None)
    def test_the_splice_is_the_encode(self, rows):
        times = [float(i) / 3 for i in range(len(rows))]
        block, _end = rowblock.decode(rowblock.encode(rows))
        assert isinstance(block, rowblock.Block)
        assert rowblock.pack(times, block) == rowblock.pack(times, list(rows))

    @pytest.mark.parametrize("column, values", [
        # a null flag over an all-zero bitmap
        (bytes((rowblock.F8 | rowblock.NULL_FLAG, 0))
         + struct.pack("<2d", 1.5, 2.5), [1.5, 2.5]),
        # a non-zero fill under the NULL lane
        (bytes((rowblock.I8 | rowblock.NULL_FLAG, 0x40))
         + struct.pack("<2q", 7, 99), [7, None]),
        # a JSON column of plain strings
        (bytes((rowblock.JSON,)) + struct.pack("<I", 9) + b'["a","b"]',
         ["a", "b"]),
    ])
    def test_a_foreign_block_logs_the_values_it_decoded_to(self, column,
                                                           values):
        data = struct.pack("<IH", 2, 2) + column \
            + rowblock.encode([("x",), ("y",)])[6:]
        block, end = rowblock.decode(data)
        assert end == len(data)
        assert exact(block) == exact(zip(values, "xy"))
        times = [1.0, 2.0]
        spliced = rowblock.pack(times, block)
        encoded = rowblock.pack(times, list(block))
        assert spliced != encoded           # the bytes as they came
        assert exact(rowblock.unpack(spliced)) \
            == exact(rowblock.unpack(encoded))


SAMPLE = [(0.5, "192.168.0.1", 80, None, True, 2**70, "x"),
          (float("inf"), "é", -2**63, 2.5, None, 7, None),
          (-0.0, "", 2**63 - 1, None, False, 0, "zz")]


def damaged(data: bytes, seed: int, flips: int = 400):
    """Every proper prefix of ``data``, then ``flips`` seeded one-bit
    flips of it."""
    for cut in range(len(data)):
        yield f"cut at {cut}", data[:cut], True
    rng = random.Random(seed)
    for _ in range(flips):
        at, bit = rng.randrange(len(data)), rng.randrange(8)
        flipped = bytearray(data)
        flipped[at] ^= 1 << bit
        yield f"bit {bit} of byte {at}", bytes(flipped), False


class TestCorruption:
    def test_block_damage_raises_the_typed_error_or_decodes(self):
        block = rowblock.encode(SAMPLE)
        for what, data, must_fail in damaged(block, seed=21):
            try:
                rows, _end = rowblock.decode(data)
            except RowBlockError:
                continue
            assert not must_fail, f"{what}: a truncated block decoded"
            assert len(rows) <= len(data)

    def test_frame_body_damage_is_a_protocol_error(self):
        frame = protocol.encode_frame(
            {"id": 1, "op": "ingest", "stream": "s"}, SAMPLE * 6)
        body = frame[4:]
        assert body[:1] == protocol.BLOCK_BODY
        assert protocol.decode_body(body)["rows"] == SAMPLE * 6
        for what, data, must_fail in damaged(body, seed=22):
            try:
                payload = protocol.decode_body(data)
            except ProtocolError:
                continue
            assert not must_fail, f"{what}: a truncated body decoded"
            assert isinstance(payload, dict)

    def test_payload_damage_is_a_wal_error(self):
        text = rowblock.pack([1.0, 2.0, 3.0], SAMPLE)
        raw = base64.b64decode(text)
        for what, data, must_fail in damaged(raw, seed=23):
            record = LogRecord(9, 0, "stream_rows", "s",
                               payload=base64.b64encode(data).decode())
            try:
                points = stream_points(record)
            except WALError as exc:
                assert "record 9" in str(exc)
                continue
            assert not must_fail, f"{what}: a truncated payload decoded"
            assert len(points) <= len(data)
        for junk in ("not base64 !", "", 7, [1], [[1.0], [[1]], 3], {}):
            with pytest.raises(WALError):
                stream_points(LogRecord(9, 0, "stream_rows", "s",
                                        payload=junk))

    def test_trailing_bytes_are_refused_at_both_seams(self):
        frame = protocol.encode_frame({"id": 1, "op": "ingest"},
                                      [(i, "x") for i in range(20)])
        with pytest.raises(ProtocolError, match="follow"):
            protocol.decode_body(frame[4:] + b"\0")
        raw = base64.b64decode(rowblock.pack([1.0], [(1,)])) + b"\0"
        with pytest.raises(WALError):
            stream_points(LogRecord(1, 0, "stream_rows", "s",
                                    payload=base64.b64encode(raw).decode()))

    @pytest.mark.parametrize("block", [
        struct.pack("<IH", 2**32 - 1, 0),                    # rows, no columns
        struct.pack("<IHB", 2**32 - 1, 1, rowblock.F8),      # rows * 8 bytes
        struct.pack("<IHB", 2, 1, rowblock.STR) + struct.pack("<I", 2**31),
        struct.pack("<IHB", 2, 1, rowblock.JSON) + struct.pack("<I", 2**31),
        struct.pack("<IHB", 2**20, 1, rowblock.F8 | 0x80),   # null bitmap
        struct.pack("<IH", 1, 2**16 - 1) + b"\0" * 64,       # columns
    ])
    def test_a_length_larger_than_the_buffer_allocates_nothing(self, block):
        tracemalloc.start()
        try:
            with pytest.raises(RowBlockError):
                rowblock.decode(block)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_unknown_kind_and_bad_text_are_typed(self):
        for body in (struct.pack("<IHB", 1, 1, 9) + b"\0" * 8,
                     struct.pack("<IHB", 1, 1, rowblock.STR)
                     + struct.pack("<I", 1) + b"\xff",
                     struct.pack("<IHB", 1, 1, rowblock.JSON)
                     + struct.pack("<I", 2) + b"{}",
                     struct.pack("<IHB", 2, 1, rowblock.JSON)
                     + struct.pack("<I", 3) + b"[1]"):
            with pytest.raises(RowBlockError):
                rowblock.decode(body)
        with pytest.raises(RowBlockError):
            rowblock.decode(rowblock.encode(SAMPLE), -1)


class TestFrameForms:
    HEADER = {"id": 4, "op": "ingest", "stream": "s", "at": 2.5}

    def test_block_form_decodes_to_the_json_forms_dict(self):
        rows = [(i, f"k{i}", i / 2) for i in range(3)]
        block = protocol.encode_frame(self.HEADER, rows)
        plain = protocol.encode_frame(dict(self.HEADER, rows=rows))
        assert block[4:5] == protocol.BLOCK_BODY and plain[4:5] == b"{"
        from_block = protocol.decode_body(block[4:])
        from_json = protocol.decode_body(plain[4:])
        assert from_block["rows"] == rows
        assert from_json["rows"] == [list(row) for row in rows]
        del from_block["rows"], from_json["rows"]
        assert from_block == from_json == self.HEADER
        # and through the incremental decoder the client reads with
        assert protocol.FrameDecoder().feed(block)[0]["rows"] == rows

    def test_rows_however_few_ride_as_a_block(self):
        for rows in ([], [(1, 1.0)]):
            frame = protocol.encode_frame(self.HEADER, rows)
            assert frame[4:5] == protocol.BLOCK_BODY
            assert protocol.decode_body(frame[4:])["rows"] == rows

    @pytest.mark.parametrize("bad", [5, (1,), "ab"])
    def test_ragged_or_scalar_rows_are_a_protocol_error(self, bad):
        with pytest.raises(ProtocolError, match="row 2 "):
            protocol.encode_frame(self.HEADER, [(0, 0), (0, 0), bad])

    def test_header_must_be_a_json_object(self):
        block = rowblock.encode([(1,)] * 20)
        for header in (b"[1]", b"{", b"\xff"):
            body = (protocol.BLOCK_BODY + struct.pack(">I", len(header))
                    + header + block)
            with pytest.raises(ProtocolError):
                protocol.decode_body(body)
        with pytest.raises(ProtocolError):
            protocol.decode_body(protocol.BLOCK_BODY + b"\0\0")
