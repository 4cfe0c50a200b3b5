"""The benchmark ledger's contract with the engine, checked in tier-1.

``benchmarks/ledger/trace.py`` wraps engine functions *by name* and
``layers.py`` predicts which per-layer metrics are non-zero; a refactor
that renames a wrapped function, or makes a slow path fast, fails the
ledger's traced pass — minutes into a benchmark run.  These tests read
the ledger's files (they edit none) and fail here instead.
"""

import importlib.util
import os
import sys

LEDGER_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "ledger")


def load_trace():
    """``trace.py`` by path, as ``harness.load_trace`` does: a bare
    ``import trace`` finds the standard library's."""
    spec = importlib.util.spec_from_file_location(
        "ledger_trace_contract", os.path.join(LEDGER_DIR, "trace.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_name_the_ledger_wraps_still_exists():
    from repro.eventtime.operator import EventTimeWindowOperator
    from repro.exec.columnar import ColumnBatch
    from repro.streaming.windows import (
        SlicedTimeWindowOperator,
        TimeWindowOperator,
    )
    trace = load_trace()
    recorder = trace.Recorder()
    try:
        # raises RuntimeError naming the first wrapped function that is gone
        trace.install(recorder, late_bound=2.0)
        patched = {(owner, attr) for owner, attr, _fn in recorder._originals}
        assert len(patched) >= 40
        # the window layer: late rows are timed through the event-time
        # class's own on_tuple, slices are reduced through from_rows
        for name in ((TimeWindowOperator, "on_tuple"),
                     (SlicedTimeWindowOperator, "on_tuples"),
                     (EventTimeWindowOperator, "on_tuple"),
                     (ColumnBatch, "from_rows")):
            assert name in patched, name
    finally:
        recorder.uninstall()
    assert not recorder._originals
    assert not hasattr(TimeWindowOperator.on_tuple, "__wrapped__")


def test_plain_time_window_stays_on_the_per_row_path():
    from repro.streaming.windows import TimeWindowOperator
    assert not hasattr(TimeWindowOperator, "on_tuples"), (
        "the ledger predicts a non-zero streaming.slow_path_row_share for "
        "embedded_multi_cq's mixed phase and embedded_eventtime_late "
        "(benchmarks/ledger/layers.py PREDICTED_NONZERO): a batch-capable "
        "TimeWindowOperator makes it read 0 and the traced pass fails. "
        "Change the ledger in a benchmark-only PR first.")


def test_an_ingest_frame_crosses_the_two_functions_the_ledger_times():
    """``client.encode_us_per_event`` / ``client.wire_bytes_per_event``
    are read off ``repro.client.encode_frame`` and
    ``server.decode_us_per_event`` off ``protocol.decode_body``, each
    patched on its module: an ingest path that bound either function
    early, or framed its rows elsewhere, would make them read 0 and fail
    the traced pass.  One row-block ingest must show up in both."""
    import repro.client as client
    from repro.server import ServerThread, protocol
    trace = load_trace()
    recorder = trace.Recorder()
    rows = [(i, float(i)) for i in range(64)]
    try:
        trace.install(recorder)
        with ServerThread() as st, \
                client.connect(st.host, st.port) as conn:
            conn.execute("CREATE STREAM s (v integer, ts timestamp "
                         "CQTIME USER)")
            recorder.reset()
            assert conn.ingest("s", rows) == len(rows)
            totals = recorder.totals()
            sent = list(recorder.samples["client.wire_bytes"])
            request_id = conn._request_counter
    finally:
        recorder.uninstall()
    frame = protocol.encode_frame(
        {"id": request_id, "op": "ingest", "stream": "s"}, rows)
    assert frame[4:5] == protocol.BLOCK_BODY
    assert sent == [len(frame)]
    assert totals["client.encode"]["calls"] == 1
    assert totals["client.encode"]["self_s"] > 0
    # the ingest frame, read on the server's event loop (the client's
    # own decoder is FrameDecoder.feed, timed under another name)
    assert totals["server.decode_body"]["calls"] >= 1
    assert totals["server.decode_body"]["self_s"] > 0
    assert totals["core.ingest_batch"]["calls"] == 1


def test_a_durable_block_ingest_is_coerced_and_logged_where_timed(tmp_path):
    """``catalog.coerce_us_per_event`` and ``storage.wal_append_us_per_event``
    are read off ``Schema.coerce_rows`` and ``WriteAheadLog.append``: a
    block frame that skipped either on its way to the log — checked by
    its tags, logged as its bytes — would make them read 0 and fail the
    traced pass of the served workloads.  One frame must cross each
    once, and spend time in it."""
    import repro.client as client
    from repro.server import ServerThread
    trace = load_trace()
    recorder = trace.Recorder()
    rows = [(i, float(i)) for i in range(64)]
    try:
        trace.install(recorder)
        with ServerThread(data_dir=str(tmp_path / "node")) as st, \
                client.connect(st.host, st.port) as conn:
            conn.execute("CREATE STREAM s (v integer, ts timestamp "
                         "CQTIME USER)")
            recorder.reset()
            assert conn.ingest("s", rows) == len(rows)
            totals = recorder.totals()
    finally:
        recorder.uninstall()
    for name in ("catalog.coerce_rows", "storage.wal.append"):
        assert totals[name]["calls"] == 1, name
        assert totals[name]["self_s"] > 0, name
