"""Out-of-order ingest under supervision: a ``WATERMARK`` stream takes a
jittered feed, an arrival-time stream applies its disorder policy."""

import pytest

from repro import Database
from repro.errors import OutOfOrderError
from repro.faults import FaultInjector


class TestDisorderUnderFaults:
    """Watermarks, lateness and disorder policies must hold while the
    supervisor quarantines windows underneath the stream: the CQ keeps
    its window state through consecutive poison windows."""

    JITTERED = [(i, float(t)) for i, t in enumerate(
        [12, 5, 48, 33, 61, 55, 70, 68, 125, 118, 190, 182, 250, 248])]

    def pipeline(self, injector=None, watermark=True):
        db = Database(supervised=injector is not None,
                      stream_retention=3600.0, fault_injector=injector)
        if watermark:
            db.execute("CREATE STREAM s (v integer, ts timestamp "
                       "CQTIME USER) WATERMARK '30 seconds'")
            emit = " EMIT ON WATERMARK ALLOW LATENESS '0 seconds' DROP"
        else:
            db.execute("CREATE STREAM s (v integer, ts timestamp "
                       "CQTIME USER)")
            emit = ""
        db.execute_script(f"""
            CREATE STREAM agg AS SELECT count(*) c, cq_close(*)
                FROM s <VISIBLE '1 minute'>{emit};
            CREATE TABLE arch (c bigint, ts timestamp);
            CREATE CHANNEL ch FROM agg INTO arch APPEND;
        """)
        return db

    def faulted(self, watermark=True, rows=JITTERED):
        injector = FaultInjector()
        # two consecutive poison windows, each quarantined
        injector.arm("cq.window", after=1, count=2)
        db = self.pipeline(injector, watermark)
        db.insert_stream("s", rows)
        db.advance_streams(400.0)
        letters = db.supervisor.dead_letter_rows()
        assert [row[2] for row in letters] == ["poison-window"] * 2
        return db, [row[7] for row in letters]

    def test_poison_windows_under_jitter_match_fault_free(self):
        reference = self.pipeline()
        reference.insert_stream("s", self.JITTERED)
        reference.advance_streams(400.0)
        db, lost = self.faulted()
        assert lost == [120.0, 180.0]
        assert sorted(db.table_rows("arch")) == sorted(
            row for row in reference.table_rows("arch")
            if row[1] not in lost)

    def test_no_double_counting_across_poison_windows(self):
        db, lost = self.faulted()
        counted = sum(c for c, _ts in db.table_rows("arch"))
        # the rows of the two quarantined windows, [60, 120) and
        # [120, 180), are the only ones not archived
        in_lost = sum(1 for _v, t in self.JITTERED if 60.0 <= t < 180.0)
        assert counted + in_lost == db.get_stream("s").tuples_in \
            == len(self.JITTERED)
        closes = [ts for _c, ts in db.table_rows("arch")]
        assert len(closes) == len(set(closes))
        assert not set(closes) & set(lost)

    def test_late_tuple_after_poison_windows_still_dropped(self):
        db, _lost = self.faulted()
        archived = sorted(db.table_rows("arch"))
        stream = db.get_stream("s")
        late_before = stream.tracker.late_rows
        # far behind the watermark: the CQ's lateness policy drops it,
        # and no dead letter or correction follows
        assert db.insert_stream("s", [(99, 10.0)]) == 1
        assert stream.tracker.late_rows == late_before + 1
        assert sorted(db.table_rows("arch")) == archived
        assert "late-event" not in [
            row[2] for row in db.supervisor.dead_letter_rows()]

    def test_late_tuple_after_poison_windows_still_raises(self):
        db, _lost = self.faulted(watermark=False,
                                 rows=sorted(self.JITTERED,
                                             key=lambda e: e[1]))
        # disorder violations are an *inserter* error, not a subscriber
        # fault: supervision must not swallow them
        with pytest.raises(OutOfOrderError):
            db.insert_stream("s", [(99, 10.0)])
