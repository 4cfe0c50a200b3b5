"""One differential harness: every gear and topology against one oracle.

A CQ answers the relational query over each window however the answer
is computed, so sliced, shared, partitioned, served and recovered
execution must all converge to what the brute-force oracle of
``tests/test_cq_oracle.py`` says.  One state machine draws a
configuration — executor gear; any of one ``Database``, 1–4 inline
partitions, a loopback server and a data dir reopened between lives;
arrival or event time × lateness policy × emit mode; a same-key CQ pair,
one attached mid-stream, and an archive channel; supervision with
poison windows — and feeds each engine, and one iterator ``Database``
(the spec), the same steps.  At teardown each engine's converged output
must equal the oracle's, and its typed record sequence (where
docs/PARTITION.md promises one) and dead letters the spec's, all under
one float rule (``float_sum``).  ``REFUSALS`` lists what the engine
refuses.  The partition replay logs are pruned after every batch, not
every 64th, so a short run reaches what only a long one would.
"""

import math
import os
import random
import shutil
import tempfile
from ast import literal_eval
from collections import Counter
from dataclasses import dataclass, fields, replace
from typing import Optional

import pytest
from hypothesis import HealthCheck, event, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro import Database, client
from repro.errors import (
    FaultInjected,
    PlanningError,
    StreamingError,
    WindowError,
)
from repro.faults import FaultInjector
from repro.partition import PartitionedEngine, coordinator
from repro.replication import WalApplier, open_database
from repro.server import ServerThread, TruSQLServer
from repro.storage.wal import WriteAheadLog, record_line, record_to_wire, \
    stream_points
from repro.streaming.supervisor import CHANNEL_RETRY_LIMIT
from tests.conftest import replay
from tests.test_cq_oracle import Approx, event_oracle, float_sum

TOPOLOGIES = ["db", "partitions", "wire", "reopen"]
#: keys that land on every worker at 2, 3 and 4 partitions (and NULL)
KEYS = ["a", "b", "g", "h", None]
#: (VISIBLE, ADVANCE): hopping, tumbling, one with a gap, and one five
#: slices long, whose two stacks flip (streaming/cq.py ``SlidingMerge``)
WINDOWS = [(10.0, 5.0), (6.0, 6.0), (4.0, 10.0), (10.0, 2.0)]
POLICIES = ["DROP", "DEAD LETTER", "RETRACT", "RETRACT"]
POISONS = [None, "10 / (sum(v) - 6)", "10 / (sum(v) - 0)", "sum(10 / v)"]
PERMANENT = CHANNEL_RETRY_LIMIT + 1
#: columns holding a double ``sum`` / ``avg`` (``r`` too, for sum(10 / v))
SUM, MEAN, R = 2, 3, 6
#: arrivals before the input may end: 18 at the default step count, 300
#: under the ``deep`` profile, so its runs are that much longer
ENOUGH = settings().stateful_step_count * 3 // 2
#: objects on a data dir only the replayers answer for (``ddl``)
W_DDL = ("CREATE STREAM w (v integer, ts timestamp CQTIME USER) "
         "WATERMARK '5 seconds'")
X_SCHEMAS = {"int": "CREATE TABLE x (a integer)",
             "text": "CREATE TABLE x (a varchar(8), b integer)"}
DDL = ["x int", "x text", "drop x", "x row", "x row", "index t", "renew w",
       "w plain", "w batch"]


@dataclass(frozen=True)
class Config:
    vectorize: bool = True
    topologies: tuple = ("db",)
    partitions: int = 1
    transport: str = "inline"       # of the partitions (process: pins)
    event_time: bool = False
    bound: float = 5.0              # the stream's WATERMARK
    policy: str = "DROP"            # DROP | DEAD LETTER | RETRACT
    late_policy: Optional[str] = None   # the late reader's, if another
    emit: str = "ON WATERMARK"      # or ON CHANGE, EVERY '3 seconds'
    lateness: float = 20.0
    window: tuple = (10.0, 5.0)
    doubles: bool = False
    order_by: bool = True
    archive: bool = True
    close_first: bool = False       # where the archive's close lands
    supervised: bool = False
    poison: Optional[str] = None
    big: bool = False               # bool_or: the vectorizer refuses it
    filtered: bool = False          # WHERE v <> 2: a Filter in the split
    batch: int = 8                  # the largest batch sent

    def ddl(self):
        mark = f" WATERMARK '{self.bound} seconds'" if self.event_time else ""
        kind = "double" if self.doubles else "integer"
        return (f"CREATE STREAM s (k varchar(8), v {kind}, ts timestamp "
                f"CQTIME USER){mark} PARTITION BY k")

    def select(self, visible, policy=None, close=""):
        items = ("k, count(*) AS n, sum(v) AS total, avg(v) AS mean, "
                 "min(v) AS lo, max(v) AS hi")
        if self.poison:
            items += f", {self.poison} AS r"
        if self.big:
            items += ", bool_or(v > 3) AS big"
        if close:
            items = f"{close}, {items}" if self.close_first \
                else f"{items}, {close}"
        sql = (f"SELECT {items} FROM s <VISIBLE '{visible} seconds' "
               f"ADVANCE '{self.window[1]} seconds'>"
               f"{' WHERE v <> 2' * self.filtered} GROUP BY k")
        if self.event_time:
            sql += (f" EMIT {self.emit} ALLOW LATENESS "
                    f"'{self.lateness} seconds' {policy or self.policy}")
        return sql

    def visible(self, role):
        return self.window[0] * (2 if role == "late" else 1)

    def policy_of(self, role):
        return role == "late" and self.late_policy or self.policy

    def ddls(self):
        kind = "double" if self.doubles else "bigint"
        return [self.ddl(), "CREATE TABLE t (a integer)"] + [
            "CREATE STREAM arch AS "
            + self.select(self.window[0], close="cq_close(*) AS stime"),
            f"CREATE TABLE archive ({'stime timestamp, ' * self.close_first}"
            f"k varchar(8), n bigint, total {kind}, mean double, lo {kind}, "
            f"hi {kind}{', r double' if self.poison else ''}"
            f"{', big boolean' if self.big else ''}"
            f"{', stime timestamp' * (not self.close_first)})",
            "CREATE CHANNEL ch FROM arch INTO archive APPEND",
        ] * self.archive


@st.composite
def configs(draw):
    topologies = [t for t in TOPOLOGIES
                  if draw(st.sampled_from([True, True, True, False]))]
    topologies = topologies or ["db"]
    # event time has more to get wrong: two draws in three
    event_time = draw(st.sampled_from([True, True, False]))
    supervised = draw(st.booleans())
    poison = draw(st.sampled_from(POISONS)) if supervised else None
    time = {}
    if event_time:
        time = dict(bound=draw(st.sampled_from([2.0, 5.0])),
                    policy=draw(st.sampled_from(POLICIES)),
                    emit=draw(st.sampled_from(
                        ["ON WATERMARK", "ON CHANGE", "EVERY '3 seconds'"])),
                    lateness=draw(st.sampled_from([6.0, 20.0])),
                    late_policy=draw(st.sampled_from(POLICIES)))
    return Config(
        vectorize=draw(st.sampled_from([True, True, False])),
        topologies=tuple(topologies),
        partitions=draw(st.sampled_from([2, 3, 4, 1])), event_time=event_time,
        window=draw(st.sampled_from(WINDOWS)),
        # whether sum(v) == k over doubles hangs on the summation order
        doubles=draw(st.booleans()) and poison is None,
        order_by=draw(st.booleans()), archive=draw(st.booleans()),
        close_first=draw(st.booleans()),
        supervised=supervised, poison=poison,
        batch=draw(st.sampled_from([1, 3, 8])),
        # one config in three slices the row gear too, one in three
        # filters below the aggregate; drawn last, so the draws before
        # them stay where they were
        big=draw(st.sampled_from([True, False, False])),
        filtered=draw(st.sampled_from([True, False, False])), **time)


class Engine:
    """One topology's engine behind the calls the machine makes."""

    def __init__(self, cfg: Config, topology: str):
        self.cfg, self.topology = cfg, topology
        self.faults = FaultInjector(seed=2009)
        self.subs, self.seen, self.roles = {}, {}, {"derived:arch": "archive"}
        self.letters, self.cold = [], []    # earlier lives'; cold CQs
        self.acks, self.seqs, self.dirs = [], Counter(), []
        self.last, self.tears, self.x = None, 0, None
        self.server = self.conn = None
        self.db = self.front = self._open(self._new_dir()) \
            if topology == "reopen" else Database(
                vectorize=cfg.vectorize, disorder_policy="drop",
                fault_injector=self.faults, supervised=cfg.supervised)
        if topology == "partitions":
            self.front = PartitionedEngine(
                partitions=cfg.partitions, transport=cfg.transport,
                db=self.db)
        elif topology == "wire":
            self.server = ServerThread(db=self.db).start()
            self.front = self.conn = client.connect(self.server.host,
                                                    self.server.port)
        for ddl in cfg.ddls() + [W_DDL] * bool(self.dirs):
            self.front.execute(ddl)
        self.setup = self.db.storage.wal.head_lsn   # no cut falls inside

    def _new_dir(self):
        self.dirs.append(tempfile.mkdtemp(prefix="differential-"))
        return self.dirs[-1]

    def _open(self, path, standby=False):
        """A life on the log at ``path``: supervised from its boot on,
        as a served data dir is."""
        return open_database(
            wal_path=path, standby=standby, stream_retention=1e9,
            disorder_policy="drop", vectorize=self.cfg.vectorize,
            fault_injector=self.faults, supervised=self.cfg.supervised)

    def subscribe(self, role):
        """A subscribed CQ — none on a data dir: it ends with its life."""
        if self.topology != "reopen":
            sql = self.cfg.select(self.cfg.visible(role),
                                  policy=self.cfg.policy_of(role))
            sub = self.subs[role] = self.front.execute(
                sql + " ORDER BY k" * self.cfg.order_by)
            self.roles[getattr(sub, "cq", sub).name] = role

    def ingest(self, rows):
        ingest = getattr(self.front, "ingest_batch", None) or self.front.ingest
        if self.dirs:                   # idempotent: durable at its ack
            self.seqs["s", "c"] += 1
            self.last = rows
            ack = ingest("s", rows, sender="c", seq=self.seqs["s", "c"])
        else:
            ack = ingest("s", rows)
        self.acks.append(ack if self.conn else ack["accepted"])

    def clock(self, when, inject):
        if self.conn is not None:
            self.conn.ingest("s", [], watermark=when) if inject \
                else self.conn.advance(when)
        elif inject:
            self.front.inject_watermark("s", when)
        else:
            getattr(self.front, "advance", self.db.advance_streams)(when)
        if self.dirs:
            self.db.storage.wal.flush()     # durable, like an ingest

    def flush(self):
        getattr(self.front, "flush", self.db.flush_streams)()

    def crash(self, torn, failover, cut=0, tear="admission.dedup_persist"):
        """Kill -9: only the log survives.  ``torn``: the last batch, its
        dedup marker lost (``tear``: not persisted, or torn on its way to
        disk after the ack), re-sent to the next life.  ``failover``: that
        life is a standby that followed the log (restarted half way).
        First, every replayer must agree on the log cut ``cut`` records
        short (``replayers_agree``)."""
        if torn is not None:
            self.faults.arm(tear, count=1)
            if tear == "wal.torn_write":
                self.ingest([torn])
                self.acks.pop()
            else:
                with pytest.raises(FaultInjected):
                    self.ingest([torn])
            self.db.storage.wal.flush()     # the rows reach the disk
            self.seqs["s", "c"] -= 1        # the client re-sends them
        records = list(self.db.storage.wal.durable_records())
        replayers_agree(self, records[:max(self.setup, len(records) - cut)],
                        whole=cut == 0)
        self.letters += self._letters()
        self.faults = FaultInjector(seed=2009)
        if failover:
            records = list(self.db.storage.wal.durable_records())
            path = self._new_dir()
            for shipped in (records[:len(records) // 2], records):
                db = self._open(path, standby=True)
                db.applier.apply_batches([{"records": [
                    record_to_wire(record) for record in shipped]}])
            db.applier.promote()
        else:
            db = self._open(self.dirs[-1])
        self.db = self.front = db
        self.cold += [(cq, rung) for cq, rung in db.recovery_stats["cqs"]
                      if rung.startswith("cold")]
        # a window the batch closed flushes its channel write first: the
        # tear may fall there, before the rows, and take them along
        torn_rows = db.applier.torn_batch_rows
        assert torn_rows == (torn is not None) or tear == "wal.torn_write" \
            and torn_rows == 0
        self.tears += torn_rows
        assert db.applier.stream_tuples == sum(
            len(tail(db, name)) for name in ("s", "w")
            if db.catalog.has_relation(name))
        if torn is not None:
            self.ingest([torn])
            assert self.acks[-1] == 1
        self.check_log()

    def check_log(self):
        """What a life must make of the log it was born on: one tombstone
        per torn batch, no txid or committed rid handed out twice, every
        acked row in the tail once — and the last batch, sent again, is a
        duplicate."""
        db, records = self.db, self.db.storage.wal.records
        assert [r.kind for r in records].count("stream_abort") == self.tears
        commits = [r.txid for r in records if r.kind == "commit"]
        assert len(commits) == len(set(commits))
        done = set(commits) - {r.txid for r in records if r.kind == "abort"}
        rids = [r.rid for r in records if r.kind == "insert"
                and r.table == "t" and r.txid in done]
        assert len(rids) == len(set(rids))
        assert len(tail(db, "s")) == sum(self.acks)
        if self.last is not None:
            again = db.ingest_batch("s", self.last, sender="c",
                                    seq=self.seqs["s", "c"])
            assert (again["accepted"], again["duplicate"]) \
                == (0, len(self.last))

    def ddl(self, what, when):
        """``DDL``'s ``what`` on a data dir: objects no oracle judges, only
        ``replayers_agree``."""
        db = self.db
        if what in ("x int", "x text") and self.x is None:
            self.x = what[2:]
            db.execute(X_SCHEMAS[self.x])
        elif what == "drop x" and self.x is not None:
            db.execute("DROP TABLE x")
            self.x = None
        elif what == "x row" and self.x is not None:
            db.execute("INSERT INTO x VALUES "
                       + ("(7)" if self.x == "int" else "('seven', 7)"))
        elif what == "index t":
            db.execute("DROP INDEX IF EXISTS t_a")
            db.execute("CREATE INDEX t_a ON t (a)")
        elif what == "renew w":
            db.execute("DROP STREAM w")
            db.execute(W_DDL)
            del self.seqs["w", "w"]
        elif what == "w plain":
            db.insert_stream("w", [(1, when), (2, when - 1.0)])
        elif what == "w batch":
            self.seqs["w", "w"] += 1
            db.ingest_batch("w", [(3, when)], sender="w",
                            seq=self.seqs["w", "w"])

    def _letters(self):
        return [tuple(row) for row in self.front.query(
            "SELECT source, kind, close_time, rowcount, payload "
            "FROM repro_dead_letters").rows
        ] if self.cfg.supervised else []

    def records(self, role):
        """Every record the role's subscription has answered so far."""
        if self.front is not self.db:
            self.front.ping() if self.conn else self.front.drain()
        seen = self.seen.setdefault(role, [])
        seen += self.subs[role].poll()
        return seen

    def dead_letters(self):
        return self.letters + self._letters()

    def archive(self, db=None):
        """The archive table (``db``'s, else this engine's): one sorted row
        list per window close."""
        out = {}
        for row in map(list, (db or self.front).query(
                "SELECT * FROM archive").rows):
            close = row.pop(0 if self.cfg.close_first else -1)
            out.setdefault(close, []).append(tuple(row))
        return {close: sorted(rows, key=group) for close, rows in out.items()}

    def close(self):
        try:
            if self.conn is not None:
                self.conn.close()
                self.server.stop()
            elif self.front is not self.db:
                self.front.close()
        finally:
            for path in self.dirs:
                shutil.rmtree(path, ignore_errors=True)


def write_log(directory, records):
    """A data dir's WAL holding exactly ``records`` (one segment)."""
    os.makedirs(directory)
    with open(os.path.join(directory, "wal.000001.log"), "w",
              encoding="utf-8") as fh:
        fh.writelines(record_line(record) for record in records)
    return directory


def frames(records):
    return [{"records": [record_to_wire(r) for r in records]}]


def tail(db, name):
    return list(db.get_stream(name).replay_since(-math.inf))


def tables_of(db):
    return {name: Counter(db.table_rows(name))
            for name in ("t", "x", "archive")
            if db.catalog.has_relation(name)}


def state_of(db):
    """Everything a replayer is answerable for."""
    streams = {name: (tail(db, name), stream.watermark, stream.tuples_in)
               for name in ("s", "w") if db.catalog.has_relation(name)
               for stream in [db.get_stream(name)]}
    dedup = {key: db.admission.dedup.watermark(*key)
             for key in (("s", "c"), ("w", "w"))}
    return {"tables": tables_of(db), "streams": streams, "dedup": dedup}


def spelled_out(records):
    """What the log says, folded the slow way: which of ``t`` / ``x`` /
    ``archive`` exist, how many rows ``x`` holds since it was last
    created, each stream's tail, and the rows no marker vouches for (at
    the end of the log, or when their stream was dropped)."""
    exists, tails, held, torn = {}, {}, {}, 0
    committed = {r.txid for r in records if r.kind == "commit"} \
        - {r.txid for r in records if r.kind == "abort"}
    x_rows = 0
    for record in records:
        kind, name = record.kind, record.table
        if kind == "ddl":
            exists[name] = True
        elif kind == "ddl_obj" and record.payload["op"] == "drop":
            exists[name] = False
            x_rows = 0 if name == "x" else x_rows
            tails.pop(name, None)
            for key in [k for k in held if k[0] == name]:
                torn += len(held.pop(key))
        elif kind == "ddl_obj" and record.payload["kind"] == "stream":
            tails.setdefault(name, [])
        elif kind == "insert" and name == "x":
            x_rows += record.txid in committed
        elif kind == "stream_rows" and record.rid is None:
            tails[name] += stream_points(record)
        elif kind == "stream_rows":
            held.setdefault((name, record.rid), []).extend(
                stream_points(record))
        elif kind == "stream_dedup":
            tails[name] += held.pop((name, record.rid), [])
        elif kind == "stream_abort":
            held.pop((name, record.rid), None)
    return ({name for name in ("t", "x", "archive") if exists.get(name)},
            x_rows, tails,
            torn + sum(len(points) for points in held.values()))


def counters_of(applier):
    return (applier.stream_tuples, applier.dedup_markers,
            applier.torn_batch_rows)


def replayers_agree(engine, records, whole):
    """(a) ``open_database`` on ``records``, (b) a ``WalApplier`` fed
    them and promoted, and (c) a standby restarted half way, fed the rest
    and promoted rebuild the same engine — and (b) holds what
    ``tests.conftest.replay`` and ``spelled_out`` read off them (and, when
    ``whole``, the live engine's tables).  Then each answers the client's
    retries and the next windows alike."""
    work = tempfile.mkdtemp(prefix="replayers-")
    # supervised, as a poison window in the tail each replays is
    # quarantined, not raised
    options = dict(stream_retention=1e9, vectorize=engine.cfg.vectorize,
                   supervised=True)
    try:
        booted = open_database(
            wal_path=write_log(os.path.join(work, "a"), records), **options)
        stats = booted.recovery_stats

        fed = Database(**options)
        follower = WalApplier(fed)
        assert follower.apply_batches(frames(records)) == len(records)
        assert follower.poisoned == 0, follower.last_error
        fold = replay(WriteAheadLog(path=write_log(os.path.join(work, "f"),
                                                   records)))
        dropped = any(r.kind == "ddl_obj" and r.payload["op"] == "drop"
                      and r.table == "x" for r in records)
        for name, rows in tables_of(fed).items():
            if name != "x" or not dropped:
                assert rows == Counter(fold.get(name, [])), name
        if whole and engine.db.storage.wal.torn_records == 0:
            live = tables_of(engine.db)
            live.pop("archive", None)       # the fed one has no CQ yet
            assert {n: r for n, r in tables_of(fed).items()
                    if n != "archive"} == live
        tables, x_rows, tails, unvouched = spelled_out(records)
        assert set(tables_of(fed)) == tables
        assert sum(tables_of(fed).get("x", {}).values()) == x_rows
        assert {name: tail(fed, name) for name in tails} == tails
        held = list(follower.deferred)
        fed_cqs = follower.promote()
        assert follower.torn_batch_rows == unvouched

        path = os.path.join(work, "c")
        first = open_database(wal_path=path, standby=True, **options)
        first.applier.apply_batches(frames(records[:len(records) // 2]))
        first.close()
        again = open_database(wal_path=path, standby=True, **options)
        assert again.applier.deferred == held[:len(again.applier.deferred)]
        again.applier.apply_batches(frames(records))
        assert again.applier.poisoned == 0
        assert [record_line(r) for r in again.storage.wal.records] \
            == [record_line(r) for r in records]
        again_cqs = again.applier.promote()
        assert not again.storage.wal.muted

        want = state_of(booted)
        for other in (fed, again):
            assert state_of(other) == want
        assert fed_cqs == again_cqs == stats["cqs"]
        assert counters_of(follower) == counters_of(again.applier) == (
            stats["stream_tuples"], stats["dedup_markers"],
            stats.get("torn_batch_rows", 0))

        probe = max([0.0] + [ts for ts, _row in tail(booted, "s")]) + 25.0
        for db in (booted, fed, again):
            answers = []
            for (stream, sender), last in sorted(engine.seqs.items()):
                row = ("a", 1, probe) if stream == "s" else (9, probe)
                if db.catalog.has_relation(stream):
                    for seq in range(1, last + 2):
                        answers.append(db.ingest_batch(
                            stream, [row], sender=sender,
                            seq=seq)["accepted"])
            db.insert_stream("s", [("a", 0, probe + 20.0)])
            if db is booted:
                want = (answers, state_of(db))
                # ... on the grid a never-crashed engine closes on
                assert not engine.cfg.archive or all(
                    close % engine.cfg.window[1] == 0
                    for close in engine.archive(db))
            else:
                assert (answers, state_of(db)) == want
        for db in (booted, fed, again):
            db.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def group(row):
    return (row[0] is not None, row[0] or "")


def converged(records):
    """Per window close, the last final or correction's rows (a retract
    is followed by its correct; early output is superseded)."""
    state = {}
    for w in records:
        if w.kind in ("window", "correct"):
            state[w.close_time] = sorted(map(tuple, w.rows), key=group)
    return {close: rows for close, rows in state.items() if rows}


class Differential(RuleBasedStateMachine):
    """See the module docstring.  ``run`` takes the rules' steps too."""

    @initialize(config=configs())
    def configure(self, config):
        for field in fields(Config):
            event(f"{field.name}={getattr(config, field.name)}")
        self.start(config)

    def start(self, config):
        self.cfg = config
        self.cadence, coordinator._PRUNE_EVERY = coordinator._PRUNE_EVERY, 1
        self.engines = []
        self.arrivals = []      # the oracle's input: rows and clock times
        self.now = 0.0          # the frontier rows are drawn behind
        self.since = None       # where the late reader attached
        self.fresh = None       # the slice it attached one row into
        self.table = Counter()  # the committed rows of table t
        self.flushed = False
        for topology in config.topologies:
            self.engines.append(Engine(config, topology))
        self.engine = self.engines[0]
        # the spec: one iterator Database fed the same calls
        self.reference = Engine(replace(config, vectorize=False), "db")
        self.engines.append(self.reference)
        for engine in self.engines:
            engine.subscribe("early")

    def frontier(self):
        return max([self.now] + [a for a in self.arrivals
                                 if not isinstance(a, tuple)])

    def send(self, rows):
        for engine in self.engines:
            engine.ingest(rows)
        self.arrivals += rows
        self.now = max([self.now] + [ts for _k, _v, ts in rows])

    @precondition(lambda self: not self.flushed)
    @rule(seed=st.integers(0, 2 ** 32), size=st.integers(4, 16),
          ordered=st.booleans())
    def ingest(self, seed, size, ordered=False):
        """``size`` rows from ``seed``, sent ``batch`` at a time: each row
        ``back`` behind a frontier moving ``gap`` a row (drawn from a
        seed, not field by field, so a run's data is never all zeros).
        ``ordered`` puts every row on the frontier: each frame is in time
        order from at or after the watermark — the stream's batch path —
        unless a clock step or injection moved the watermark past it."""
        rnd, rows, when = random.Random(seed), [], self.now
        for _ in range(size):
            when += rnd.randint(0, 4)
            value = rnd.uniform(-1, 1) * 10.0 ** rnd.randint(-3, 12) \
                if self.cfg.doubles else rnd.randint(-3, 9)
            key, back = rnd.choice(KEYS), rnd.choice([0, 0, 0, 1, 3, 8, 15,
                                                      40])
            rows.append((key, value, float(when - (0 if ordered else back))))
        for start in range(0, len(rows), self.cfg.batch):
            self.send(rows[start:start + self.cfg.batch])
        self.now = when

    def move_clock(self, when, inject=False):
        for engine in self.engines:
            engine.clock(when, inject)
        self.arrivals.append(when)

    @precondition(lambda self: not self.flushed)
    @rule(step=st.integers(-6, 12), inject=st.booleans())
    def advance(self, step, inject):
        """Move the clock, then read what every subscription answered."""
        self.move_clock(self.now + step, inject)
        self.poll()

    # mid-stream: behind the early reader's rows, usually mid-slice — or
    # (``fresh``) one row into a slice no row had reached, so a late row
    # brings the late reader's count there to the early one's first seal
    @precondition(lambda self: self.since is None and self.arrivals
                  and not self.flushed)
    @rule(fresh=st.booleans(), key=st.sampled_from(KEYS))
    def attach_late(self, fresh=False, key=None):
        if fresh:
            width = math.gcd(*map(int, self.cfg.window))
            self.fresh = (self.frontier() // width + 1) * width
            self.straggle(key)
        for engine in self.engines:
            engine.subscribe("late")
        self.since = len(self.arrivals)

    @precondition(lambda self: self.fresh is not None and not self.flushed)
    @rule(key=st.sampled_from(KEYS))
    def straggle(self, key):
        """A row into the slice the late reader attached in: late, once
        the watermark passed it."""
        self.send([(key, 1.0 if self.cfg.doubles else 1, self.fresh)])

    @precondition(lambda self: self.cfg.supervised and self.cfg.archive
                  and not self.flushed)
    @rule(permanent=st.booleans())
    def arm(self, permanent):
        """A ``channel.write`` fault: once (retried) or past every retry."""
        for engine in self.engines:
            engine.faults.arm("channel.write",
                              count=PERMANENT if permanent else 1)

    @precondition(lambda self: "partitions" in self.cfg.topologies
                  and not self.flushed)
    @rule(worker=st.integers(0, 3), mid_frame=st.booleans())
    def kill_worker(self, worker, mid_frame):
        self.kill(worker, mid_frame)

    def kill(self, worker, mid_frame=False):
        """Between frames, or (``partition.worker_crash``) mid-frame."""
        for engine in self.engines:
            if engine.topology == "partitions":
                worker %= self.cfg.partitions
                if mid_frame:
                    engine.front.arm_fault("partition.worker_crash",
                                           worker=worker, seed=2009)
                else:
                    engine.front.kill_worker(worker)

    def crash(self, torn=None, failover=False, cut=0,
              tear="admission.dedup_persist"):
        for engine in self.engines:
            if engine.topology == "reopen":
                engine.crash(torn, failover, cut, tear)
            elif torn is not None:
                engine.ingest([torn])
        if torn is not None:
            self.arrivals.append(torn)
            self.now = max(self.now, torn[2])

    @precondition(lambda self: "reopen" in self.cfg.topologies
                  and not self.flushed)
    @rule(torn=st.booleans(), failover=st.booleans(), gap=st.integers(0, 4),
          key=st.sampled_from(KEYS), value=st.integers(-3, 9),
          cut=st.sampled_from([0, 0, 1, 3, 10, 40]),
          tear=st.sampled_from(["admission.dedup_persist", "wal.torn_write"]))
    def crash_between_lives(self, torn, failover, gap, key, value, cut, tear):
        when = self.frontier() + gap        # on time, whatever the clock
        row = (key, float(value) if self.cfg.doubles else value, when)
        self.crash(row if torn else None, failover, cut, tear)

    @precondition(lambda self: "reopen" in self.cfg.topologies
                  and not self.flushed)
    @rule(values=st.lists(st.integers(0, 4), min_size=1, max_size=3),
          kind=st.sampled_from(["insert", "insert", "delete", "update"]),
          ending=st.sampled_from(["COMMIT", "COMMIT", "ROLLBACK",
                                  "flush fails", "in flight"]))
    def write(self, values, kind, ending):
        """One transaction on table ``t``: committed, rolled back, its
        commit's flush failing, or (inserts) still open at the next crash
        — on a data dir; the other engines roll those back."""
        listed = ", ".join(map(str, values))
        statement = {
            "insert": "INSERT INTO t VALUES "
                      + ", ".join(f"({value})" for value in values),
            "delete": f"DELETE FROM t WHERE a IN ({listed})",
            "update": f"UPDATE t SET a = a + 5 WHERE a IN ({listed})"}[kind]
        for engine in self.engines:
            durable = engine.topology == "reopen"
            if durable and ending == "in flight" and kind == "insert":
                txn = engine.db.txn_manager.begin()
                for value in values:
                    engine.db.get_table("t").insert(txn, (value,))
                continue
            engine.front.execute("BEGIN")
            engine.front.execute(statement)
            if durable and ending == "flush fails":
                engine.faults.arm("disk.write_page", count=1)
                with pytest.raises(FaultInjected):
                    engine.front.execute("COMMIT")
            else:
                engine.front.execute("ROLLBACK" if ending != "COMMIT"
                                     else "COMMIT")
        for value in sorted(set(values)) if ending == "COMMIT" else ():
            if kind == "insert":
                self.table.update([value] * values.count(value))
            else:
                self.table[value + 5] += self.table[value] * (kind == "update")
                self.table[value] = 0

    @precondition(lambda self: "reopen" in self.cfg.topologies
                  and not self.flushed)
    @rule(what=st.sampled_from(DDL))
    def ddl(self, what):
        for engine in self.engines:
            if engine.topology == "reopen":
                engine.ddl(what, self.frontier())

    # end of input, once there is some; the run's last steps only read
    @precondition(lambda self: not self.flushed
                  and len(self.arrivals) > ENOUGH)
    @rule()
    def end(self):
        for engine in self.engines:
            engine.flush()
        self.flushed = True

    @precondition(lambda self: self.flushed)
    @rule()
    def poll(self):
        for engine in self.engines:
            for role in engine.subs:
                engine.records(role)

    # -- what must hold -----------------------------------------------------

    def teardown(self):
        try:
            if hasattr(self, "reference"):     # it started
                if not self.flushed:
                    self.end()
                self.check()
        finally:
            self.close()

    def close(self):
        for engine in getattr(self, "engines", ()):
            engine.close()
        if hasattr(self, "cadence"):
            coordinator._PRUNE_EVERY = self.cadence

    def check(self):
        spec = {role: self.reference.records(role)
                for role in self.reference.subs}
        for engine in self.engines[:-1]:
            self.check_engine(engine, spec)

    def check_engine(self, engine, spec):
        cfg, where = self.cfg, engine.topology
        assert Counter(a for (a,) in engine.front.query(
            "SELECT a FROM t").rows) == +self.table, f"{where}: table t"
        got = {role: engine.records(role) for role in engine.subs}
        letters, unsure = engine.dead_letters(), {}
        for role in list(got) + ["archive"] * cfg.archive:
            want, reopened = self.expected(role)
            # a failed poison re-open keeps the last good output
            unsure[role] = reopened if cfg.poison else set()
            if role == "archive":
                have = engine.archive()
                unsure[role] |= {close for _source, kind, close, *_held
                                 in letters if kind == "channel-write"}
            else:
                have = converged(got[role])
            for close in unsure[role]:
                have.pop(close, None)
                want.pop(close, None)
            assert have == want, f"{where} {role}: converged output"
        if where == "reopen":
            return
        # docs/PARTITION.md: partitions interleave a late row's pair with
        # the same frame's closes by frame, so only batch size 1 pins it
        # (and which evaluations of a re-opened poison window fail)
        framed = set(unsure) if where == "partitions" and cfg.event_time \
            and cfg.batch > 1 and "RETRACT" in (cfg.policy, cfg.late_policy) \
            else set()
        for role in set(got) - framed:
            assert self.sequence(got[role]) == self.loosened(spec[role]), \
                f"{where} {role}: record sequence"
        sent = self.sent()
        named = []
        for e in (engine, self.reference):
            named.append([])
            for source, kind, close, rowcount, payload in e.dead_letters():
                role = e.roles.get(source, source)
                if role in framed and close in unsure[role]:
                    continue
                if kind == "channel-write":
                    # the archive rows it could not write: their sums
                    # are the spec's under the float rule
                    payload = [self.loose(sent, close - cfg.window[0], close,
                                          row, at=int(cfg.close_first))
                               if e is self.reference else row
                               for row in literal_eval(payload)]
                named[-1].append((role, kind, close, rowcount, payload))
        mine, theirs = named
        for letter in mine:
            assert letter in theirs, f"{where}: dead letter {letter}"
            theirs.remove(letter)
        assert not theirs, f"{where}: dead letters {theirs}"

    def expected(self, role):
        """What the oracle says the role's windows converge to, and the
        closes a late row re-opened."""
        cfg = self.cfg
        windows, reopened = event_oracle(
            self.arrivals, cfg.visible(role), cfg.window[1],
            bound=cfg.bound if cfg.event_time else 0.0,
            lateness=cfg.lateness if cfg.event_time
            and cfg.policy_of(role) == "RETRACT" else None,
            since=self.since if role == "late" else 0)
        out = {}
        for close, groups in windows.items():
            if cfg.filtered:
                groups = {key: kept for key, values in groups.items()
                          for kept in [[v for v in values if v != 2]]
                          if kept}
            rows = [self.row(key, values) for key, values in groups.items()]
            # a window of none is no window; one of a None is poison
            if rows and None not in rows:
                out[close] = sorted(rows, key=group)
        return out, reopened

    def row(self, key, values):
        cfg = self.cfg
        total = sum(values)
        row = (key, len(values),
               float_sum(values) if cfg.doubles else total,
               float_sum(values, mean=True) if cfg.doubles
               else total / len(values), min(values), max(values))
        if cfg.poison == "sum(10 / v)":
            if 0 in values:
                return None
            row += (float_sum([10 / v for v in values]),)
        elif cfg.poison:
            k = int(cfg.poison.rstrip(")").rsplit("- ", 1)[1])
            if total == k:
                return None
            row += (10 / (total - k),)
        if cfg.big:
            row += (any(v > 3 for v in values),)
        return row

    def sequence(self, records):
        return [(w.kind, w.open_time, w.close_time,
                 [tuple(row) for row in w.rows] if self.cfg.order_by
                 else sorted(map(tuple, w.rows), key=group))
                for w in records]

    def sent(self):
        """Per key, the (value, event time) of every row sent."""
        sent = {}
        for arrival in self.arrivals:
            if isinstance(arrival, tuple):
                sent.setdefault(arrival[0], []).append(arrival[1:])
        return sent

    def loosened(self, records):
        """The spec's sequence, each row :meth:`loose`."""
        sent = self.sent()
        return [(kind, open_time, close,
                 [self.loose(sent, open_time, close, row) for row in rows])
                for kind, open_time, close, rows in self.sequence(records)]

    def loose(self, sent, open_time, close, row, at=0):
        """``row`` (its key at ``at``) with each double sum within the
        float rule's bound — twice it, as both engines round — over
        every value its key was sent with an event time inside
        ``[open_time, close)``: a superset of the row's."""
        row = list(row)
        values = [v for v, ts in sent[row[at]] if open_time <= ts < close]
        if self.cfg.doubles:
            bound = float_sum(values, slack=2.0).bound
            row[at + SUM] = Approx(row[at + SUM], bound)
            row[at + MEAN] = Approx(row[at + MEAN], bound / row[at + 1])
        if self.cfg.poison == "sum(10 / v)":
            row[at + R] = Approx(row[at + R], float_sum(
                [10 / v for v in values if v], slack=2.0).bound)
        return tuple(row)


#: the loaded profile sets the depth (tests/conftest.py): 400 runs under
#: ``repro``, 4000 far longer ones under ``deep`` (``make differential``)
TestDifferential = Differential.TestCase
TestDifferential.settings = settings(
    max_examples=4 * settings().max_examples, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


def run(config, *steps):
    """An explicit step program — ``("send", rows)``, ``("move_clock",
    t)``, ``("crash", torn row, failover, cut, tear)``, or any other
    rule's name and arguments — then the end of input and the checks;
    returns the machine.  No boot may go cold."""
    machine = Differential()
    machine.start(config)
    try:
        for name, *args in steps:
            getattr(machine, name)(*args)
        machine.end()
        assert not any(e.cold for e in machine.engines), "cold boot"
        machine.check()
        return machine
    finally:
        machine.close()


def _sql(statement, **stream):
    """``statement`` on an engine holding ``Config(**stream)``'s stream."""
    def attempt(_tmp):
        db = Database()
        db.execute(Config(**stream).ddl())
        db.execute(statement)
    return attempt


#: every combination the engine refuses, and how — the one list of them,
#: which later work shrinks (ROADMAP item 2)
REFUSALS = {
    "partitions with a data dir": (
        lambda tmp: TruSQLServer(partitions=2, data_dir=tmp), ValueError,
        "incompatible with a data dir"),
    "partitions with a standby": (
        lambda tmp: TruSQLServer(partitions=2, standby_of="127.0.0.1:1"),
        ValueError, "with standby mode"),
    "a standby handed an engine": (
        lambda tmp: TruSQLServer(db=Database(), standby_of="127.0.0.1:1"),
        ValueError, "takes no db"),
    "log options without a log directory": (
        lambda tmp: open_database(wal_segment_bytes=1024), ValueError,
        "need a log"),
    "a watermark on a SYSTEM-time stream": (_sql(
        "CREATE STREAM w (v integer, ts timestamp CQTIME SYSTEM) "
        "WATERMARK '5 seconds'"), StreamingError, "SYSTEM-time"),
    "an UNBOUNDED event-time window": (_sql(
        "SELECT count(*) FROM s <VISIBLE UNBOUNDED ADVANCE '5 seconds'>",
        event_time=True), WindowError, "finite VISIBLE"),
    "EMIT on an arrival-time stream": (_sql(
        "SELECT count(*) FROM s <VISIBLE '10 seconds'> EMIT ON WATERMARK"),
        PlanningError, "EMIT"),
    "EMIT without a window": (_sql(
        "SELECT k FROM s EMIT ON WATERMARK", event_time=True),
        PlanningError, "EMIT"),
}


def refused(combination, tmp=None):
    attempt, error, message = REFUSALS[combination]
    with pytest.raises(error, match=message):
        attempt(tmp)


@pytest.mark.parametrize("combination", sorted(REFUSALS))
def test_refused_combination_raises_its_documented_error(combination,
                                                         tmp_path):
    refused(combination, str(tmp_path))


class TestFound:
    """Step programs for what this machine found, each failing before
    its fix: three ways a rebuilt CQ took a route the live one never
    takes, a window archived twice, three ways the partition replay log
    forgot what its pruned prefix implied, and two merges that saw a
    respawned worker's later partials — and two poison windows the batch
    gear and the partitions lettered as partials, not rows."""

    def test_event_time_boot_judges_rows_by_the_watermark_as_logged(self):
        run(Config(topologies=("reopen",), event_time=True, bound=2.0),
            ("send", [("a", 1, 0.0), ("a", 1, 3.0)]), ("crash",))

    def test_a_stream_younger_than_the_replay_window_boots_warm(self):
        run(Config(topologies=("reopen",)),
            ("send", [("a", 1, 22.0), ("a", 1, 27.0)]), ("crash",))

    def test_poison_windows_in_the_replayed_tail_are_quarantined(self):
        """Two in a row, each quarantined as it was live."""
        run(Config(topologies=("reopen",), supervised=True,
                   poison="10 / (sum(v) - 0)", window=(6.0, 6.0)),
            ("send", [("a", 1, 1.0), ("a", 0, 7.0), ("a", 0, 13.0),
                      ("a", 1, 19.0)]), ("crash",))

    def test_a_late_row_before_the_first_close_is_archived_once(self):
        """The grid never starts behind the watermark, so the window the
        row at 2 re-opens is sealed: its correction is its only output,
        not followed by a final the APPEND archive would hold again."""
        machine = run(Config(event_time=True, policy="RETRACT"),
                      ("send", [("a", 1, float(t))
                                for t in (5, 8, 10, 2, 8)]))
        assert [w.kind for w in machine.engine.seen["early"]
                if w.close_time == 5.0] == ["correct"]

    #: one inline partition, its log pruned after every batch, the late
    #: reader attached first, three batches, then worker 0 killed
    KILLED = Config(topologies=("partitions",), partitions=1,
                    window=(4.0, 10.0), batch=8)

    def killed(self, config, *seeds):
        run(config, ("attach_late",),
            *[("ingest", seed, size) for seed, size in seeds], ("kill", 0))

    def test_a_pruned_log_keeps_the_rows_of_an_unmerged_boundary(self):
        self.killed(self.KILLED, (1013818839, 5), (3097603021, 11),
                    (665600858, 5))

    def test_a_pruned_log_keeps_the_watermark_its_frames_were_judged_by(
            self):
        self.killed(replace(self.KILLED, event_time=True),
                    (4145683452, 4), (155376646, 7), (72501884, 16))

    def test_a_replayed_final_never_replaces_an_absorbed_one(self):
        self.killed(replace(self.KILLED, event_time=True, bound=2.0,
                            policy="RETRACT", late_policy="DROP",
                            emit="ON CHANGE"),
                    (2454155475, 10), (63704871, 11), (3493188185, 8))

    def test_a_correction_never_reaches_the_final_it_corrects(self):
        """The send to a killed worker fails, so its frame is answered
        at once: the late row's correction partial arrived before the
        final it corrects was merged, and was merged as that final."""
        run(Config(topologies=("partitions",), partitions=2,
                   event_time=True, bound=2.0, policy="RETRACT",
                   lateness=6.0, archive=False, batch=1),
            ("ingest", 2330497980, 4), ("ingest", 121568, 12),
            ("ingest", 141, 10), ("kill", 0), ("ingest", 531, 12))

    def test_a_respawned_frame_waits_for_what_earlier_acks_proved(self):
        """Two late rows re-open window 5, one per worker; the second
        one's worker was killed, so its frame is answered at once: the
        first correction still merges without the second row."""
        run(Config(topologies=("partitions",), partitions=2,
                   event_time=True, bound=2.0, policy="RETRACT",
                   lateness=6.0, archive=False, batch=1),
            ("advance", 7, False), ("kill", 0), ("ingest", 3312678, 8))

    #: a window poisoned by group b (v = 0, so sum(10 / v) fails in its
    #: slice) or by group a's total (7), on the iterator spec, the batch
    #: gear and two inline partitions; every gear letters the window's
    #: rows (docs/FAULTS.md), and the machine compares whole letters
    LETTERED = Config(topologies=("db", "partitions"), partitions=2,
                      supervised=True, window=(60.0, 60.0))

    def lettered(self, poison):
        rows = [("a", 5, 1.0), ("b", 0, 2.0), ("a", 2, 3.0)]
        machine = run(replace(self.LETTERED, poison=poison),
                      ("send", rows), ("move_clock", 120.0))
        letters = machine.reference.dead_letters()
        assert {letter[1:] for letter in letters} \
            == {("poison-window", 60.0, 3, repr(rows))}
        assert len(letters) == 2        # the subscription and the archive

    def test_a_poison_slice_letters_the_window_rows_in_every_gear(self):
        self.lettered("sum(10 / v)")

    def test_a_poison_merge_letters_the_window_rows_in_every_gear(self):
        self.lettered("10 / (sum(v) - 7)")
