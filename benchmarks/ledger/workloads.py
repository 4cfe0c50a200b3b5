"""The ledger's seeded generator and its five named workloads.

Every workload follows the same load shape (see README.md): events come
from ``SecurityEventGenerator`` seeded from ``--seed`` and are generated
*before* timing starts; closed-loop phases run in a fresh
engine/server/data-dir after one discarded warm-up of 10% of the events;
open-loop phases send on a fixed schedule and time every frame from when
it was **due**.  Sizes below are for ``--seconds 15`` and scale linearly
with ``--seconds``; the seed and every size are echoed into the output.

Each workload function takes a :class:`Run`, drives the engine through
its public API only, checks the outputs against a reference, and leaves
its native end-to-end metrics in ``run.e2e`` (untraced pass) or its
per-layer metrics in ``run.layers`` (traced pass).
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import random
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import harness
from harness import (
    Background,
    Server,
    chunked,
    clock,
    closed_loop,
    median,
    paced_feed,
    percentile,
    undisturbed,
)
from layers import (
    attributed_share,
    batch_operator_share,
    client_tail_metrics,
    client_wire_metrics,
    engine_layer_metrics,
    overhead_pct,
    partition_layer_metrics,
    query_layer_metrics,
    queue_metrics,
)

#: ``--seconds`` the sizes below are stated for
NOMINAL_SECONDS = 15.0
#: ``--quick`` runs every workload at this share of its size
QUICK_SCALE = 1.0 / 20.0

WARMUP_SHARE = 0.10
#: repetitions of every closed-loop phase inside an untraced pass, each in
#: a fresh engine / server / data dir on the same rows; the pass reports
#: ``harness.undisturbed`` of them.  Five short ones rather than ISSUE
#: 12's three long ones: the host runs at one of two speeds, the slow one
#: half as slow again, and changes every few seconds; a call comes
#: through clean when one of its repetitions met the fast one
REPS = 5
#: repetitions of ``served_reads_writes``'s paced phase in an untraced pass
PACED_REPS = 3

# event-time rates (events per second of *event* time)
SERVED_RATE = 10_000.0       # 100 ms windows hold 1000 events
READS_RATE = 20_000.0        # 200 ms windows hold 4000 events
EMBEDDED_RATE = 2_000.0      # 1 s slices hold 2000 events

#: the same in the traced and the untraced pass; ``served_durable_e1``
#: paces and ``served_reads_writes`` saturates in the traced pass only
SIZES = {
    "served_durable_e1": {"sat_events": 75_000, "sat_frame": 500,
                          "paced_seconds": 6.0, "paced_frame": 200,
                          "paced_interval": 0.020},
    "served_reads_writes": {"sat_events": 80_000, "sat_frame": 400,
                            "paced_seconds": 5.0, "paced_frame": 400,
                            "paced_interval": 0.020},
    "embedded_multi_cq": {"vector_events": 100_000, "mixed_events": 50_000,
                          "chunk": 2_000, "reference_events": 20_000},
    "embedded_eventtime_late": {"late_events": 50_000,
                                "ordered_events": 100_000,
                                "chunk": 2_000},
    "partitioned_e1": {"events": 75_000, "chunk": 2_000},
}


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def make_events(seed: int, count: int, rate: float) -> List[tuple]:
    """``count`` security events, the *i*-th at event time
    ``(i + 0.5) / rate``.

    The half-gap offset keeps every event strictly inside a window: with
    events *on* a boundary the frame that closes a window would be
    ambiguous by one frame interval, and float rounding would decide
    which window a row lands in."""
    from repro.workloads import SecurityEventGenerator
    generator = SecurityEventGenerator(
        rate_per_second=rate, start_time=-0.5 / rate, seed=seed)
    return generator.batch(count)


def late_arrival_order(events: List[tuple], seed: int, bound: float = 2.0,
                       straggler_share: float = 0.002,
                       straggler_cap: float = 20.0
                       ) -> Tuple[List[tuple], int]:
    """``events`` in network arrival order: arrival = event time +
    uniform[0, ``bound``) skew, except a ``straggler_share`` of rows
    delayed ``min(cap, bound / u)`` — at least the watermark bound, never
    beyond the CQ's 30 s lateness allowance, so every straggler must be
    retracted and corrected, none may be dropped.

    Stragglers are *stratified*: one per ``1/share`` consecutive events
    (the seed picks which), with ``u`` drawn one per equal slice of
    (0, 1], the slices dealt out in a fixed low-discrepancy order.  A
    retraction costs more the later it comes (the active table has
    grown) and the further back it reaches (more closed windows to
    recompute), so a plain Bernoulli draw made the phase's work swing by
    a quarter from seed to seed; stratified, every seed does the same
    amount of late work, on different rows.  Returns the reordered rows
    and the number of stragglers."""
    rng = random.Random(seed + 11)
    delays = [rng.random() * bound for _ in events]
    stragglers = int(len(events) * straggler_share)
    if stragglers:
        stride = len(events) / stragglers
        step = next(m for m in range(int(stragglers * 0.618) + 1,
                                     2 * stragglers + 2)
                    if math.gcd(m, stragglers) == 1)
        for j in range(stragglers):
            index = int((j + rng.random()) * stride)
            u = ((j * step) % stragglers + 1.0 - rng.random()) / stragglers
            delays[index] = min(straggler_cap, bound / u)
    order = sorted(range(len(events)),
                   key=lambda i: (events[i][0] + delays[i], i))
    return [events[i] for i in order], stragglers


def paced_frames(events: List[tuple], frame_rows: int, seconds: float,
                 interval: float) -> List[List[tuple]]:
    """The deterministic open-loop schedule: frame *k* holds rows
    ``[k*frame_rows, (k+1)*frame_rows)`` and is due ``k*interval`` after
    the phase starts, so event time tracks the wall clock."""
    n_frames = int(round(seconds / interval))
    return chunked(events[:n_frames * frame_rows], frame_rows)


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def stream_ddl(clause: str = "") -> str:
    from repro.workloads.security import SECURITY_STREAM_DDL
    return SECURITY_STREAM_DDL.strip() + (" " + clause if clause else "")


E1_WINDOW = 0.100
E1_PIPELINE = [
    "CREATE STREAM blocked_rollup AS "
    "SELECT severity, count(*) AS hits, sum(bytes_sent) AS bytes, "
    "cq_close(*) FROM security_events <VISIBLE '100 milliseconds'> "
    "WHERE action = 'block' GROUP BY severity",
    "CREATE TABLE blocked_archive (severity integer, hits bigint, "
    "bytes bigint, stime timestamp)",
    "CREATE CHANNEL blocked_channel FROM blocked_rollup "
    "INTO blocked_archive APPEND",
]

DST_WINDOW = 0.200
DST_PIPELINE = [
    "CREATE STREAM dst_rollup AS "
    "SELECT dst_ip, count(*) AS hits, sum(bytes_sent) AS bytes, "
    "cq_close(*) FROM security_events <VISIBLE '200 milliseconds'> "
    "GROUP BY dst_ip",
    "CREATE TABLE dst_archive (dst_ip varchar(50), hits bigint, "
    "bytes bigint, stime timestamp)",
    "CREATE INDEX dst_archive_stime ON dst_archive (stime)",
    "CREATE INDEX dst_archive_ip ON dst_archive (dst_ip)",
    "CREATE CHANNEL dst_channel FROM dst_rollup INTO dst_archive APPEND",
]

#: ``WATERMARK`` bound of the event-time stream, seconds
WATERMARK_BOUND = 2.0

_SLIDE = "<VISIBLE '5 seconds' ADVANCE '1 second'>"
_SLIDE_WIDE = "<VISIBLE '10 seconds' ADVANCE '1 second'>"
#: five CQs the vectorizer accepts; the first two differ only in their
#: window clause, so slice sharing has something to share
VECTOR_CQS = [
    "SELECT severity, count(*) AS hits, sum(bytes_sent) AS bytes "
    f"FROM security_events {_SLIDE} GROUP BY severity",
    "SELECT severity, count(*) AS hits, sum(bytes_sent) AS bytes "
    f"FROM security_events {_SLIDE_WIDE} GROUP BY severity",
    "SELECT dst_ip, count(*) AS hits, sum(bytes_sent) AS bytes "
    f"FROM security_events {_SLIDE} GROUP BY dst_ip",
    "SELECT src_ip, count(*) AS hits "
    f"FROM security_events {_SLIDE} WHERE action = 'block' GROUP BY src_ip",
    "SELECT dst_port, count(*) AS hits, max(bytes_sent) AS peak "
    f"FROM security_events {_SLIDE} GROUP BY dst_port",
]
#: one two-key GROUP BY the vectorizer refuses: its window operator has
#: no ``on_tuples``, so the whole stream leaves the batch fast path
MIXED_CQS = VECTOR_CQS + [
    "SELECT dst_port, action, count(*) AS hits "
    f"FROM security_events {_SLIDE} GROUP BY dst_port, action",
]

LATE_PIPELINE = [
    "CREATE STREAM blocked_rollup AS "
    "SELECT severity, count(*) AS hits, sum(bytes_sent) AS bytes, "
    f"cq_close(*) FROM security_events {_SLIDE} "
    "WHERE action = 'block' GROUP BY severity "
    "EMIT ON WATERMARK ALLOW LATENESS '30 seconds' RETRACT",
    "CREATE TABLE blocked_active (severity integer, hits bigint, "
    "bytes bigint, stime timestamp)",
    "CREATE CHANNEL blocked_channel FROM blocked_rollup "
    "INTO blocked_active APPEND",
]

PARTITION_CQ = (
    "SELECT dst_ip, count(*) AS hits, sum(bytes_sent) AS bytes, "
    f"max(bytes_sent) AS peak FROM security_events {_SLIDE} "
    "GROUP BY dst_ip")

STREAM = "security_events"


# ---------------------------------------------------------------------------
# brute-force references
# ---------------------------------------------------------------------------

def tumbling_reference(events: List[tuple], width: float, key_index: int,
                       keep: Optional[Callable[[tuple], bool]] = None
                       ) -> Dict[int, Dict[object, Tuple[int, int]]]:
    """``{window: {key: (hits, bytes)}}`` by plain iteration; window *w*
    covers event times ``[w*width, (w+1)*width)``.  Only *closed* windows
    are returned: the one holding the last event is still open."""
    out: Dict[int, Dict[object, List[int]]] = {}
    last = 0
    for row in events:
        last = int(row[0] / width)
        if keep is not None and not keep(row):
            out.setdefault(last, {})
            continue
        groups = out.setdefault(last, {})
        cell = groups.get(row[key_index])
        if cell is None:
            groups[row[key_index]] = [1, row[6]]
        else:
            cell[0] += 1
            cell[1] += row[6]
    out.pop(last, None)
    return {w: {k: (c[0], c[1]) for k, c in groups.items()}
            for w, groups in out.items()}


def window_of(close_time: float, width: float) -> int:
    return int(round(close_time / width)) - 1


def rows_by_window(rows, width: float) -> Dict[int, Dict[object, tuple]]:
    """Archive rows ``(key, hits, bytes, stime)`` grouped like the
    reference."""
    out: Dict[int, Dict[object, tuple]] = {}
    for key, hits, nbytes, stime in rows:
        out.setdefault(window_of(stime, width), {})[key] = (hits, nbytes)
    return out


def canonical_windows(windows) -> List[tuple]:
    """Window results in a comparable form (row order inside a window is
    an implementation detail)."""
    return [(w.kind, round(w.open_time, 6), round(w.close_time, 6),
             sorted(tuple(r) for r in w.rows)) for w in windows]


# ---------------------------------------------------------------------------
# one run of one workload
# ---------------------------------------------------------------------------

class Run:
    """Inputs, counters and results of one invocation."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, quick: bool, work: harness.WorkDir):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.quick = quick
        self.work = work
        self.scale = seconds / NOMINAL_SECONDS
        if quick:
            self.scale *= QUICK_SCALE
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.setup_s: List[float] = []
        self.e2e: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.details: Dict[str, object] = {"sizes": {}, "samples": {}}
        self.recorder = None

    # sizes -----------------------------------------------------------------

    def size(self, name: str, multiple: int = 1, minimum: int = 0) -> int:
        """The workload's ``name`` size at this run's scale, at least
        ``minimum``, rounded up to a whole number of ``multiple``
        (frames, chunks) and echoed into the output."""
        base = SIZES[self.workload][name]
        scaled = max(multiple, minimum, int(base * self.scale))
        scaled = -(-scaled // multiple) * multiple
        self.details["sizes"][name] = scaled
        return scaled

    def duration(self, name: str, minimum: float = 1.0) -> float:
        seconds = max(minimum, SIZES[self.workload][name] * self.scale)
        self.details["sizes"][name] = seconds
        return seconds

    # operation accounting --------------------------------------------------

    def ops(self, attempted: int, failed: int = 0, what: str = "") -> None:
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.failures.append(f"{failed} x {what}")

    def expect(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, what)

    # set-up timing ---------------------------------------------------------

    @contextlib.contextmanager
    def setup(self, more: bool = False):
        """Time a block as set-up: a new sample, or (``more``) added to
        the current one — a repetition that builds two engines pays for
        both."""
        started = clock()
        try:
            yield
        finally:
            elapsed = clock() - started
            if more and self.setup_s:
                self.setup_s[-1] += elapsed
            else:
                self.setup_s.append(elapsed)

    def samples(self, name: str, count: int) -> None:
        self.details["samples"][name] = count


def warmup_rows(rows: int, frame: int) -> int:
    """10% of a phase, as a whole number of frames."""
    return -(-int(rows * WARMUP_SHARE) // frame) * frame


def settle() -> None:
    """Before a timed phase: collect garbage once, then park every live
    object (the pre-generated events above all) outside the collector so
    a full collection during the phase does not walk the benchmark's own
    data."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def compare_windows(run: Run, got: Dict[int, dict], want: Dict[int, dict],
                    what: str) -> None:
    """One operation per reference window: present and equal."""
    bad = [w for w in want if got.get(w) != want[w]]
    extra = [w for w in got if w not in want]
    run.ops(len(want), len(bad), f"{what}: windows missing or differing "
            f"from the reference (first: {sorted(bad)[:3]})")
    if extra:
        run.ops(len(extra), len(extra),
                f"{what}: windows the reference does not have "
                f"(first: {sorted(extra)[:3]})")


# ---------------------------------------------------------------------------
# served workloads: shared plumbing
# ---------------------------------------------------------------------------

class Deployment:
    """A server subprocess with the feeder (A) and reader (B)
    connections — the two connections the load shape allows."""

    def __init__(self, run: Run, label: str, pipeline: List[str],
                 durable: bool, traced: bool = False):
        self.trace_label = (f"{run.workload}_{label}" if traced else None)
        self.data_dir = run.work.fresh(label) if durable else None
        self.server = Server(self.data_dir, self.trace_label).start()
        try:
            self.feeder = self.server.connect()
            self.feeder.execute(stream_ddl())
            for statement in pipeline:
                self.feeder.execute(statement)
            self.reader = self.server.connect()
        except BaseException:
            self.server.kill()
            raise

    def send(self, frame: list) -> int:
        return int(self.feeder.ingest(STREAM, frame))

    def close(self) -> Optional[dict]:
        """Stop the server; returns the traced server's summary."""
        for conn in (self.feeder, self.reader):
            try:
                conn.close()
            except Exception:
                pass
        self.server.stop()
        if self.trace_label is None:
            return None
        path = os.path.join(harness.RESULTS_DIR,
                            f"trace_{self.trace_label}.summary.json")
        with open(path, "r", encoding="utf-8") as handle:
            summary = json.load(handle)
        os.remove(path)
        return summary


def served_sizes(run: Run) -> tuple:
    """``(sat_frame, n_sat, interval, paced_frame, paced_seconds,
    n_events)`` of a served workload at this run's scale; both phases
    feed a prefix of the same ``n_events`` generated rows."""
    sizes = SIZES[run.workload]
    sat_frame, paced_frame = sizes["sat_frame"], sizes["paced_frame"]
    interval = sizes["paced_interval"]
    # no shorter than 1 s of event time, so that windows close (--quick)
    n_sat = run.size("sat_events", sat_frame,
                     minimum=int(paced_frame / interval))
    paced_seconds = run.duration("paced_seconds")
    n_events = max(n_sat, int(round(paced_seconds / interval)) * paced_frame)
    run.details["sizes"].update(events_generated=n_events,
                                paced_rate=paced_frame / interval)
    return sat_frame, n_sat, interval, paced_frame, paced_seconds, n_events


class WindowCollector:
    """Connection B blocked in ``wait_windows`` on its own thread,
    stamping each pushed window with its receive time."""

    def __init__(self, connection, name: str):
        self.received: List[Tuple[float, object]] = []
        self._connection = connection
        self._sub = connection.subscribe(name)
        self._thread = Background(self._pump, f"subscriber:{name}").start()

    def _pump(self, stop) -> None:
        while not stop.is_set():
            try:
                windows = self._sub.wait_windows(1, timeout=0.25)
            except TimeoutError:
                continue
            now = clock()
            self.received.extend((now, w) for w in windows)
            if self._sub.closed or self._connection.closed:
                return

    def finish(self, expected: int, patience: float = 5.0) -> None:
        deadline = clock() + patience
        while len(self.received) < expected and clock() < deadline:
            time.sleep(0.02)
        self._thread.join()


def e1_reference(sent: List[tuple]) -> Dict[int, dict]:
    return tumbling_reference(sent, E1_WINDOW, 5,
                              keep=lambda row: row[4] == "block")


def e1_archive(connection) -> Dict[int, dict]:
    return rows_by_window(connection.query(
        "SELECT severity, hits, bytes, stime FROM blocked_archive").rows,
        E1_WINDOW)


def check_e1_outputs(run: Run, deployment: Deployment,
                     collector: WindowCollector, sent: List[tuple],
                     what: str) -> None:
    """Wait for the last closed window's push; then every pushed window
    and the final archive must equal the brute-force group-by of the
    rows that were sent."""
    want = e1_reference(sent)
    collector.finish(expected=len(want))
    pushed = {window_of(w.close_time, E1_WINDOW):
              {row[0]: (row[1], row[2]) for row in w.rows}
              for _, w in collector.received}
    compare_windows(run, pushed, want, f"{what} pushes")
    compare_windows(run, e1_archive(deployment.feeder), want,
                    f"{what} blocked_archive")


def emit_latencies_ms(collector: WindowCollector, t0: float,
                      width: float) -> List[float]:
    """Receive time of window *T* minus the due time of the first frame
    carrying an event at or after *T*.  Event time runs with the phase
    clock, and no event sits on a boundary, so that frame is due at
    ``t0 + T``: the sample is queue wait in plus engine time plus push
    out, and excludes the window's own length."""
    return [(received - (t0 + (window_of(w.close_time, width) + 1) * width))
            * 1000.0 for received, w in collector.received
            if w.kind == "window"]


def storage_counts(deployment: Deployment, events: int) -> Dict[str, float]:
    """WAL counts as a client reads them: records, segments and flushes
    from the ``repro_storage`` and ``repro_metrics`` views, bytes by
    walking the data directory."""
    query = deployment.feeder.query
    head, live, archived = query(
        "SELECT head_lsn, live_segments, archived_total "
        "FROM repro_storage").rows[0]
    flushes = query("SELECT value FROM repro_metrics "
                    "WHERE name = 'wal.flushes'").scalar()
    return {
        "storage.wal_records_per_event": head / events,
        "storage.wal_bytes_per_event":
            harness.tree_bytes(deployment.data_dir) / events,
        "storage.wal_flushes": float(flushes),
        "storage.segment_rolls": float(live + archived - 1),
    }


def windows_emitted(query) -> float:
    """Windows the engine's CQs have evaluated, from ``repro_cqs``."""
    return float(sum(row[0] for row in
                     query("SELECT windows FROM repro_cqs").rows))


def note_overhead(run: Run, untraced: list, traced) -> None:
    """``client.trace_overhead_pct`` from the workload's headline
    closed-loop phase: untraced before, traced, untraced after."""
    rates = [result.events_per_s for result in untraced]
    run.layers["client.trace_overhead_pct"] = overhead_pct(
        rates, traced.events_per_s)
    run.details["untraced_events_per_s"] = rates
    run.details["traced_events_per_s"] = traced.events_per_s


def void_if_late(run: Run, paced, what: str) -> None:
    """A paced phase whose generator ran more than 5 ms late (p99 of the
    sends that were not waiting on an ack) measured the generator, not
    the server.  On a shared box that is a hypervisor stall, not an
    engine fault, so the phase is *marked* void — printed, and listed in
    the output — rather than counted as a failed operation."""
    late = percentile(paced.late_send_ms, 99)
    if late > 5.0:
        print(f"ledger: {what} is VOID: generator late_send_p99 "
              f"{late:.2f} ms > 5 ms", file=sys.stderr)
        run.details.setdefault("void_phases", []).append(what)
    run.ops(paced.frames, paced.refused_frames,
            f"{what}: frames refused or errored")


# ---------------------------------------------------------------------------
# 1. served_durable_e1
# ---------------------------------------------------------------------------

def durability_check(run: Run, deployment: Deployment,
                     acked: List[tuple]) -> float:
    """SIGKILL the server right after the final ack, restart it on the
    same ``--data-dir``, and require every window closed by an acked
    frame to be in ``blocked_archive``.  Returns kill-to-first-query
    seconds.  (Done on the warm-up pass: replay runs at ~17k records/s,
    so restarting the full ``sat`` log would cost more than a run may.)"""
    deployment.server.kill()
    started = clock()
    deployment.feeder.close()
    deployment.server = Server(deployment.data_dir).start()
    deployment.feeder = deployment.server.connect()
    got = e1_archive(deployment.feeder)
    recovery_s = clock() - started
    compare_windows(run, got, e1_reference(acked),
                    "kill -9 restart: acked windows in blocked_archive")
    return recovery_s


def served_durable_e1(run: Run) -> None:
    """The deployment the paper sells: socket in, durable, window push
    and archive row out."""
    sat_frame, n_sat, interval, paced_frame, paced_seconds, n_events = \
        served_sizes(run)

    def deploy(label: str, traced: bool = False):
        with run.setup():
            events = make_events(run.seed, n_events, SERVED_RATE)
            deployment = Deployment(run, label, E1_PIPELINE, durable=True,
                                    traced=traced)
        return deployment, events

    def sat(label: str, traced: bool = False):
        deployment, events = deploy(label, traced)
        try:
            collector = WindowCollector(deployment.reader, "blocked_rollup")
            frames = chunked(events[:n_sat], sat_frame)
            settle()
            with harness.KeepAwake():
                result = closed_loop(deployment.send, frames)
            check_e1_outputs(run, deployment, collector, events[:n_sat],
                             f"sat[{label}]")
            run.ops(len(frames), 1 if result.refused else 0,
                    f"sat[{label}]: {result.refused} rows refused")
            counts = storage_counts(deployment, n_sat)
            counts["streaming.windows_emitted"] = windows_emitted(
                deployment.feeder.query)
            plan = "\n".join(str(row[0]) for row in deployment.feeder.execute(
                "EXPLAIN ANALYZE blocked_rollup").rows)
        finally:
            summary = deployment.close()
        return result, counts, summary, plan

    def paced(label: str, traced: bool = False):
        deployment, events = deploy(label, traced)
        try:
            collector = WindowCollector(deployment.reader, "blocked_rollup")
            frames = paced_frames(events, paced_frame, paced_seconds,
                                  interval)
            settle()
            with harness.KeepAwake():
                result = paced_feed(deployment.send, frames, interval)
            sent = [row for frame in frames for row in frame]
            check_e1_outputs(run, deployment, collector, sent,
                             f"paced[{label}]")
            void_if_late(run, result, f"paced[{label}]")
            emit_ms = emit_latencies_ms(collector, result.t0, E1_WINDOW)
        finally:
            summary = deployment.close()
        return result, emit_ms, summary

    # warm-up (discarded) + the kill -9 restart check on what it acked
    deployment, events = deploy("warmup")
    try:
        n_warm = warmup_rows(n_sat, sat_frame)
        warm = closed_loop(deployment.send,
                           chunked(events[:n_warm], sat_frame))
        run.ops(len(warm.call_ms), 1 if warm.refused else 0,
                "warm-up rows refused")
        recovery_s = durability_check(run, deployment, events[:n_warm])
    finally:
        deployment.close()
    run.details["recovery_s"] = recovery_s

    if not run.trace:
        results = []
        for index in range(REPS):
            result, counts, _, _ = sat(f"sat-{index}")
            results.append(result)
        run.e2e["events_per_s"] = undisturbed(results).events_per_s
        run.details["reps"] = {
            "events_per_s": [r.events_per_s for r in results]}
        run.details["counts"] = counts
        return

    bases = [sat("sat-untraced")[0]]
    with tracing(run) as recorder:
        traced, counts, summary, plan = sat("sat", traced=True)
        wire = client_wire_metrics(recorder, n_sat)
        paced_result, emit_ms, paced_summary = paced("paced", traced=True)
    bases.append(sat("sat-untraced")[0])
    layers = run.layers
    layers.update(engine_layer_metrics(summary["totals"], n_sat))
    layers.update(counts)
    layers.update(wire)
    layers.update(client_tail_metrics(paced_result, emit_ms))
    layers.update(queue_metrics(paced_summary, paced_result.t0,
                                paced_result.t0 + paced_result.wall_s))
    # push encoding and admission are per window / per frame: take them
    # where windows and frames arrive at their real cadence
    paced_layers = engine_layer_metrics(paced_summary["totals"],
                                        paced_result.events)
    for name in ("server.push_encode_us_per_window",
                 "streaming.channel_us_per_window",
                 "admission.admit_us_per_frame"):
        layers[name] = paced_layers[name]
    layers["admission.refused"] = float(paced_result.refused_frames)
    layers["storage.recovery_s"] = recovery_s
    layers["exec.batch_operator_share"] = batch_operator_share(plan)
    note_overhead(run, bases, traced)
    run.details["attributed_share"] = attributed_share(summary["totals"])
    # the ladder takes this workload's pipeline apart rung by rung, so
    # it runs here, once, and its rungs are read against these spans
    import ladder
    result = ladder.run_ladder(
        run.seed, max(ladder.FRAME, int(ladder.PASS_EVENTS * run.scale)),
        run.work)
    layers.update(result["metrics"])
    run.details["ladder"] = result


# ---------------------------------------------------------------------------
# 2. served_reads_writes
# ---------------------------------------------------------------------------

class QueryLoop:
    """Connection B, closed loop, alternating the dashboard's two query
    shapes for as long as the feed runs, ``THINK_S`` apart.

    The freshness poll is incremental — ``max(stime)`` over the rows at
    or after the newest ``stime`` it has seen — so it walks the
    ``stime`` index and costs the same all phase long.  The bare
    ``SELECT max(stime) FROM dst_archive`` scans the table (the planner
    has no index path for ``max``): 1.4 ms at the start of the phase,
    21 ms at its end, past the frame interval.  Every latency of the
    phase was then a median over a ramp whose slope is the machine's
    speed, and moved 25-37% between identical runs.

    A dashboard polls; it does not spin: with a 5 ms think time the
    queries keep the engine thread about a tenth busy beside the
    writes' fifth, and reads still queue behind writes (and writes
    behind reads) on the one engine thread — which is what the workload
    is for."""

    THINK_S = 0.005

    FRESHNESS = "SELECT max(stime) FROM dst_archive WHERE stime >= ?"
    LOOKUP = ("SELECT sum(hits), sum(bytes) FROM dst_archive "
              "WHERE dst_ip = ?")

    def __init__(self, connection, seed: int, n_destinations: int = 200):
        self._connection = connection
        self._rng = random.Random(seed + 23)
        self._n = n_destinations
        self.latency_ms: List[float] = []
        #: start of every query, for the loop's cycle times
        self.starts: List[float] = []
        self.errors = 0
        #: (completion time, max(stime) returned) per freshness poll
        self.freshness: List[Tuple[float, float]] = []
        self.started = self.ended = 0.0
        #: simulated-disk pages read while the loop ran (``repro_io``)
        self.pages_read = 0
        self._thread = Background(self._loop, "dashboard")

    def start(self) -> None:
        self._thread.start()

    def _loop(self, stop) -> None:
        newest = 0.0
        self.started = clock()
        while not stop.is_set():
            stime = self._timed(self.FRESHNESS, (newest,))
            if stime is not None:
                newest = stime
                self.freshness.append((clock(), stime))
            stop.wait(self.THINK_S)
            self._timed(self.LOOKUP,
                        (f"10.1.0.{self._rng.randrange(self._n)}",))
            stop.wait(self.THINK_S)
        self.ended = clock()

    def _timed(self, sql: str, params: tuple):
        before = clock()
        self.starts.append(before)
        try:
            value = self._connection.query(sql, params).rows[0][0]
        except Exception as exc:
            self.errors += 1
            print(f"ledger: query failed: {exc!r}", file=sys.stderr)
            return None
        self.latency_ms.append((clock() - before) * 1000.0)
        return value

    def finish(self) -> None:
        self._thread.join()

    def cycle_ms(self) -> List[float]:
        """Start of one query to the start of the next: the query, its
        think time and whatever the sleep overshot."""
        return [(after - before) * 1000.0
                for before, after in zip(self.starts, self.starts[1:])]

    def visible_latencies_ms(self, t0: float, width: float) -> List[float]:
        """Per window *T*: completion of the first freshness poll that
        returned ``>= T`` minus the due time of the frame that closes
        *T* (``t0 + T``, as for ``emit``)."""
        out = []
        seen = 0
        for completed, stime in self.freshness:
            newest = window_of(stime, width) + 1     # windows closed
            for window in range(seen + 1, newest + 1):
                out.append((completed - (t0 + window * width)) * 1000.0)
            seen = max(seen, newest)
        return out


def check_dst_archive(run: Run, deployment: Deployment, sent: List[tuple],
                      what: str) -> None:
    """Final ``dst_archive`` totals equal the reference, per window and
    per destination."""
    want = tumbling_reference(sent, DST_WINDOW, 2)
    deadline = clock() + 5.0
    while want and clock() < deadline:
        stime = deployment.feeder.query(
            "SELECT max(stime) FROM dst_archive").scalar()
        if stime is not None and window_of(stime, DST_WINDOW) >= max(want):
            break
        time.sleep(0.02)
    per_window = {
        window_of(stime, DST_WINDOW): (hits, nbytes)
        for stime, hits, nbytes in deployment.feeder.query(
            "SELECT stime, sum(hits), sum(bytes) FROM dst_archive "
            "GROUP BY stime").rows}
    want_window = {w: (sum(c[0] for c in groups.values()),
                       sum(c[1] for c in groups.values()))
                   for w, groups in want.items()}
    compare_windows(run, per_window, want_window, f"{what} dst_archive")
    per_dst = {dst: (hits, nbytes) for dst, hits, nbytes in
               deployment.feeder.query(
                   "SELECT dst_ip, sum(hits), sum(bytes) FROM dst_archive "
                   "GROUP BY dst_ip").rows}
    want_dst: Dict[str, List[int]] = {}
    for groups in want.values():
        for dst, (hits, nbytes) in groups.items():
            cell = want_dst.setdefault(dst, [0, 0])
            cell[0] += hits
            cell[1] += nbytes
    run.expect(per_dst == {k: tuple(v) for k, v in want_dst.items()},
               f"{what}: per-destination totals differ from the reference")


def served_reads_writes(run: Run) -> None:
    """The dashboard beside the firehose: reads share the single engine
    thread with writes."""
    sat_frame, n_sat, interval, paced_frame, paced_seconds, n_events = \
        served_sizes(run)

    def deploy(label: str, traced: bool = False):
        with run.setup():
            events = make_events(run.seed, n_events, READS_RATE)
            deployment = Deployment(run, label, DST_PIPELINE, durable=False,
                                    traced=traced)
        return deployment, events

    def sat(label: str, traced: bool = False):
        deployment, events = deploy(label, traced)
        try:
            frames = chunked(events[:n_sat], sat_frame)
            settle()
            with harness.KeepAwake():
                result = closed_loop(deployment.send, frames)
            run.ops(len(frames), 1 if result.refused else 0,
                    f"sat[{label}]: {result.refused} rows refused")
            check_dst_archive(run, deployment, events[:n_sat],
                              f"sat[{label}]")
            windows = windows_emitted(deployment.feeder.query)
            plan = "\n".join(str(row[0]) for row in deployment.feeder.execute(
                "EXPLAIN ANALYZE dst_rollup").rows)
        finally:
            summary = deployment.close()
        return result, summary, plan, windows

    def paced(label: str, traced: bool = False):
        deployment, events = deploy(label, traced)
        try:
            frames = paced_frames(events, paced_frame, paced_seconds,
                                  interval)
            queries = QueryLoop(deployment.reader, run.seed)
            pages_read = "SELECT pages_read FROM repro_io"
            pages_before = deployment.feeder.query(pages_read).scalar()
            settle()
            with harness.KeepAwake():
                result = paced_feed(deployment.send, frames, interval,
                                    on_start=lambda _t0: queries.start())
                queries.finish()
            queries.pages_read = (deployment.feeder.query(pages_read).scalar()
                                  - pages_before)
            sent = [row for frame in frames for row in frame]
            check_dst_archive(run, deployment, sent, f"paced[{label}]")
            void_if_late(run, result, f"paced[{label}]")
            run.ops(len(queries.latency_ms) + queries.errors, queries.errors,
                    f"paced[{label}]: queries errored")
        finally:
            summary = deployment.close()
        return result, queries, summary

    if not run.trace:
        reps = [paced(f"paced-{index}")[:2] for index in range(PACED_REPS)]
        # as many set-ups as the other workloads time: two more, torn down
        for index in range(PACED_REPS, REPS):
            deploy(f"setup-{index}")[0].close()
        cycles = [ms for _, queries in reps for ms in queries.cycle_ms()]
        # the rate the open loop got through (20 000 ev/s unless a
        # backlog grows), and the pace the dashboard keeps: its median
        # cycle.  Queries / seconds is the mean cycle, and the mean is
        # made of the few queries that waited out a window close
        run.e2e.update(
            events_per_s=sum(result.events for result, _ in reps)
            / sum(result.wall_s for result, _ in reps),
            queries_per_s=1000.0 / median(cycles))
        run.samples("queries_per_s", len(cycles))
        run.details["reps"] = {"queries_over_seconds": [
            len(queries.latency_ms) / (queries.ended - queries.started)
            for _, queries in reps]}
        paced_result, queries = reps[0]
        run.details["client"] = client_tail_metrics(
            paced_result, (), queries.latency_ms,
            queries.visible_latencies_ms(paced_result.t0, DST_WINDOW))
        return

    bases = [sat("sat-untraced")[0]]
    with tracing(run) as recorder:
        traced, summary, plan, windows = sat("sat", traced=True)
        wire = client_wire_metrics(recorder, n_sat)
        paced_result, queries, paced_summary = paced("paced", traced=True)
    bases.append(sat("sat-untraced")[0])
    visible_ms = queries.visible_latencies_ms(paced_result.t0, DST_WINDOW)
    layers = run.layers
    layers.update(engine_layer_metrics(summary["totals"], n_sat))
    layers["streaming.windows_emitted"] = windows
    layers.update(wire)
    layers.update(client_tail_metrics(paced_result, (), queries.latency_ms,
                                      visible_ms))
    layers.update(queue_metrics(paced_summary, paced_result.t0,
                                paced_result.t0 + paced_result.wall_s))
    paced_layers = engine_layer_metrics(paced_summary["totals"],
                                        paced_result.events)
    for name in ("streaming.channel_us_per_window",
                 "storage.table_insert_us_per_row",
                 "admission.admit_us_per_frame"):
        layers[name] = paced_layers[name]
    n_queries = max(len(queries.latency_ms), 1)
    layers.update(query_layer_metrics(paced_summary["totals"], n_queries))
    layers["storage.pages_read_per_query"] = queries.pages_read / n_queries
    layers["admission.refused"] = float(paced_result.refused_frames)
    layers["exec.batch_operator_share"] = batch_operator_share(plan)
    note_overhead(run, bases, traced)
    run.details["attributed_share"] = attributed_share(summary["totals"])


# ---------------------------------------------------------------------------
# embedded workloads: shared plumbing
# ---------------------------------------------------------------------------

def embedded_phase(run: Run, events: List[tuple], cqs: List[str],
                   chunk: int, what: str, **db_options):
    """One closed-loop phase in a fresh embedded engine.  Like any
    embedded client, the loop drains every subscription after each
    insert; returns the loop's result, each CQ's windows and (traced
    pass) the analysed plan of the per-``dst_ip`` CQ."""
    from repro import Database
    with run.setup(more=True):
        db = Database(**db_options)
        db.execute(stream_ddl())
        subscriptions = [db.subscribe(sql) for sql in cqs]
        chunks = chunked(events, chunk)
    windows: List[list] = [[] for _ in cqs]

    def send(rows: list) -> int:
        accepted = db.insert_stream(STREAM, rows)
        for sink, subscription in zip(windows, subscriptions):
            sink.extend(subscription.poll())
        return accepted

    try:
        settle()
        result = closed_loop(send, chunks)
        run.ops(len(chunks), 1 if result.refused else 0,
                f"{what}: {result.refused} rows refused")
        db.flush_streams()
        send([])
        plan = db.explain(f"EXPLAIN ANALYZE {cqs[2]}") if run.trace else ""
    finally:
        db.close()
    return result, [canonical_windows(w) for w in windows], plan


# ---------------------------------------------------------------------------
# 3. embedded_multi_cq
# ---------------------------------------------------------------------------

def embedded_multi_cq(run: Run) -> None:
    """Many metrics over one stream, no server, no WAL."""
    chunk = SIZES[run.workload]["chunk"]
    n_vector = run.size("vector_events", chunk)
    n_mixed = run.size("mixed_events", chunk)
    n_reference = min(run.size("reference_events", chunk), n_vector)
    reps = 1 if run.trace else REPS
    run.details["sizes"]["reps"] = reps

    # reference check; its vectorized half doubles as the warm-up pass
    head = make_events(run.seed, n_reference, EMBEDDED_RATE)
    _, vectorized, _ = embedded_phase(run, head, MIXED_CQS, chunk, "warm-up")
    _, rowwise, _ = embedded_phase(run, head, MIXED_CQS, chunk,
                                   "reference", vectorize=False)
    run.setup_s.clear()             # a 10% set-up is not a set-up sample
    for index, (got, want) in enumerate(zip(vectorized, rowwise)):
        bad = sum(1 for g, w in zip(got, want) if g != w) \
            + abs(len(got) - len(want))
        run.ops(len(want), bad,
                f"CQ {index}: windows differ from Database(vectorize=False)")

    def rep(traced: bool = False):
        with run.setup():
            events = make_events(run.seed, n_vector, EMBEDDED_RATE)
        vector, windows, plan = embedded_phase(run, events, VECTOR_CQS,
                                               chunk, "vector")
        vector_totals = snapshot_totals(run, traced)
        mixed, _, _ = embedded_phase(run, events[:n_mixed], MIXED_CQS,
                                     chunk, "mixed")
        mixed_totals = snapshot_totals(run, traced)
        n_windows = sum(len(per_cq) for per_cq in windows)
        return vector, mixed, plan, vector_totals, mixed_totals, n_windows

    if not run.trace:
        results = [rep() for _ in range(reps)]
        run.e2e.update(
            events_per_s=undisturbed([r[0] for r in results]).events_per_s,
            mixed_events_per_s=undisturbed(
                [r[1] for r in results]).events_per_s)
        run.details["reps"] = {
            "events_per_s": [r[0].events_per_s for r in results],
            "mixed_events_per_s": [r[1].events_per_s for r in results]}
        return

    bases = [rep()]
    with tracing(run):
        vector, mixed, plan, vector_totals, mixed_totals, n_windows = \
            rep(traced=True)
    bases.append(rep())
    layers = run.layers
    layers.update(engine_layer_metrics(vector_totals, n_vector))
    layers["streaming.windows_emitted"] = float(n_windows)
    mixed_layers = engine_layer_metrics(mixed_totals, n_mixed)
    layers["streaming.slow_path_row_share"] = mixed_layers[
        "streaming.slow_path_row_share"]
    layers["exec.batch_operator_share"] = batch_operator_share(plan)
    note_overhead(run, [b[0] for b in bases], vector)
    run.details["attributed_share"] = attributed_share(vector_totals)
    run.details["vector_slow_path_row_share"] = engine_layer_metrics(
        vector_totals, n_vector)["streaming.slow_path_row_share"]
    run.details["mixed_layers"] = mixed_layers
    run.details["mixed_trace_overhead_pct"] = overhead_pct(
        [b[1].events_per_s for b in bases], mixed.events_per_s)


def snapshot_totals(run: Run, traced: bool) -> dict:
    """In-process traced phases: read the recorder and clear it, so the
    next phase starts from zero."""
    if not traced:
        return {}
    totals = run.recorder.totals()
    run.recorder.reset_totals()
    return totals


@contextlib.contextmanager
def tracing(run: Run):
    """Install the span wrappers in this process for the block, then
    write the spans out and restore the originals."""
    trace = harness.load_trace()
    recorder = run.recorder
    recorder.reset()
    trace.install(recorder, late_bound=WATERMARK_BOUND)
    try:
        yield recorder
    finally:
        recorder.uninstall()
        os.makedirs(harness.RESULTS_DIR, exist_ok=True)
        path = os.path.join(harness.RESULTS_DIR,
                            f"trace_{run.workload}.jsonl")
        if os.path.exists(path):
            os.remove(path)
        recorder.write(path)


# ---------------------------------------------------------------------------
# 4. embedded_eventtime_late
# ---------------------------------------------------------------------------

def eventtime_phase(run: Run, rows: List[tuple], chunk: int, what: str):
    """One closed-loop feed of the event-time pipeline in a fresh
    engine; returns the loop's result, the converged active table, the
    stream's late-row count and the windows the CQ evaluated."""
    from repro import Database
    with run.setup(more=True):
        db = Database(observability=False)
        db.execute(stream_ddl(f"WATERMARK '{WATERMARK_BOUND:g} seconds'"))
        for statement in LATE_PIPELINE:
            db.execute(statement)
        chunks = chunked(rows, chunk)
    try:
        settle()
        result = closed_loop(lambda batch: db.insert_stream(STREAM, batch),
                             chunks)
        run.ops(len(chunks), 1 if result.refused else 0,
                f"{what}: {result.refused} rows refused")
        db.flush_streams()
        table = sorted(db.query(
            "SELECT severity, hits, bytes, stime FROM blocked_active").rows)
        late_rows = db.query(
            "SELECT late_rows FROM repro_watermarks "
            f"WHERE stream = '{STREAM}'").scalar()
        windows = windows_emitted(db.query)
    finally:
        db.close()
    return result, table, late_rows, windows


def embedded_eventtime_late(run: Run) -> None:
    """Event time with genuine disorder: in-bound stragglers retract."""
    chunk = SIZES[run.workload]["chunk"]
    # no shorter than 10 s of event time: a straggler is delayed 2-20 s,
    # so a shorter feed (``--quick``) ends before any row arrives late
    n_late = run.size("late_events", chunk, minimum=20_000)
    n_ordered = run.size("ordered_events", chunk)
    reps = 1 if run.trace else REPS
    run.details["sizes"]["reps"] = reps

    def prepare():
        with run.setup():
            events = make_events(run.seed, max(n_late, n_ordered),
                                 EMBEDDED_RATE)
            arrivals, stragglers = late_arrival_order(events[:n_late],
                                                      run.seed)
        run.details["sizes"]["stragglers"] = stragglers
        return events, arrivals

    # the reference: an in-order feed of the same late-phase events; a
    # 10% disordered prefix before it is the discarded warm-up
    events, arrivals = prepare()
    eventtime_phase(run, arrivals[:max(chunk, int(n_late * WARMUP_SHARE))],
                    chunk, "warm-up")
    want_table = eventtime_phase(run, events[:n_late], chunk,
                                 "reference")[1]

    def rep(traced: bool = False):
        events, arrivals = prepare()
        late, table, late_rows, windows = eventtime_phase(
            run, arrivals, chunk, "late")
        late_totals = snapshot_totals(run, traced)
        run.expect(table == want_table,
                   "late: converged active table differs from the "
                   "in-order feed's")
        ordered, _, ordered_late, _ = eventtime_phase(
            run, events[:n_ordered], chunk, "ordered")
        ordered_totals = snapshot_totals(run, traced)
        run.expect(ordered_late == 0, "ordered: rows counted late")
        return late, ordered, late_rows, windows, late_totals, ordered_totals

    if not run.trace:
        results = [rep() for _ in range(reps)]
        run.e2e.update(
            events_per_s=undisturbed([r[0] for r in results]).events_per_s,
            ordered_events_per_s=undisturbed(
                [r[1] for r in results]).events_per_s)
        run.details["late_rows"] = results[0][2]
        run.details["reps"] = {
            "events_per_s": [r[0].events_per_s for r in results],
            "ordered_events_per_s": [r[1].events_per_s for r in results]}
        return

    bases = [rep()]
    with tracing(run):
        late, ordered, late_rows, windows, late_totals, ordered_totals = \
            rep(traced=True)
    bases.append(rep())
    layers = run.layers
    layers.update(engine_layer_metrics(late_totals, n_late))
    layers["eventtime.late_rows"] = float(late_rows)
    layers["streaming.windows_emitted"] = windows
    timed_late = late_totals.get("eventtime.late_on_tuple", {}).get("calls", 0)
    run.expect(timed_late == late_rows,
               f"late: {timed_late} rows timed as late, the stream counted "
               f"{late_rows}")
    note_overhead(run, [b[0] for b in bases], late)
    run.details["attributed_share"] = attributed_share(late_totals)
    run.details["ordered_layers"] = engine_layer_metrics(ordered_totals,
                                                         n_ordered)
    run.details["ordered_trace_overhead_pct"] = overhead_pct(
        [b[1].events_per_s for b in bases], ordered.events_per_s)


# ---------------------------------------------------------------------------
# 5. partitioned_e1
# ---------------------------------------------------------------------------

def partitioned_e1(run: Run) -> None:
    """Scale-out tax: two process workers behind the coordinator."""
    from repro import Database
    from repro.partition import PartitionedEngine
    chunk = SIZES[run.workload]["chunk"]
    n_events = run.size("events", chunk)
    reps = 1 if run.trace else REPS
    run.details["sizes"].update(reps=reps, partitions=2)

    def single(rows: List[tuple]) -> List[tuple]:
        """The reference: one ``Database``, same CQ, same rows.  Its
        rate is kept beside the result — the tax is the ratio."""
        db = Database()
        try:
            db.execute(stream_ddl())
            sub = db.subscribe(PARTITION_CQ)
            result = closed_loop(
                lambda batch: db.insert_stream(STREAM, batch),
                chunked(rows, chunk))
            run.details["single_engine_events_per_s"] = result.events_per_s
            db.advance_streams(rows[-1][0] + 60.0)
            return canonical_windows(sub.poll())
        finally:
            db.close()

    def partitioned(rows: List[tuple], what: str):
        with run.setup(more=True):
            engine = PartitionedEngine(partitions=2, transport="process")
        try:
            with run.setup(more=True):
                engine.execute(stream_ddl("PARTITION BY dst_ip"))
                sub = engine.execute(PARTITION_CQ)
                chunks = chunked(rows, chunk)
            settle()
            result = closed_loop(
                lambda batch: engine.ingest(STREAM, batch)["accepted"],
                chunks)
            run.ops(len(chunks), 1 if result.refused else 0,
                    f"{what}: {result.refused} rows refused")
            engine.advance(rows[-1][0] + 60.0)
            windows = canonical_windows(sub.poll())
            routed = [row[5] for row in engine.status_rows()]
        finally:
            engine.close()
        return result, windows, routed

    def rep(want: List[tuple], what: str = "partitioned"):
        with run.setup():
            events = make_events(run.seed, n_events, EMBEDDED_RATE)
        result, windows, routed = partitioned(events, what)
        bad = sum(1 for g, w in zip(windows, want) if g != w) \
            + abs(len(windows) - len(want))
        run.ops(len(want), bad,
                f"{what}: merged windows differ from a single Database")
        return result, routed

    events = make_events(run.seed, n_events, EMBEDDED_RATE)
    want = single(events)
    n_warm = max(chunk, int(n_events * WARMUP_SHARE))
    partitioned(events[:n_warm], "warm-up")
    run.setup_s.clear()             # a 10% set-up is not a set-up sample

    if not run.trace:
        results = [rep(want)[0] for _ in range(reps)]
        run.e2e["events_per_s"] = undisturbed(results).events_per_s
        run.details["reps"] = {
            "events_per_s": [r.events_per_s for r in results]}
        return

    bases = [rep(want)[0]]
    with tracing(run) as recorder:
        traced, routed = rep(want)
        totals = recorder.totals()
        samples = dict(recorder.samples)
    bases.append(rep(want)[0])
    layers = run.layers
    layers.update(engine_layer_metrics(totals, n_events))
    layers.update(partition_layer_metrics(totals, samples, n_events, routed,
                                          len(want)))
    layers["streaming.windows_emitted"] = float(len(want))
    note_overhead(run, bases, traced)
    run.details["attributed_share"] = attributed_share(totals)


WORKLOADS: Dict[str, Tuple[Callable[[Run], None], str]] = {
    "served_durable_e1": (
        served_durable_e1,
        "every layer on the socket-to-subscriber path is crossed once; "
        "the per-tuple JSON WAL is expected to dominate"),
    "served_reads_writes": (
        served_reads_writes,
        "reads share the single engine thread with writes, so an ingest "
        "gain bought by holding that thread longer shows as query latency"),
    "embedded_multi_cq": (
        embedded_multi_cq,
        "streaming+exec do all the work, server/storage/partition none; "
        "the mixed phase pins the batch fast-path bail-out"),
    "embedded_eventtime_late": (
        embedded_eventtime_late,
        "the only workload where eventtime does most of the work: "
        "watermark closes and retraction recompute under real disorder"),
    "partitioned_e1": (
        partitioned_e1,
        "partition routing, pickle wire and boundary merge do most of "
        "the work and nothing else in the suite touches them"),
}
