"""The ROADMAP item-1 ladder: one E1 feed through six configurations,
each adding exactly one layer to the one before.

    coerce      embedded stream, no consumer        (schema coercion +
                                                     base-stream ingest)
    window      + the E1 tumbling rollup CQ
    channel     + CHANNEL ... APPEND into the archive table
    wal         + the segmented WAL (``open_database(data_dir=...)``,
                  the call the server itself makes)
    wire        + ``python -m repro.server`` and the loopback client
    partition   the ``window`` rung's rollup behind ``PartitionedEngine``
                with two process workers.  ``--partitions`` refuses a
                data dir and a partitioned stream refuses derived
                streams, so this rung adds its layer to ``window`` (the
                same SELECT as a subscription), not to ``wire``

Every rung ingests the same events in the same 500-row frames, closed
loop, in a fresh engine.  Three rounds are interleaved with a rotating
start so drift hits every rung alike; a rung's cost is the µs/event of
its rounds taken together (``harness.undisturbed``, as every closed-loop
phase of the ledger), and a layer's cost is its rung minus the rung it
was added to.  ``served_durable_e1``'s traced pass runs the ladder at
``PASS_EVENTS`` (what a pass has time for); run alone it is full size::

    PYTHONPATH=src python benchmarks/ledger/ladder.py [--seed N]
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

import harness

harness.ensure_engine_importable()

import workloads  # noqa: E402  (needs the engine importable)
from harness import Server, chunked, closed_loop, undisturbed  # noqa: E402
from workloads import E1_PIPELINE, STREAM, stream_ddl  # noqa: E402

RUNGS = ["coerce", "window", "channel", "wal", "wire", "partition"]
#: layer metric -> (rung, the rung it was added to)
LAYERS = {
    "ladder.coerce_us_per_event": ("coerce", None),
    "ladder.window_us_per_event": ("window", "coerce"),
    "ladder.channel_us_per_event": ("channel", "window"),
    "ladder.wal_us_per_event": ("wal", "channel"),
    "ladder.wire_us_per_event": ("wire", "wal"),
    "ladder.partition_us_per_event": ("partition", "window"),
}
#: the rollup of ``E1_PIPELINE[0]`` as a bare continuous SELECT
E1_ROLLUP_SELECT = E1_PIPELINE[0].split(" AS ", 1)[1].replace(
    ", cq_close(*)", "")
FRAME = 500
ROUNDS = 3
FULL_EVENTS = 100_000
#: events per rung inside a traced pass at ``--seconds 15``
PASS_EVENTS = 10_000


def _embedded(db, statements: List[str], frames
              ) -> harness.ClosedLoopResult:
    try:
        db.execute(stream_ddl())
        for statement in statements:
            db.execute(statement)
        workloads.settle()
        return closed_loop(lambda rows: db.insert_stream(STREAM, rows),
                           frames)
    finally:
        db.close()


def _rung(name: str, frames, work: harness.WorkDir
          ) -> harness.ClosedLoopResult:
    """One closed-loop feed through rung ``name``."""
    from repro import Database
    if name in ("coerce", "window", "channel"):
        depth = {"coerce": 0, "window": 1, "channel": 3}[name]
        return _embedded(Database(), E1_PIPELINE[:depth], frames)
    if name == "wal":
        from repro.replication.bootstrap import open_database
        return _embedded(open_database(data_dir=work.fresh("ladder-wal")),
                         E1_PIPELINE, frames)
    if name == "wire":
        with Server(work.fresh("ladder-wire")) as server:
            conn = server.connect()
            try:
                conn.execute(stream_ddl())
                for statement in E1_PIPELINE:
                    conn.execute(statement)
                workloads.settle()
                return closed_loop(
                    lambda rows: int(conn.ingest(STREAM, rows)), frames)
            finally:
                conn.close()
    if name == "partition":
        from repro.partition import PartitionedEngine
        with PartitionedEngine(partitions=2, transport="process") as engine:
            engine.execute(stream_ddl("PARTITION BY dst_ip"))
            engine.execute(E1_ROLLUP_SELECT)
            workloads.settle()
            return closed_loop(
                lambda rows: engine.ingest(STREAM, rows)["accepted"],
                frames)
    raise ValueError(name)


def run_ladder(seed: int, n_events: int,
               work: harness.WorkDir) -> Dict[str, object]:
    """``{"rungs": {rung: [µs/event per round]}, "metrics": {...}}``."""
    events = workloads.make_events(seed, n_events, workloads.SERVED_RATE)
    frames = chunked(events, FRAME)
    rounds: Dict[str, List[harness.ClosedLoopResult]] = {
        name: [] for name in RUNGS}
    for round_no in range(ROUNDS):
        shift = round_no % len(RUNGS)
        for name in RUNGS[shift:] + RUNGS[:shift]:
            rounds[name].append(_rung(name, frames, work))
    per_round = {name: [1e6 / result.events_per_s for result in results]
                 for name, results in rounds.items()}
    cost = {name: 1e6 / undisturbed(results).events_per_s
            for name, results in rounds.items()}
    metrics = {metric: cost[rung] - (cost[below] if below else 0.0)
               for metric, (rung, below) in LAYERS.items()}
    return {"events": n_events, "rounds": ROUNDS, "frame": FRAME,
            "rungs": per_round, "rung_us_per_event": cost,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=2009)
    args = parser.parse_args(argv)
    with harness.WorkDir() as work:
        result = run_ladder(args.seed, FULL_EVENTS, work)
    for name in RUNGS:
        print(f"{name:10s} {result['rung_us_per_event'][name]:9.3f} "
              "us/event")
    for metric, value in result["metrics"].items():
        print(f"{metric:32s} {value:9.3f} us/event")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
