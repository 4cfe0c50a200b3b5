"""E4 / A1 — shared processing of many CQs (Section 2.2, refs [4, 12]).

"processing multiple continuous queries in a shared manner ... enables
redundant work to be avoided across the set of active queries."  We
attach K aggregate CQs — same metric, different window extents — to one
stream of the default engine.  Written alike, they have one slice-store
key and read one store: each slice's rows are reduced to a partial once
and every CQ merges the slices its window sees.  A1 is the ablation:
the same K CQs made key-distinct by a per-CQ stream alias, so each
keeps a store of its own and reduces every slice again.  We report rows
reduced to partials (the stores' counter) and wall time as K grows.
"""

import time

from repro import Database
from repro.bench.harness import format_table
from repro.workloads import ClickstreamGenerator

K_SWEEP = [1, 2, 4, 8, 16]
EVENTS = 12_000
RATE = 100.0  # events/second -> 2 minutes of data

WINDOW_MINUTES = [1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 30, 40, 50, 60, 90]


def cq_sql(minutes, alias=""):
    return (f"SELECT url, count(*) c FROM url_stream "
            f"<VISIBLE '{minutes} minutes' ADVANCE '1 minute'> {alias} "
            "GROUP BY url")


def run(k, share):
    db = Database()
    db.execute("CREATE STREAM url_stream (url varchar(1024), "
               "atime timestamp CQTIME USER, client_ip varchar(50))")
    subs = [db.subscribe(cq_sql(WINDOW_MINUTES[i],
                                "" if share else f"reader_{i}"))
            for i in range(k)]
    stores = db.get_stream("url_stream").slice_stores
    assert len(stores) == (1 if share else k)
    gen = ClickstreamGenerator(n_urls=50, rate_per_second=RATE, seed=4)
    events = gen.batch(EVENTS)

    started = time.perf_counter()
    db.insert_stream("url_stream", events)
    db.advance_streams(events[-1][1] + 60.0)
    wall = time.perf_counter() - started

    rows_reduced = sum(store.rows_reduced for store in stores)
    outputs = [
        sorted((w.close_time, tuple(sorted(w.rows))) for w in s.poll())
        for s in subs
    ]
    return wall, rows_reduced, outputs


def test_e4_shared_vs_unshared(benchmark, report):
    report.experiment_id = "E4_sharing"
    rows = []
    shared_work, distinct_work = [], []
    for k in K_SWEEP:
        wall_s, work_s, out_s = run(k, share=True)
        wall_d, work_d, out_d = run(k, share=False)
        assert out_s == out_d, f"sharing a store changed results at K={k}"
        shared_work.append(work_s)
        distinct_work.append(work_d)
        rows.append([
            k, work_d, work_s, round(work_d / work_s, 1),
            round(wall_d, 3), round(wall_s, 3),
        ])
    text = format_table(
        ["K CQs", "key-distinct rows reduced", "same-key rows reduced",
         "work ratio", "key-distinct wall s", "same-key wall s"],
        rows,
        title=f"E4/A1: {EVENTS} events, K CQs over the same stream with "
              "different windows — one slice store reduces each event once")
    print("\n" + text)
    report.add(text)

    # shape: same-key work is the event count for every K; key-distinct
    # work grows with K
    assert shared_work == [EVENTS] * len(K_SWEEP)
    assert distinct_work == [EVENTS * k for k in K_SWEEP]

    benchmark.pedantic(lambda: run(4, share=True), rounds=2, iterations=1)
