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

The W sweep is the other half of a sliced close: one CQ at
``VISIBLE 'W minutes' ADVANCE '1 minute'`` merges the partials of the W
slices its window covers.  A left fold makes W - 1 pairwise merges a
close; the CQ's two stacks (``SlidingMerge``) make at most 3 amortized,
whatever W is.  We report merges per close and wall time for W = 2..60,
over enough data that every W fills.
"""

import time

from repro import Database
from repro.bench.harness import format_table
from repro.workloads import ClickstreamGenerator

K_SWEEP = [1, 2, 4, 8, 16]
EVENTS = 12_000
RATE = 100.0  # events/second -> 2 minutes of data

WINDOW_MINUTES = [1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 30, 40, 50, 60, 90]

W_SWEEP = [2, 5, 10, 20, 30, 60]
SWEEP_URLS = 300
SWEEP_RATE = 10.0     # events/second: 600 rows a slice
SWEEP_MINUTES = 120   # every W fills, and W = 60 closes 60 full windows


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


def sweep(minutes):
    """One CQ at ``minutes`` slices a window: (merges per close, closes,
    wall seconds)."""
    db = Database()
    db.execute("CREATE STREAM url_stream (url varchar(1024), "
               "atime timestamp CQTIME USER, client_ip varchar(50))")
    sub = db.subscribe(cq_sql(minutes))
    agg = sub.cq._agg
    merge_partials = agg.merge_partials
    merges = [0]

    def counting(parts):
        parts = list(parts)
        merges[0] += max(len(parts) - 1, 0)
        return merge_partials(parts)

    agg.merge_partials = counting
    gen = ClickstreamGenerator(n_urls=SWEEP_URLS, rate_per_second=SWEEP_RATE,
                               seed=4)
    events = gen.batch(int(SWEEP_RATE * 60 * SWEEP_MINUTES))
    started = time.perf_counter()
    for i in range(0, len(events), 600):
        db.insert_stream("url_stream", events[i:i + 600])
    wall = time.perf_counter() - started
    closes = len(sub.poll())
    return merges[0] / closes, closes, wall


def test_e4_window_length_sweep(benchmark, report):
    report.experiment_id = "E4_window_sweep"
    rows = []
    for minutes in W_SWEEP:
        per_close, closes, wall = sweep(minutes)
        rows.append([minutes, minutes - 1, round(per_close, 2), closes,
                     round(wall, 3)])
        # a close reuses the window before it: ≤ 3 merges amortized
        assert per_close <= 3
    text = format_table(
        ["W slices", "left-fold merges per full close",
         "merges per close", "closes", "wall s"],
        rows,
        title=f"E4 W sweep: one CQ <VISIBLE 'W minutes' ADVANCE '1 minute'>,"
              f" {SWEEP_MINUTES} min at {SWEEP_RATE:g} ev/s over "
              f"{SWEEP_URLS} urls")
    print("\n" + text)
    report.add(text)
    benchmark.pedantic(lambda: sweep(W_SWEEP[-1]), rounds=1, iterations=1)
