"""Smoke test of the ledger: ``pytest benchmarks/ledger``.

Runs every workload in ``--quick`` mode (1/20 size, all reference checks
on), untraced and traced, and asserts that every metric ``BENCHMARK.json``
names comes back present, finite and carrying its unit, with no failed
operation (a traced pass fails itself when a layer metric its workload
is predicted to move reads 0, so a wrapped function that has gone is
caught here).  The ten passes run two at a time (one per core): a smoke
run checks outputs, not timings, and stays under 30 s that way.  Then
``compare.py``'s verdicts and exit codes, on synthetic ledgers.  Not
collected by tier-1 (``testpaths = tests``).
"""

import concurrent.futures
import json
import math
import os
import subprocess
import sys

import pytest

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
sys.path.insert(0, LEDGER_DIR)          # compare.py

with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_quick(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(LEDGER_DIR, "run.py"), "--quick",
         "--workload", workload, "--seed", "2009", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, cwd=REPO_ROOT)


@pytest.fixture(scope="module")
def quick_passes():
    passes = [(w, t) for t in (1, 0) for w in WORKLOADS]
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(passes, pool.map(lambda p: run_quick(*p), passes)))


@pytest.mark.parametrize("trace", [0, 1], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_reported(quick_passes, workload, trace):
    completed = quick_passes[(workload, trace)]
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], float), metric["name"]
        assert math.isfinite(got["value"]), metric["name"]
        if not trace:
            assert got["value"] > 0.0, metric["name"]


def test_spec_names_the_five_workloads_and_nine_metrics():
    """ISSUE 12's nine names: five end-to-end, and the four paced
    latencies it lets move to the ``client`` layer under the same name
    when they do not repeat within their bound (README.md, *Bounds*)."""
    assert [w["name"] for w in SPEC["workloads"]] == [
        "served_durable_e1", "served_reads_writes", "embedded_multi_cq",
        "embedded_eventtime_late", "partitioned_e1"]
    assert [m["name"] for m in SPEC["end_to_end"]] == [
        "setup_s", "events_per_s", "mixed_events_per_s",
        "ordered_events_per_s", "queries_per_s"]
    assert {"client.emit_p50_ms", "client.ack_p50_ms", "client.query_p50_ms",
            "client.visible_p50_ms"} <= {m["name"] for m in SPEC["per_layer"]}
    assert SPEC["paths"] == ["benchmarks/ledger"]


# -- compare.py: verdicts and exit codes, on synthetic ledgers -------------

def _cell(values, better="lower", bound=0.1):
    ordered = sorted(values)
    return {"median": ordered[len(ordered) // 2], "min": ordered[0],
            "max": ordered[-1], "better": better, "bound": bound}


def _ledger(qps, records=1.0, void=(), drop_metric=False):
    end_to_end = {"queries_per_s": _cell(qps, better="higher"),
                  "mixed_events_per_s": _cell(qps, better="higher")}
    if drop_metric:
        del end_to_end["queries_per_s"]
    return {"environment": {"commit": "0" * 40, "nproc": 2, "python": "3",
                            "numpy": "2"},
            "seed": 1, "seconds": 15.0, "quick": False, "reps": 3,
            "workloads": {"served_reads_writes": {
                "sizes": {"sat_events": 1}, "failed": 0,
                "stand_ins": {"mixed_events_per_s": "events_per_s"},
                "void_phases": list(void), "end_to_end": end_to_end,
                "per_layer": {
                    "streaming.windows_emitted": {"value": records}}}}}


def _compare(tmp_path, a, b):
    import compare
    paths = []
    for label, ledger in (("a", a), ("b", b)):
        paths.append(str(tmp_path / f"{label}.json"))
        with open(paths[-1], "w", encoding="utf-8") as handle:
            json.dump(ledger, handle)
    return compare.main(paths)


def test_compare_verdict_is_symmetric_when_spread_exceeds_bound():
    import compare
    low, high = _cell([1.0, 1.1, 1.3]), _cell([1.35, 1.4, 1.6])
    assert compare.verdict(low, high)[0] == "worse"
    assert compare.verdict(high, low)[0] == "better"
    overlapping = _cell([1.2, 1.4, 1.6])
    assert compare.verdict(low, overlapping)[0] == "unresolved"
    assert compare.verdict(overlapping, low)[0] == "unresolved"
    assert compare.verdict(_cell([1.0, 1.0, 1.0]),
                           _cell([1.05, 1.05, 1.05]))[0] == "same"


def test_compare_exit_codes(tmp_path, capsys):
    base = _ledger([130.0, 131.0, 132.0])
    assert _compare(tmp_path, base, base) == 0
    assert "mixed_events_per_s" not in capsys.readouterr().out  # a stand-in
    assert _compare(tmp_path, base, _ledger([100.0, 101.0, 102.0])) == 1
    assert _compare(tmp_path, base, _ledger([130.0, 131.0, 132.0],
                                            records=0.5)) == 1
    assert "DIFFER" in capsys.readouterr().out
    assert _compare(tmp_path, base, _ledger([130.0, 131.0, 132.0],
                                            void=["paced[paced]"])) == 1
    assert "void" in capsys.readouterr().out
    assert _compare(tmp_path, base, _ledger([130.0, 131.0, 132.0],
                                            drop_metric=True)) == 1
    assert "missing" in capsys.readouterr().out
    shorter = _ledger([130.0, 131.0, 132.0])
    shorter["seconds"] = 5.0
    assert _compare(tmp_path, base, shorter) == 2
