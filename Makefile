# Convenience targets for the Continuous Analytics reproduction.

PYTHON ?= python

.PHONY: install test bench chaos examples shell server smoke \
	failover-smoke dr-smoke obs-smoke admission-smoke \
	vectorized-smoke partition-smoke differential \
	bench-all bench-diff bench-smoke bench-pairs artifacts clean loc

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# src/repro source lines, and code-only lines (no blank lines, comments
# or docstrings): the two numbers a change's CHANGES.md entry reports
loc:
	$(PYTHON) scripts/loc.py src/repro

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# the chaos suite replays a fixed fault schedule (seed 2009); see
# docs/FAULTS.md.  The replication/restart files exercise the
# replication.ship, replication.apply and server.boot_recovery
# crashpoints; the admission file exercises admission.quota_check and
# admission.dedup_persist (refusal-not-corruption, torn-batch discard);
# the wal-segments file exercises wal.segment_roll, wal.compact,
# backup.snapshot and scrub.verify (crash-safe WAL lifecycle); the
# partition file exercises partition.route, partition.merge and
# partition.worker_crash (atomic refusal, pending-merge retry,
# restart-with-replay).
chaos:
	$(PYTHON) -m pytest tests/test_chaos.py tests/test_faults.py tests/test_supervisor.py tests/test_replication.py tests/test_ha_restart.py tests/test_admission_chaos.py tests/test_eventtime_chaos.py tests/test_wal_segments.py tests/test_partition_chaos.py -q

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/security_monitoring.py
	$(PYTHON) examples/clickstream_dashboard.py
	$(PYTHON) examples/fault_tolerant_pipeline.py

shell:
	$(PYTHON) -m repro.cli

server:
	$(PYTHON) -m repro.server

# end-to-end check of the network layer: real subprocess, real socket
smoke:
	$(PYTHON) scripts/server_smoke.py

# high availability end to end: SIGKILL the primary mid-window, the
# standby auto-promotes, a subscribed client fails over gap-free
failover-smoke:
	$(PYTHON) scripts/failover_smoke.py

# disaster recovery end to end: online backup over the protocol,
# kill -9, restore + point-in-time recovery to a mid-stream LSN; the
# rebuilt CQ output must be identical to a never-crashed reference
dr-smoke:
	$(PYTHON) scripts/dr_smoke.py

# observability overhead gate: metrics + 1% tracing must stay within
# 5% of the bare engine on the E1 ingest+window workload (X4, small)
obs-smoke:
	$(PYTHON) benchmarks/bench_x4_obs.py

# overload isolation gate: a noisy tenant's burst flood must not
# degrade a well-behaved tenant's p99 delivery latency by 2x (X5)
admission-smoke:
	$(PYTHON) benchmarks/bench_x5_admission.py

# vectorized executor gate: the columnar batch path must be at least
# 3x the row-at-a-time iterator on the E1 ingest+window pipeline (X7)
vectorized-smoke:
	$(PYTHON) benchmarks/bench_x7_vectorized.py

# partitioned execution end to end: real subprocess workers, SIGKILL
# one mid-window, restart-with-replay; CQ output must be bit-identical
# to the single engine
partition-smoke:
	$(PYTHON) scripts/partition_smoke.py

# the differential harness (tests/test_differential.py) replayed from the
# same seeds under the deep profile: 4 000 runs of up to 200 steps each
# (tier-1: 400 of up to 12): every gear and topology against the oracle
differential:
	$(PYTHON) -m pytest tests/test_differential.py --hypothesis-profile=deep

# the ingest->emit ledger (BENCHMARK.json): five workloads end to end,
# untraced and traced; writes benchmarks/ledger/results/ledger_*.json
bench-all:
	$(PYTHON) benchmarks/ledger/run.py

# the ledger at 1/20 size, every workload untraced and traced, < 30 s:
# the check that catches a function trace.py wraps going away
bench-smoke:
	$(PYTHON) -m pytest benchmarks/ledger/test_ledger_smoke.py -q

# compare two ledger files: make bench-diff A=<parent.json> B=<change.json>
bench-diff:
	$(PYTHON) benchmarks/ledger/compare.py $(A) $(B)

# ten alternating pairs of each workload named (W="a b", or W=all: every
# one BENCHMARK.json lists), a ref against the working tree, with
# medians, quartiles, pairs won and failed operations per metric, and a
# last line naming every end-to-end regression:
# make bench-pairs REF=HEAD W=served_durable_e1
bench-pairs:
	$(PYTHON) scripts/bench_pairs.py $(REF) $(W)

artifacts:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis benchmarks/results
