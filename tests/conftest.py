"""Suite-wide pytest configuration.

The property suites draw their examples from a seed derived from each
test's source, not from the clock or a local example database, so a
run is reproducible from the commit alone.  A counter-example found by
other means is pinned as an explicit test next to its property.

``stateful_step_count`` only reaches the one state machine,
``tests/test_differential.py``.  The ``deep`` profile replays the same
seeds much further: 1 000 examples per property instead of 100, each
up to 200 steps instead of 12 (``make differential``).
"""

from hypothesis import settings

settings.register_profile("repro", derandomize=True, stateful_step_count=12)
settings.register_profile("deep", derandomize=True, max_examples=1000,
                          stateful_step_count=200)
settings.load_profile("repro")


def rebuilt_from(wal, **options):
    """A new in-memory engine rebuilt from ``wal``'s durable records: a
    ``WalApplier`` fed them, then promoted (what an in-memory seeded
    storm leaves behind has no directory to reopen)."""
    from repro.core.database import Database
    from repro.replication import WalApplier
    db = Database(**options)
    applier = WalApplier(db)
    for record in wal.durable_records():
        applier.apply(record)
    applier.promote()
    return db


def replay(wal) -> dict:
    """Reconstruct committed table contents from the durable log.

    Returns ``{table_name: [row_tuple, ...]}`` for all rows inserted
    by committed transactions and not deleted by committed
    transactions — the durable state a restarted engine would load.
    The log is truncated at the first corrupt/torn record, and a
    transaction whose abort is on record is never replayed even if a
    stray commit record precedes it (a commit whose flush failed).
    """
    from repro.storage.wal import ABORT, COMMIT, DELETE, INSERT, UPDATE
    durable = list(wal.durable_records())
    committed = {r.txid for r in durable if r.kind == COMMIT} \
        - {r.txid for r in durable if r.kind == ABORT}
    live: dict = {}
    for record in durable:
        if record.txid not in committed:
            continue
        if record.kind in (INSERT, UPDATE):
            live.setdefault(record.table, {})[record.rid] = record.after
        elif record.kind == DELETE:
            live.setdefault(record.table, {}).pop(record.rid, None)
    return {table: list(rows.values())
            for table, rows in live.items() if rows}
