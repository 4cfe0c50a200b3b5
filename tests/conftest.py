"""Suite-wide pytest configuration.

The property suites draw their examples from a seed derived from each
test's source, not from the clock or a local example database, so a
run is reproducible from the commit alone.  A counter-example found by
other means is pinned as an explicit test next to its property.
"""

from hypothesis import settings

settings.register_profile("repro", derandomize=True)
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
