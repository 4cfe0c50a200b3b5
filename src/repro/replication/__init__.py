"""High availability: WAL shipping, warm standby, crash-consistent boot.

The paper's Section 4 argues a stream-relational system must recover
*runtime* state (in-flight windows), not just durable state.  This
package makes that true across process boundaries:

- :mod:`repro.replication.bootstrap` — the one replayer
  (``WalApplier.apply`` / ``promote``): rebuild a whole engine (catalog,
  streams, tables, CQ windows) from WAL records, whether they come from
  the data dir at boot or from a primary, one shipment at a time; and
  ``open_database``, the one way to put an engine on a log;
- :mod:`repro.replication.primary` — primary-side WAL shipping to any
  number of attached standbys, resumable from an LSN;
- :mod:`repro.replication.standby` — the standby controller: pulls the
  primary's WAL over the frame protocol, feeds it to the database's
  applier continuously, and promotes (on request or on missed
  heartbeats) with the call boot ends with.
"""

from repro.replication.bootstrap import WalApplier, open_database
from repro.replication.primary import ReplicationManager
from repro.replication.standby import StandbyController

__all__ = ["open_database", "WalApplier", "ReplicationManager",
           "StandbyController"]
