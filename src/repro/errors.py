"""Exception hierarchy for the stream-relational engine.

Every error raised by the public API derives from :class:`TruvisoError` so
applications can catch one base class.  The hierarchy mirrors the layers of
the system: parsing, catalog, planning, execution, storage, transactions,
and the streaming runtime.
"""

from __future__ import annotations


class TruvisoError(Exception):
    """Base class for every error raised by the engine."""


class SQLError(TruvisoError):
    """Base class for errors in the SQL front end."""


class LexerError(SQLError):
    """Raised when the input text cannot be tokenized.

    Carries the offending position so callers can point at the source.
    """

    def __init__(self, message: str, position: int = -1, line: int = -1):
        super().__init__(message)
        self.position = position
        self.line = line


class ParseError(SQLError):
    """Raised when a token stream does not form a valid statement."""

    def __init__(self, message: str, position: int = -1, line: int = -1):
        super().__init__(message)
        self.position = position
        self.line = line


class TypeError_(TruvisoError):
    """Raised on type mismatches during analysis or expression evaluation.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class CatalogError(TruvisoError):
    """Raised for missing/duplicate catalog objects (tables, streams...)."""


class DuplicateObjectError(CatalogError):
    """An object with the same name already exists."""


class UnknownObjectError(CatalogError):
    """The named table/stream/view/channel/index does not exist."""


class PlanningError(TruvisoError):
    """Raised when a parsed statement cannot be turned into a plan."""


class BindError(PlanningError):
    """A name in the query could not be resolved against the catalog."""


class ExecutionError(TruvisoError):
    """Raised during query execution."""


class ConstraintError(ExecutionError):
    """A NOT NULL / type-width constraint was violated."""


class StorageError(TruvisoError):
    """Base class for storage-engine failures."""


class PageFullError(StorageError):
    """No room left in a slotted page for the requested insert."""


class WALError(StorageError):
    """The write-ahead log is corrupt or cannot be replayed."""


class TransactionError(TruvisoError):
    """Base class for transaction failures."""


class TransactionAborted(TransactionError):
    """The transaction was rolled back (deadlock, explicit abort...)."""


class SerializationError(TransactionError):
    """A concurrent update conflicted under the snapshot rules."""


class StreamingError(TruvisoError):
    """Base class for streaming-runtime failures."""


class OutOfOrderError(StreamingError):
    """A tuple arrived with an event time before the stream's watermark."""


class WindowError(StreamingError):
    """An invalid window specification (e.g. advance > visible with gaps)."""


class RecoveryError(StreamingError):
    """Runtime state could not be rebuilt after a crash."""


class PartitionError(StreamingError):
    """A CQ or stream cannot run on the partitioned engine (unsupported
    plan shape, missing partition key, bad worker configuration)."""


class WorkerDiedError(StreamingError):
    """A partition worker process died mid-exchange; the coordinator
    restarts it with replay and retries."""


class NetworkError(TruvisoError):
    """Base class for client/server wire-boundary failures."""


class ProtocolError(NetworkError):
    """A malformed, oversized or out-of-sequence protocol frame."""


class RowBlockError(TruvisoError):
    """A row block (:mod:`repro.rowblock`) is malformed, or rows cannot be
    laid out as one: the wire reports it as :class:`ProtocolError`, the
    log as :class:`WALError`."""


class ConnectionTimeoutError(NetworkError):
    """A client connection attempt did not complete within its deadline.

    Covers both the TCP connect and the hello handshake; carries the
    target so failover loops can report which host timed out.
    """

    def __init__(self, message: str, host: str = "", port: int = 0):
        super().__init__(message)
        self.host = host
        self.port = port


class ReplicationError(NetworkError):
    """WAL shipping or standby apply failed (gap, bad record, bad role)."""


class ReplicationGapError(ReplicationError):
    """The requested WAL range is no longer retained anywhere reachable.

    Raised by ``WriteAheadLog.records_from`` when ``from_lsn`` predates
    the records still held in memory, and by the archive fetch path when
    even the archived segments cannot cover the range.  Carries the
    missing range as structured fields so the primary's attach path can
    consume it (serve the archive instead) and so a standby that does
    hit it logs exactly which LSNs are unrecoverable.  The server ships
    both bounds over the wire so a remote client rebuilds this same
    typed error.
    """

    def __init__(self, message: str, missing_from: int = 0,
                 missing_to: int = 0):
        super().__init__(message)
        self.missing_from = missing_from
        self.missing_to = missing_to


class AdmissionError(TruvisoError):
    """A request was refused by admission control (quota, rate limit,
    or overload shedding) — the request was *not* applied.

    ``retry_after_ms`` is the throttle hint: a number means the refusal
    is transient (token bucket refilling, engine overloaded) and the
    client may retry after that long; ``None`` means the refusal is
    durable (a cumulative quota is exhausted) and retrying is pointless.
    The server ships both fields over the wire so a remote client
    rebuilds this same typed error.
    """

    def __init__(self, message: str, retry_after_ms=None,
                 tenant: str = "", reason: str = ""):
        super().__init__(message)
        self.retry_after_ms = retry_after_ms
        self.tenant = tenant
        self.reason = reason

    @property
    def retryable(self) -> bool:
        return self.retry_after_ms is not None


class RemoteError(NetworkError):
    """An engine error reported by the server over the wire.

    ``remote_type`` carries the server-side exception class name so
    clients can branch on it without importing engine internals.
    """

    def __init__(self, message: str, remote_type: str = "TruvisoError"):
        super().__init__(message)
        self.remote_type = remote_type


class FaultInjected(TruvisoError):
    """A deterministic fault fired at an armed crashpoint.

    Raised only by :mod:`repro.faults`; carries the crashpoint name so
    supervisors and tests can attribute the failure to its site.
    """

    def __init__(self, message: str, crashpoint: str = ""):
        super().__init__(message)
        self.crashpoint = crashpoint
