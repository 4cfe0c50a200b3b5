"""The admission controller: tenants, quotas, and tiered load shedding.

One controller guards one database.  Sessions bind a tenant name at
handshake; every ingest batch passes through :meth:`AdmissionController.admit`
*on the event-loop thread, before the engine is touched* — the point of
admission control is that over-limit work never costs engine time.

Checks, in order:

1. **cumulative quotas** (rows / bytes per tenant) — exhaustion is a
   durable refusal: ``AdmissionError`` with ``retry_after_ms=None``;
2. **pressure tiers**, keyed on the engine executor's queue depth:
   at ``hard_depth`` the batch is *shed* (accepted on the wire, rows
   dropped with dead-letter accounting); at ``soft_depth`` bulk batches
   are rejected with a retry hint while small ones still flow;
3. **token bucket** rate limit — a transient refusal carrying the
   bucket's own refill time as ``retry_after_ms``.

Everything here runs under the controller's own lock, never the
engine's; counters are plain ints surfaced through ``repro_tenants`` /
``repro_admission`` and callback gauges in ``repro_metrics``.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Optional

from repro.admission.bucket import TokenBucket
from repro.admission.dedup import DedupIndex
from repro.clock import Clock, SYSTEM_CLOCK
from repro.errors import AdmissionError

#: the tenant sessions belong to until their hello names one
DEFAULT_TENANT = "default"

#: retry hint handed out for tier-1 overload rejections
OVERLOAD_RETRY_MS = 100


class Tenant:
    """Limits and counters for one named tenant."""

    def __init__(self, name: str, weight: float = 1.0):
        self.name = name
        self.weight = float(weight)
        self.rate_limit: Optional[float] = None   # rows/second
        self.burst: Optional[float] = None        # bucket size (rows)
        self.row_quota: Optional[int] = None      # cumulative rows
        self.byte_quota: Optional[int] = None     # cumulative bytes
        self.bucket: Optional[TokenBucket] = None
        self.sessions = 0
        # counters (admitted are recorded post-engine, from the ack)
        self.rows_ingested = 0
        self.bytes_ingested = 0
        self.batches_admitted = 0
        self.batches_rejected = 0
        self.batches_shed = 0
        self.rows_rejected = 0
        self.rows_shed = 0
        self.duplicates = 0

    def ensure_bucket(self, clock: Clock) -> Optional[TokenBucket]:
        if self.rate_limit is None:
            self.bucket = None
            return None
        burst = self.burst if self.burst is not None else self.rate_limit
        if self.bucket is None:
            self.bucket = TokenBucket(self.rate_limit, burst, clock)
        else:
            self.bucket.configure(self.rate_limit, burst)
        return self.bucket


class AdmissionController:
    """Tenant registry + admission decisions for one database."""

    #: per-tenant limit options settable as defaults (SET tenant_*)
    LIMIT_OPTIONS = ("rate_limit", "burst", "row_quota", "byte_quota",
                     "weight")

    def __init__(self, clock: Clock = SYSTEM_CLOCK, faults=None,
                 dedup_window: int = None):
        self.clock = clock
        self.faults = faults
        self.enabled = False
        self.soft_depth = 64     # tier 1: reject bulk ingest
        self.hard_depth = 256    # tier 2: shed per-tenant
        self.bulk_rows = 32      # a batch this large counts as "bulk"
        self.defaults: Dict[str, Optional[float]] = {
            "rate_limit": None, "burst": None,
            "row_quota": None, "byte_quota": None, "weight": 1.0,
        }
        kwargs = {} if dedup_window is None else {"window": dedup_window}
        self.dedup = DedupIndex(**kwargs)
        self._tenants: Dict[str, Tenant] = {}
        self._lock = threading.Lock()
        # set by the server: zero-arg callable returning the engine
        # executor's queue depth (the pressure signal)
        self.depth_probe = lambda: 0
        # totals across tenants (cheap gauges for repro_metrics)
        self.batches_admitted = 0
        self.batches_rejected = 0
        self.batches_shed = 0
        self.rows_admitted = 0
        self.rows_rejected = 0
        self.rows_shed = 0

    # ------------------------------------------------------------------
    # tenant registry
    # ------------------------------------------------------------------

    def tenant(self, name: str) -> Tenant:
        """The named tenant, created with current defaults on first use."""
        with self._lock:
            return self._tenant_locked(name)

    def _tenant_locked(self, name: str) -> Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            tenant = Tenant(name, weight=self.defaults["weight"])
            tenant.rate_limit = self.defaults["rate_limit"]
            tenant.burst = self.defaults["burst"]
            tenant.row_quota = self.defaults["row_quota"]
            tenant.byte_quota = self.defaults["byte_quota"]
            tenant.ensure_bucket(self.clock)
            self._tenants[name] = tenant
        return tenant

    def configure_tenant(self, name: str, **limits) -> Tenant:
        """Set per-tenant limits explicitly (tests, future DDL)."""
        with self._lock:
            tenant = self._tenant_locked(name)
            for key, value in limits.items():
                if key not in self.LIMIT_OPTIONS:
                    raise ValueError(f"unknown tenant limit {key!r}")
                setattr(tenant, key, value)
            tenant.ensure_bucket(self.clock)
            return tenant

    def set_default(self, option: str, value) -> None:
        """Change a default limit and apply it to every known tenant
        (a SET of a tenant_* option retunes live tenants)."""
        if option not in self.LIMIT_OPTIONS:
            raise ValueError(f"unknown tenant limit {option!r}")
        with self._lock:
            self.defaults[option] = value
            for tenant in self._tenants.values():
                setattr(tenant, option, value)
                tenant.ensure_bucket(self.clock)

    def tenant_weight(self, name: Optional[str]) -> float:
        with self._lock:
            tenant = self._tenants.get(name) if name else None
            if tenant is not None:
                return tenant.weight
            return float(self.defaults["weight"])

    # -- session binding ---------------------------------------------------

    def bind_session(self, name: str) -> Tenant:
        with self._lock:
            tenant = self._tenant_locked(name)
            tenant.sessions += 1
            return tenant

    def release_session(self, name: str) -> None:
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is not None and tenant.sessions > 0:
                tenant.sessions -= 1

    # ------------------------------------------------------------------
    # the admission decision
    # ------------------------------------------------------------------

    def admit(self, tenant_name: str, rows: int, nbytes: int) -> str:
        """Admit, shed, or refuse one ingest batch.

        Returns ``"admit"`` or ``"shed"``; raises :class:`AdmissionError`
        for refusals.  Sheds and refusals are counted here; admissions
        are counted in :meth:`record_result` once the engine reports
        what actually stuck.
        """
        with self._lock:
            tenant = self._tenant_locked(tenant_name)
            faults = self.faults
            if faults is not None and faults.armed:
                injected = faults.poll("admission.quota_check", tenant_name)
                if injected is not None:
                    # the quota check itself died mid-flight: refuse the
                    # batch (nothing was applied) and tell the client to
                    # retry — rejection, never corruption
                    tenant.batches_rejected += 1
                    tenant.rows_rejected += rows
                    self.batches_rejected += 1
                    self.rows_rejected += rows
                    raise AdmissionError(
                        f"admission check failed: {injected}",
                        retry_after_ms=OVERLOAD_RETRY_MS,
                        tenant=tenant_name, reason="fault")
            if not self.enabled:
                return "admit"
            if tenant.row_quota is not None \
                    and tenant.rows_ingested + rows > tenant.row_quota:
                self._count_rejection(tenant, rows)
                raise AdmissionError(
                    f"tenant {tenant_name!r} exceeded its row quota "
                    f"({tenant.rows_ingested}/{tenant.row_quota} used, "
                    f"batch of {rows} refused)",
                    retry_after_ms=None, tenant=tenant_name,
                    reason="row-quota")
            if tenant.byte_quota is not None \
                    and tenant.bytes_ingested + nbytes > tenant.byte_quota:
                self._count_rejection(tenant, rows)
                raise AdmissionError(
                    f"tenant {tenant_name!r} exceeded its byte quota "
                    f"({tenant.bytes_ingested}/{tenant.byte_quota} used, "
                    f"batch of {nbytes} bytes refused)",
                    retry_after_ms=None, tenant=tenant_name,
                    reason="byte-quota")
            depth = self.depth_probe()
            if depth >= self.hard_depth:
                tenant.batches_shed += 1
                tenant.rows_shed += rows
                self.batches_shed += 1
                self.rows_shed += rows
                return "shed"
            if depth >= self.soft_depth and rows >= self.bulk_rows:
                self._count_rejection(tenant, rows)
                raise AdmissionError(
                    f"engine overloaded (queue depth {depth}); bulk "
                    f"ingest of {rows} rows refused, retry shortly",
                    retry_after_ms=OVERLOAD_RETRY_MS,
                    tenant=tenant_name, reason="overload")
            bucket = tenant.bucket
            if bucket is not None:
                wait = bucket.try_take(rows)
                if wait > 0.0:
                    self._count_rejection(tenant, rows)
                    raise AdmissionError(
                        f"tenant {tenant_name!r} over its ingest rate "
                        f"({bucket.rate:g} rows/s); retry in "
                        f"{wait:.3f}s",
                        retry_after_ms=max(1, math.ceil(wait * 1000.0)),
                        tenant=tenant_name, reason="rate-limit")
            return "admit"

    def _count_rejection(self, tenant: Tenant, rows: int) -> None:
        tenant.batches_rejected += 1
        tenant.rows_rejected += rows
        self.batches_rejected += 1
        self.rows_rejected += rows

    def record_result(self, tenant_name: str, accepted: int, shed: int,
                      duplicate: int, nbytes: int) -> None:
        """Fold the engine's ack counts back into the tenant ledger."""
        with self._lock:
            tenant = self._tenant_locked(tenant_name)
            tenant.batches_admitted += 1
            tenant.rows_ingested += accepted
            tenant.bytes_ingested += nbytes
            tenant.rows_shed += shed
            tenant.duplicates += duplicate
            self.batches_admitted += 1
            self.rows_admitted += accepted
            self.rows_shed += shed

    # ------------------------------------------------------------------
    # surfaces
    # ------------------------------------------------------------------

    def tier(self) -> int:
        depth = self.depth_probe()
        if depth >= self.hard_depth:
            return 2
        if depth >= self.soft_depth:
            return 1
        return 0

    def tenants_rows(self):
        """Rows of the ``repro_tenants`` system view."""
        with self._lock:
            out = []
            for name in sorted(self._tenants):
                t = self._tenants[name]
                out.append((
                    name, t.sessions, t.weight, t.rate_limit, t.burst,
                    t.row_quota, t.byte_quota, t.rows_ingested,
                    t.bytes_ingested, t.batches_admitted,
                    t.batches_rejected, t.batches_shed, t.rows_rejected,
                    t.rows_shed, t.duplicates,
                ))
            return out

    def admission_rows(self):
        """The single summary row of ``repro_admission``."""
        depth = self.depth_probe()
        with self._lock:
            return [(
                self.enabled, depth, self.tier(), self.soft_depth,
                self.hard_depth, self.bulk_rows, len(self._tenants),
                self.batches_admitted, self.batches_rejected,
                self.batches_shed, self.rows_admitted,
                self.rows_rejected, self.rows_shed,
                self.dedup.duplicates, self.dedup.sender_count(),
            )]
