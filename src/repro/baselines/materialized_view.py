"""Batch-refresh materialized views — the paper's closest relative.

Section 5: "MVs ... are refreshed in batch mode and therefore may be out
of date at the time of the query ... when the update starts, the whole
batch is processed."  This baseline implements both refresh modes the
paper describes:

- ``full``   — recompute the view from scratch (the whole batch);
- ``incremental`` — process only base rows newer than the last refresh
  and fold them into the stored aggregates ("even if the DBMS is clever
  enough to process the changes incrementally, disk operations ...
  take significant time").

The view definition is restricted to the additive-aggregate shape that
dominates analytics (GROUP BY columns + count/sum/min/max), which is
also what channels+active tables compute — so experiment E5 compares
like for like: staleness and refresh cost versus a continuously
maintained active table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.database import Database
from repro.errors import ExecutionError
from repro.storage.disk import DiskStats

#: supported additive aggregates: (op, column) with column None for count(*)
AggSpec = Tuple[str, Optional[str]]


@dataclass
class RefreshCost:
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0
    io: DiskStats = field(default_factory=DiskStats)
    rows_processed: int = 0


class BatchRefreshMV:
    """A materialized aggregate view over an append-only base table."""

    def __init__(self, db: Database, name: str, base_table: str,
                 group_columns: List[str], aggregates: List[AggSpec],
                 time_column: str, mode: str = "full"):
        if mode not in ("full", "incremental"):
            raise ExecutionError(f"unknown refresh mode {mode!r}")
        self.db = db
        self.name = name
        self.base_table = base_table
        self.group_columns = list(group_columns)
        self.aggregates = list(aggregates)
        self.time_column = time_column
        self.mode = mode
        self.last_refresh_time: Optional[float] = None  # event-time horizon
        self.refresh_count = 0
        self.total_cost = RefreshCost()
        self._create_view_table()

    # -- setup -------------------------------------------------------------

    def _agg_select_list(self) -> str:
        parts = []
        for op, column in self.aggregates:
            if column is None:
                parts.append(f"{op}(*)")
            else:
                parts.append(f"{op}({column})")
        return ", ".join(parts)

    def _create_view_table(self) -> None:
        base = self.db.get_table(self.base_table)
        parts = []
        for column in self.group_columns:
            datatype = base.schema.column(column).datatype.sql_name()
            parts.append(f"{column} {datatype}")
        for i, (op, _column) in enumerate(self.aggregates):
            parts.append(f"agg{i}_{op} double precision")
        self.db.execute(f"CREATE TABLE {self.name} ({', '.join(parts)})")

    # -- refresh -----------------------------------------------------------

    def refresh(self, up_to_time: Optional[float] = None) -> RefreshCost:
        """One batch refresh (the timer fired).  Returns its cost."""
        before_io = self.db.io_snapshot()
        started = time.perf_counter()
        if self.mode == "full":
            rows = self._refresh_full(up_to_time)
        else:
            rows = self._refresh_incremental(up_to_time)
        self.db.storage.pool.flush()
        cost = RefreshCost(
            wall_seconds=time.perf_counter() - started,
            io=self.db.io_snapshot() - before_io,
            rows_processed=rows,
        )
        cost.sim_seconds = self.db.disk.elapsed_seconds(cost.io)
        self.refresh_count += 1
        self.total_cost.wall_seconds += cost.wall_seconds
        self.total_cost.sim_seconds += cost.sim_seconds
        self.total_cost.rows_processed += cost.rows_processed
        if up_to_time is not None:
            self.last_refresh_time = up_to_time
        return cost

    def _time_bound(self, up_to_time: Optional[float]) -> str:
        if up_to_time is None:
            return ""
        return f" WHERE {self.time_column} < {up_to_time!r}"

    def _refresh_full(self, up_to_time: Optional[float]) -> int:
        group_list = ", ".join(self.group_columns)
        sql = (
            f"SELECT {group_list}, {self._agg_select_list()} "
            f"FROM {self.base_table}{self._time_bound(up_to_time)} "
            f"GROUP BY {group_list}"
        )
        fresh = self.db.query(sql)
        self.db.execute(f"DELETE FROM {self.name}")
        self.db.insert_table(self.name, fresh.rows)
        count = self.db.query(
            f"SELECT count(*) FROM {self.base_table}"
            f"{self._time_bound(up_to_time)}"
        ).scalar()
        return count

    def _refresh_incremental(self, up_to_time: Optional[float]) -> int:
        group_list = ", ".join(self.group_columns)
        bounds = []
        if self.last_refresh_time is not None:
            bounds.append(f"{self.time_column} >= {self.last_refresh_time!r}")
        if up_to_time is not None:
            bounds.append(f"{self.time_column} < {up_to_time!r}")
        where = f" WHERE {' AND '.join(bounds)}" if bounds else ""
        delta = self.db.query(
            f"SELECT {group_list}, {self._agg_select_list()}, count(*) "
            f"FROM {self.base_table}{where} GROUP BY {group_list}"
        )
        if not delta.rows:
            return 0
        current = {tuple(r[:len(self.group_columns)]):
                   list(r[len(self.group_columns):])
                   for r in self.db.table_rows(self.name)}
        rows_processed = 0
        for row in delta.rows:
            key = tuple(row[:len(self.group_columns)])
            fresh = list(row[len(self.group_columns):-1])
            rows_processed += row[-1]
            if key in current:
                current[key] = [
                    _merge(op, old, new)
                    for (op, _c), old, new in zip(self.aggregates,
                                                  current[key], fresh)
                ]
            else:
                current[key] = fresh
        self.db.execute(f"DELETE FROM {self.name}")
        self.db.insert_table(
            self.name, [key + tuple(vals) for key, vals in current.items()])
        return rows_processed

    # -- querying -----------------------------------------------------------

    def query(self, where: str = "") -> list:
        clause = f" WHERE {where}" if where else ""
        return self.db.query(f"SELECT * FROM {self.name}{clause}").rows

    def staleness(self, now: float) -> float:
        """How far behind the view is (seconds of un-refreshed data)."""
        if self.last_refresh_time is None:
            return float("inf")
        return max(0.0, now - self.last_refresh_time)


def _merge(op: str, old, new):
    if old is None:
        return new
    if new is None:
        return old
    if op in ("count", "sum"):
        return old + new
    if op == "min":
        return min(old, new)
    if op == "max":
        return max(old, new)
    raise ExecutionError(f"aggregate {op!r} is not additive")
