"""Column and row-schema descriptions shared by tables, streams and plans."""

from __future__ import annotations

from typing import List, Optional

from repro.errors import BindError, ConstraintError
from repro.types.datatypes import DataType, type_from_name

#: value types ``DataType.coerce`` returns unchanged, per type class;
#: keyed by class name so bigint/smallint (IntegerType instances) share
#: the entry.  int is not canonical for double/timestamp (coerce
#: converts to float) and bool is never canonical for int/float.
_CANONICAL_TYPES = {
    "IntegerType": frozenset((int,)),
    "DoubleType": frozenset((float,)),
    "TimestampType": frozenset((float,)),
    "BooleanType": frozenset((bool,)),
    "VarcharType": frozenset((str,)),
}


class Column:
    """One column: a name, a declared type, and constraints.

    ``cqtime`` marks the ordering attribute of a stream (Example 1 in the
    paper: ``atime timestamp CQTIME USER``); it is ``None`` for ordinary
    columns, ``'user'`` when event time is supplied by the tuple, and
    ``'system'`` when the engine stamps arrival time.
    """

    __slots__ = ("name", "datatype", "not_null", "primary_key", "cqtime")

    def __init__(self, name: str, datatype: DataType, not_null: bool = False,
                 primary_key: bool = False, cqtime: Optional[str] = None):
        self.name = name
        self.datatype = datatype
        self.not_null = not_null
        self.primary_key = primary_key
        self.cqtime = cqtime

    def __repr__(self):
        return f"Column({self.name} {self.datatype.sql_name()})"


class Schema:
    """An ordered list of columns with fast name lookup.

    Plan nodes carry a ``Schema`` describing the rows they produce, so the
    same machinery types both stored tables and intermediate results.
    """

    def __init__(self, columns: List[Column]):
        self.columns = list(columns)
        self._index = {}
        for i, column in enumerate(self.columns):
            # first occurrence wins for duplicate names (SQL allows dups
            # in intermediate results; unqualified lookup is ambiguous)
            self._index.setdefault(column.name.lower(), i)

    def to_specs(self) -> List[dict]:
        """The columns as plain data — the form the WAL's ``ddl`` and
        ``ddl_obj`` records carry.  :meth:`from_specs` is the inverse."""
        return [{"name": c.name, "type": c.datatype.sql_name(),
                 "not_null": c.not_null, "primary_key": c.primary_key,
                 "cqtime": c.cqtime} for c in self.columns]

    @classmethod
    def from_specs(cls, specs) -> "Schema":
        columns = []
        for spec in specs:
            base, _, length = spec["type"].partition("(")
            datatype = type_from_name(
                base, int(length.rstrip(")")) if length else None)
            columns.append(Column(
                spec["name"], datatype, not_null=spec["not_null"],
                primary_key=spec["primary_key"],
                cqtime=spec.get("cqtime")))
        return cls(columns)

    def __len__(self):
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def names(self) -> List[str]:
        return [column.name for column in self.columns]

    def index_of(self, name: str) -> int:
        """Position of ``name`` (case-insensitive); raises BindError."""
        i = self._index.get(name.lower())
        if i is None:
            raise BindError(f"column {name!r} does not exist")
        return i

    def has_column(self, name: str) -> bool:
        return name.lower() in self._index

    def column(self, name: str) -> Column:
        return self.columns[self.index_of(name)]

    def cqtime_index(self) -> Optional[int]:
        """Index of the CQTIME ordering column, or None."""
        for i, column in enumerate(self.columns):
            if column.cqtime is not None:
                return i
        return None

    def coerce_row(self, values) -> tuple:
        """Validate and coerce a full row to this schema.

        Raises :class:`ConstraintError` on arity or NOT NULL violations.
        """
        try:
            width = len(values)
        except TypeError:
            raise ConstraintError(
                f"a row is a sequence of {len(self.columns)} values, "
                f"got {values!r}") from None
        if width != len(self.columns):
            raise ConstraintError(
                f"row has {width} values, schema has {len(self.columns)}"
            )
        out = []
        for column, value in zip(self.columns, values):
            coerced = column.datatype.coerce(value)
            if coerced is None and column.not_null:
                raise ConstraintError(
                    f"null value in column {column.name!r} violates NOT NULL"
                )
            out.append(coerced)
        return tuple(out)

    def coerce_rows(self, rows) -> list:
        """Bulk :meth:`coerce_row`, column at a time.

        A column whose values are already in canonical Python form
        (the exact type ``coerce`` would return unchanged) is passed
        through after one C-level type scan instead of a Python-level
        coercion call per value — the dominant case for programmatic
        ingest, where this is ~5x cheaper than mapping ``coerce_row``.
        Any column that fails the scan falls back to per-value
        coercion, so semantics and error behaviour match exactly.
        """
        columns = self.columns
        ncols = len(columns)
        for values in rows:
            if len(values) != ncols:
                raise ConstraintError(
                    f"row has {len(values)} values, schema has {ncols}")
        if not rows:
            return []
        cols = zip(*rows)
        out_cols = []
        rebuilt = False
        for column, values in zip(columns, cols):
            datatype = column.datatype
            kinds = set(map(type, values))
            has_none = type(None) in kinds
            if has_none:
                kinds.discard(type(None))
            fast = False
            if not (has_none and column.not_null):
                canonical = _CANONICAL_TYPES.get(type(datatype).__name__)
                if canonical is not None and kinds <= canonical:
                    length = getattr(datatype, "length", None)
                    if length is None:
                        fast = True
                    elif kinds:  # varchar(n): one C-level length scan
                        fast = max(map(len, (v for v in values
                                             if v is not None))) <= length
                    else:
                        fast = True  # all-NULL column
            if fast:
                out_cols.append(values)
                continue
            rebuilt = True
            coerce = datatype.coerce
            coerced = []
            for value in values:
                value = coerce(value)
                if value is None and column.not_null:
                    raise ConstraintError(
                        f"null value in column {column.name!r} "
                        f"violates NOT NULL")
                coerced.append(value)
            out_cols.append(coerced)
        if not rebuilt:
            # every column was canonical: the rows pass through as-is
            return list(map(tuple, rows))
        return list(zip(*out_cols))

    def project(self, names) -> "Schema":
        """A new schema with just the named columns, in the given order."""
        return Schema([self.columns[self.index_of(name)] for name in names])

    def rename(self, new_names) -> "Schema":
        """A copy with columns renamed positionally."""
        if len(new_names) != len(self.columns):
            raise BindError("rename arity mismatch")
        return Schema([
            Column(name, col.datatype, col.not_null, col.primary_key, col.cqtime)
            for name, col in zip(new_names, self.columns)
        ])

    def __repr__(self):
        inner = ", ".join(f"{c.name} {c.datatype.sql_name()}" for c in self.columns)
        return f"Schema({inner})"
