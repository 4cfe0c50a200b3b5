"""Column and row-schema descriptions shared by tables, streams and plans."""

from __future__ import annotations

from itertools import repeat
from typing import List, Optional

from repro.errors import BindError, ConstraintError
from repro.rowblock import F8, I8, NULL_FLAG, STR, Block
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

#: the row-block column kind that decodes to exactly those types
_CANONICAL_TAGS = {"IntegerType": I8, "DoubleType": F8,
                   "TimestampType": F8, "VarcharType": STR}


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
        #: per column, the value types that pass :meth:`coerce_row` as
        #: they are, and a varchar's length limit
        self._passes = [
            (_CANONICAL_TYPES.get(type(c.datatype).__name__, ()),
             getattr(c.datatype, "length", None)) for c in self.columns]
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
        for column, (canonical, length), value in zip(
                self.columns, self._passes, values):
            if type(value) in canonical \
                    and (length is None or len(value) <= length):
                out.append(value)   # what coerce would return
                continue
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
        through instead of a Python-level coercion call per value: a
        :class:`~repro.rowblock.Block`'s column by its kind tag (its null
        flag only where NULL is allowed), any other after one C-level
        type scan.  Any column that fails falls back to per-value
        coercion, so semantics and error behaviour match exactly.  When
        none failed the rows pass through, a block as itself.
        """
        columns = self.columns
        ncols = len(columns)
        if set(map(len, rows)) - {ncols}:
            for values in rows:     # name the first offender
                if len(values) != ncols:
                    raise ConstraintError(
                        f"row has {len(values)} values, schema has {ncols}")
        if not rows:
            return []
        block = isinstance(rows, Block)
        cols, tags = ((rows.columns, rows.tags) if block
                      else (zip(*rows), repeat(0)))
        out_cols = []
        rebuilt = False
        for column, values, tag in zip(columns, cols, tags):
            datatype = column.datatype
            kind = type(datatype).__name__
            if tag & ~NULL_FLAG == _CANONICAL_TAGS.get(kind) \
                    and not (tag & NULL_FLAG and column.not_null):
                has_none, fast = tag & NULL_FLAG, True   # typed by its bytes
            else:
                kinds = set(map(type, values))
                has_none = type(None) in kinds
                kinds.discard(type(None))
                canonical = _CANONICAL_TYPES.get(kind)
                fast = (not (has_none and column.not_null)
                        and canonical is not None and kinds <= canonical)
            length = getattr(datatype, "length", None)
            if fast and length is not None:  # varchar(n): one length scan
                present = ([v for v in values if v is not None]
                           if has_none else values)
                fast = not present or max(map(len, present)) <= length
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
            return rows if block else list(map(tuple, rows))
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
