"""Declared SQL data types and coercion rules.

A :class:`DataType` instance validates and coerces Python values into the
canonical runtime representation for a column of that type.  Types are
value objects: equality is structural and instances are hashable so they
can key plan caches.
"""

from __future__ import annotations

from repro.errors import ConstraintError, TypeError_
from repro.types.temporal import parse_interval, parse_timestamp


class DataType:
    """Base class for SQL data types."""

    #: lower-case SQL name, set by subclasses
    name = "unknown"

    def coerce(self, value):
        """Coerce ``value`` to this type's runtime representation.

        ``None`` (SQL NULL) always passes through.  Raises
        :class:`repro.errors.TypeError_` when the value cannot be
        represented.
        """
        raise NotImplementedError

    def is_numeric(self) -> bool:
        return False

    def __eq__(self, other):
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self):
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))

    def __repr__(self):
        return self.sql_name()

    def sql_name(self) -> str:
        """The SQL spelling of this type (e.g. ``varchar(50)``)."""
        return self.name


class BooleanType(DataType):
    """SQL BOOLEAN."""

    name = "boolean"

    _TRUE = {"t", "true", "yes", "on", "1"}
    _FALSE = {"f", "false", "no", "off", "0"}

    def coerce(self, value):
        if value is None:
            return None
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float)):
            return bool(value)
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in self._TRUE:
                return True
            if lowered in self._FALSE:
                return False
        raise TypeError_(f"cannot coerce {value!r} to boolean")


class IntegerType(DataType):
    """SQL INTEGER / BIGINT / SMALLINT (Python ints are unbounded)."""

    name = "integer"

    def __init__(self, name: str = "integer"):
        self.name = name

    def coerce(self, value):
        if value is None:
            return None
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            if value != int(value):
                raise TypeError_(f"cannot coerce non-integral {value!r} to {self.name}")
            return int(value)
        if isinstance(value, str):
            try:
                return int(value.strip())
            except ValueError as exc:
                raise TypeError_(f"cannot coerce {value!r} to {self.name}") from exc
        raise TypeError_(f"cannot coerce {value!r} to {self.name}")

    def is_numeric(self) -> bool:
        return True


class DoubleType(DataType):
    """SQL DOUBLE PRECISION / FLOAT / REAL / NUMERIC."""

    name = "double precision"

    def __init__(self, name: str = "double precision"):
        self.name = name

    def coerce(self, value):
        if value is None:
            return None
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value.strip())
            except ValueError as exc:
                raise TypeError_(f"cannot coerce {value!r} to {self.name}") from exc
        raise TypeError_(f"cannot coerce {value!r} to {self.name}")

    def is_numeric(self) -> bool:
        return True


class VarcharType(DataType):
    """SQL VARCHAR(n) / TEXT (``length`` of None means unbounded)."""

    name = "varchar"

    def __init__(self, length=None, name: str = "varchar"):
        self.length = length
        self.name = name

    def coerce(self, value):
        if value is None:
            return None
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif type(value) is str:
            text = value
        else:
            text = str(value)   # a str subclass (numpy's) too: exact str
        if self.length is not None and len(text) > self.length:
            raise ConstraintError(
                f"value of length {len(text)} exceeds {self.sql_name()}"
            )
        return text

    def sql_name(self) -> str:
        if self.length is not None:
            return f"{self.name}({self.length})"
        return self.name


class TimestampType(DataType):
    """SQL TIMESTAMP, stored as epoch seconds (float)."""

    name = "timestamp"

    def coerce(self, value):
        if value is None:
            return None
        return parse_timestamp(value)

    def is_numeric(self) -> bool:
        return True


class IntervalType(DataType):
    """SQL INTERVAL, stored as seconds (float)."""

    name = "interval"

    def coerce(self, value):
        if value is None:
            return None
        return parse_interval(value)

    def is_numeric(self) -> bool:
        return True


_SIMPLE_TYPES = {
    "bool": lambda: BooleanType(),
    "boolean": lambda: BooleanType(),
    "int": lambda: IntegerType("integer"),
    "integer": lambda: IntegerType("integer"),
    "int4": lambda: IntegerType("integer"),
    "int8": lambda: IntegerType("bigint"),
    "bigint": lambda: IntegerType("bigint"),
    "smallint": lambda: IntegerType("smallint"),
    "serial": lambda: IntegerType("integer"),
    "float": lambda: DoubleType(),
    "float8": lambda: DoubleType(),
    "real": lambda: DoubleType("real"),
    "double": lambda: DoubleType(),
    "double precision": lambda: DoubleType(),
    "numeric": lambda: DoubleType("numeric"),
    "decimal": lambda: DoubleType("numeric"),
    "text": lambda: VarcharType(None, "text"),
    "varchar": lambda: VarcharType(None, "varchar"),
    "char": lambda: VarcharType(None, "char"),
    "character varying": lambda: VarcharType(None, "varchar"),
    "timestamp": lambda: TimestampType(),
    "timestamptz": lambda: TimestampType(),
    "date": lambda: TimestampType(),
    "interval": lambda: IntervalType(),
}


def type_from_name(name: str, length=None) -> DataType:
    """Build a :class:`DataType` from its SQL spelling.

    ``length`` applies to character types (``varchar(50)``).

    >>> type_from_name('varchar', 50).sql_name()
    'varchar(50)'
    """
    key = name.strip().lower()
    if key not in _SIMPLE_TYPES:
        raise TypeError_(f"unknown type name {name!r}")
    made = _SIMPLE_TYPES[key]()
    if length is not None:
        if not isinstance(made, VarcharType):
            raise TypeError_(f"type {name!r} does not take a length")
        made = VarcharType(length, made.name)
    return made
