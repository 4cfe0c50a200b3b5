"""Columnar batch representation for the vectorized executor.

A :class:`ColumnBatch` is a batch of rows read column-wise: per column a
numpy array plus an optional boolean null mask (``True`` marks a NULL
lane).  A batch over the row-tuple lists the streaming runtime already
produces converts a column the first time a kernel reads it, and hands
row tuples back at the iterator boundary, so the vectorized path is a
drop-in replacement for any subtree of a plan.

numpy is a required dependency (``pyproject.toml``); the iterator
executor stays reachable as the spec — ``vectorize=False`` and every
plan the vectorizer refuses run on it.
"""
from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import List, Sequence

import numpy as np


# DataType kind -> numpy dtype used for the value array.  Anything not
# listed (varchar, unknown types) is stored as an object array, which
# still vectorizes equality filters and grouping.
def dtype_for(datatype) -> object:
    """Pick the numpy dtype for a column of the given engine DataType."""
    name = type(datatype).__name__
    if name == "IntegerType":
        return np.int64
    if name in ("DoubleType", "TimestampType", "IntervalType"):
        return np.float64
    if name == "BooleanType":
        return np.bool_
    return object


class ColumnBatch:
    """A batch of rows stored column-wise.

    :meth:`column` gives column *i* as ``(values, mask)``: ``values`` a
    numpy array, ``mask`` either ``None`` (no NULLs in this batch) or a
    boolean array where ``True`` marks a NULL.  Masked lanes of numeric
    columns hold a fill value (0) and must never be read without
    consulting the mask.  A batch built :meth:`from_rows` keeps its rows
    and converts a column when a kernel first reads it, so a plan pays
    for the columns it reads, not for the schema's width.
    """

    __slots__ = ("columns", "masks", "length", "_rows", "_types")

    def __init__(self, columns: List, masks: List, length: int,
                 rows=None, types=None):
        #: per column its array, or None until :meth:`column` converts it
        self.columns = columns
        self.masks = masks
        self.length = length
        self._rows = rows
        self._types = types

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], types: Sequence) -> "ColumnBatch":
        """A batch over row tuples, typed by the schema's data types;
        no column is converted yet."""
        ncols = len(types)
        return cls([None] * ncols, [None] * ncols, len(rows), rows, types)

    def column(self, i: int):
        """Column ``i`` as ``(values, mask)``, converted from the rows
        the first time it is read."""
        values = self.columns[i]
        if values is None:
            values, mask = _convert(list(map(itemgetter(i), self._rows)),
                                    self._types[i])
            self.columns[i] = values
            self.masks[i] = mask
        return values, self.masks[i]

    def to_rows(self) -> List[tuple]:
        """Plain Python row tuples (NULLs become None): the rows the
        batch was built from, else converted back from the columns."""
        if self._rows is not None:
            return self._rows
        if self.length == 0:
            return []
        pycols = []
        for arr, mask in zip(self.columns, self.masks):
            # .tolist() converts numpy scalars to native Python values
            values = arr.tolist()
            if mask is not None:
                values = [None if m else v
                          for v, m in zip(values, mask.tolist())]
            pycols.append(values)
        return list(zip(*pycols))

    def take(self, keep) -> "ColumnBatch":
        """Return a new batch with only the lanes where ``keep`` is True:
        the rows and the columns converted so far are compressed, the
        others stay unconverted."""
        columns = [None if arr is None else arr[keep] for arr in self.columns]
        masks = [None if m is None else m[keep] for m in self.masks]
        length = int(np.count_nonzero(keep))
        rows = self._rows
        if rows is not None:
            rows = list(compress(rows, keep.tolist()))
        return ColumnBatch(columns, masks, length, rows, self._types)


def _convert(values: list, datatype):
    """One column's Python values as ``(numpy array, NULL mask or None)``."""
    n = len(values)
    dtype = dtype_for(datatype)
    # `None in list` is a C-level scan; a column with no NULLs takes the
    # direct-conversion fast path
    has_null = None in values
    mask = (np.fromiter((v is None for v in values), dtype=bool, count=n)
            if has_null else None)
    if dtype is not object:
        try:
            return np.array([0 if v is None else v for v in values]
                            if has_null else values, dtype=dtype), mask
        except (TypeError, ValueError, OverflowError):
            # e.g. a Python int too large for int64 — keep the exact
            # values in an object array rather than wrap
            pass
    arr = np.empty(n, dtype=object)
    arr[:] = values
    return arr, mask
