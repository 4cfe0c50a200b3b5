"""Columnar batch representation for the vectorized executor.

A :class:`ColumnBatch` holds one numpy array per column plus an optional
boolean null mask per column (``True`` marks a NULL lane).  Batches are
built from the row-tuple lists the streaming runtime already produces,
and convert back to plain Python row tuples at the iterator boundary, so
the vectorized path is a drop-in replacement for any subtree of a plan.

numpy is a required dependency (``pyproject.toml``); the iterator
executor stays reachable as the spec — ``vectorize=False`` and every
plan the vectorizer refuses run on it.
"""
from __future__ import annotations

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

    ``columns[i]`` is a numpy array of the column values; ``masks[i]``
    is either ``None`` (no NULLs in this batch) or a boolean array where
    ``True`` marks a NULL.  Masked lanes of numeric columns hold a fill
    value (0) and must never be read without consulting the mask.
    """

    __slots__ = ("columns", "masks", "length")

    def __init__(self, columns: List, masks: List, length: int):
        self.columns = columns
        self.masks = masks
        self.length = length

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], types: Sequence) -> "ColumnBatch":
        """Build a batch from row tuples using the schema's data types."""
        n = len(rows)
        ncols = len(types)
        if n == 0:
            columns = [np.empty(0, dtype=dtype_for(t)) for t in types]
            return cls(columns, [None] * ncols, 0)
        cols = list(zip(*rows))
        columns: List = []
        masks: List = []
        for values, datatype in zip(cols, types):
            dtype = dtype_for(datatype)
            # `None in tuple` is a C-level scan; rows with no NULLs take
            # the direct-conversion fast path.
            has_null = None in values
            if dtype is object:
                arr = np.empty(n, dtype=object)
                arr[:] = values
                if has_null:
                    mask = np.fromiter((v is None for v in values),
                                       dtype=bool, count=n)
                else:
                    mask = None
            elif has_null:
                mask = np.fromiter((v is None for v in values),
                                   dtype=bool, count=n)
                arr = np.array([0 if v is None else v for v in values],
                               dtype=dtype)
            else:
                mask = None
                try:
                    arr = np.array(values, dtype=dtype)
                except (TypeError, ValueError, OverflowError):
                    # e.g. a Python int too large for int64 — keep the
                    # exact values in an object array rather than wrap
                    arr = np.empty(n, dtype=object)
                    arr[:] = values
            columns.append(arr)
            masks.append(mask)
        return cls(columns, masks, n)

    def to_rows(self) -> List[tuple]:
        """Convert back to plain Python row tuples (NULLs become None)."""
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
        """Return a new batch with only the lanes where ``keep`` is True."""
        columns = [arr[keep] for arr in self.columns]
        masks = [None if m is None else m[keep] for m in self.masks]
        length = int(columns[0].shape[0]) if columns else 0
        return ColumnBatch(columns, masks, length)
