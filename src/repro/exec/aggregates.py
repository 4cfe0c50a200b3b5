"""Aggregate functions with *mergeable* partial states.

Every aggregate exposes ``create() -> state``, ``add(state, value)``,
``merge(a, b) -> state`` and ``result(state)``.  Mergeability is what
enables the paper's shared, incremental window processing (Section 2.2,
refs [4, 12]): the streaming engine aggregates each arriving tuple once
into the current *slice*, then combines slice partials at each window
close — and many CQs can combine the same slices.
"""

from __future__ import annotations

import operator

from repro.errors import BindError
from repro.types.datatypes import DoubleType, IntegerType, VarcharType
from repro.types.values import sql_compare

AGGREGATE_NAMES = frozenset({
    "count", "sum", "avg", "min", "max",
    "stddev", "stddev_samp", "stddev_pop",
    "variance", "var_samp", "var_pop",
    "bool_and", "bool_or", "string_agg", "median",
})


class Aggregate:
    """Base class; subclasses define the four state operations."""

    name = "aggregate"
    result_type = DoubleType()
    #: ``result`` returns the state unchanged (a finalize may skip it)
    result_is_state = False
    #: the state holds its input values, so it grows with its rows: a
    #: window of slice partials merged on two stacks would hold O(W²)
    #: of them, and such an aggregate is not sliced
    state_grows = False
    #: a builtin equal to ``merge`` wherever it raises no TypeError (a
    #: column of states merges in one ``map`` through it); None: none is
    fast_merge = None

    def create(self):
        raise NotImplementedError

    def add(self, state, value):
        raise NotImplementedError

    def merge(self, left, right):
        raise NotImplementedError

    def result(self, state):
        raise NotImplementedError


class CountStar(Aggregate):
    """``count(*)`` — counts rows, including NULLs."""

    name = "count"
    result_type = IntegerType("bigint")
    result_is_state = True
    fast_merge = operator.add

    def create(self):
        return 0

    def add(self, state, value):
        return state + 1

    def merge(self, left, right):
        return left + right

    def result(self, state):
        return state


class Count(CountStar):
    """``count(x)`` — counts non-NULL values."""

    def add(self, state, value):
        if value is None:
            return state
        return state + 1


class CountDistinct(Aggregate):
    """``count(DISTINCT x)`` — set-valued state, merge by union."""

    name = "count_distinct"
    result_type = IntegerType("bigint")
    state_grows = True

    def create(self):
        return set()

    def add(self, state, value):
        if value is not None:
            state.add(value)
        return state

    def merge(self, left, right):
        return left | right

    def result(self, state):
        return len(state)


class Sum(Aggregate):
    """``sum(x)`` — NULL over empty input, per the standard."""

    name = "sum"
    result_is_state = True
    fast_merge = operator.add     # a NULL (None) state raises: merge it

    def create(self):
        return None

    def add(self, state, value):
        if value is None:
            return state
        if state is None:
            return value
        return state + value

    def merge(self, left, right):
        return self.add(left, right)    # one monoid: NULL is the identity

    def result(self, state):
        return state


class Avg(Aggregate):
    """``avg(x)`` — (sum, count) state."""

    name = "avg"

    def create(self):
        return (0.0, 0)

    def add(self, state, value):
        if value is None:
            return state
        total, count = state
        return (total + value, count + 1)

    def merge(self, left, right):
        return (left[0] + right[0], left[1] + right[1])

    def result(self, state):
        total, count = state
        if count == 0:
            return None
        return total / count


class _Extreme(Aggregate):
    """Shared implementation of MIN/MAX."""

    result_is_state = True

    def __init__(self, want_max: bool):
        self._want_max = want_max
        self.name = "max" if want_max else "min"
        # the builtins keep the left operand on a tie and compare as
        # sql_compare does wherever they do not raise (NULL, kind clash)
        self.fast_merge = max if want_max else min

    def create(self):
        return None

    def add(self, state, value):
        if value is None:
            return state
        if state is None:
            return value
        c = sql_compare(value, state)
        if self._want_max:
            return value if c > 0 else state
        return value if c < 0 else state

    def merge(self, left, right):
        return self.add(left, right)

    def result(self, state):
        return state


class Variance(Aggregate):
    """Variance/stddev via mergeable (count, sum, sum-of-squares) state.

    The naive moments form is used deliberately: it is exactly mergeable,
    which Welford's online form is not without extra bookkeeping.
    """

    def __init__(self, sample: bool = True, stddev: bool = False):
        self._sample = sample
        self._stddev = stddev
        self.name = ("stddev" if stddev else "variance") + (
            "_samp" if sample else "_pop")

    def create(self):
        return (0, 0.0, 0.0)

    def add(self, state, value):
        if value is None:
            return state
        n, s, ss = state
        return (n + 1, s + value, ss + value * value)

    def merge(self, left, right):
        return (left[0] + right[0], left[1] + right[1], left[2] + right[2])

    def result(self, state):
        n, s, ss = state
        denominator = n - 1 if self._sample else n
        if denominator <= 0:
            return None
        variance = max(0.0, (ss - s * s / n) / denominator)
        if self._stddev:
            return variance ** 0.5
        return variance


class BoolAnd(Aggregate):
    name = "bool_and"
    result_is_state = True

    def create(self):
        return None

    def add(self, state, value):
        if value is None:
            return state
        if state is None:
            return bool(value)
        return state and bool(value)

    def merge(self, left, right):
        return self.add(left, right)

    def result(self, state):
        return state


class BoolOr(BoolAnd):
    name = "bool_or"

    def add(self, state, value):
        if value is None:
            return state
        if state is None:
            return bool(value)
        return state or bool(value)


class Median(Aggregate):
    """``median(x)`` — holds the values; merge concatenates.

    State size is O(window rows), which is bounded for windowed CQs.
    Exact (not an approximation sketch); even-count inputs average the
    two middle values.
    """

    name = "median"
    state_grows = True

    def create(self):
        return []

    def add(self, state, value):
        if value is not None:
            state.append(value)
        return state

    def merge(self, left, right):
        return left + right

    def result(self, state):
        if not state:
            return None
        ordered = sorted(state)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2


class StringAgg(Aggregate):
    """``string_agg(x)`` with ',' separator; list state, mergeable."""

    name = "string_agg"
    result_type = VarcharType(None, "text")
    state_grows = True

    def create(self):
        return []

    def add(self, state, value):
        if value is not None:
            state.append(str(value))
        return state

    def merge(self, left, right):
        return left + right

    def result(self, state):
        if not state:
            return None
        return ",".join(state)


def make_aggregate(name: str, distinct: bool = False,
                   star: bool = False) -> Aggregate:
    """Instantiate the aggregate for a parsed call."""
    name = name.lower()
    if name == "count":
        if distinct:
            return CountDistinct()
        if star:
            return CountStar()
        return Count()
    if distinct:
        raise BindError(f"DISTINCT is only supported for count ({name})")
    if name == "sum":
        return Sum()
    if name == "avg":
        return Avg()
    if name == "min":
        return _Extreme(False)
    if name == "max":
        return _Extreme(True)
    if name in ("stddev", "stddev_samp"):
        return Variance(sample=True, stddev=True)
    if name == "stddev_pop":
        return Variance(sample=False, stddev=True)
    if name in ("variance", "var_samp"):
        return Variance(sample=True, stddev=False)
    if name == "var_pop":
        return Variance(sample=False, stddev=False)
    if name == "bool_and":
        return BoolAnd()
    if name == "bool_or":
        return BoolOr()
    if name == "string_agg":
        return StringAgg()
    if name == "median":
        return Median()
    raise BindError(f"unknown aggregate {name!r}")


def is_aggregate_name(name: str) -> bool:
    return name.lower() in AGGREGATE_NAMES
