"""Cross-process form of aggregate partial state.

A partial is ``{group_key_tuple: [state, ...]}`` as produced by
``BatchAggregate.accumulate`` / ``partial_for_rows`` and
``HashAggregate.accumulate``.  The vectorized kernels materialize
states through ``.tolist()`` (native Python), but the row-wise
fallbacks and min/max over object lanes can leave **numpy scalars**
inside keys or states.  Those pickle fine, yet they would make merged
coordinator output differ in type from single-engine output (numpy
scalars compare equal but are not identical on the wire and render
differently), so every partial is normalized to native Python values
before transport.  ``normalize_partial`` is idempotent and cheap for
already-native state.

A shard's window whose evaluation raised crosses as data too: the
error's type name and message (:func:`partial_to_wire`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as _np

from repro import errors
from repro.streaming.cq import FailedPartial


def normalize_value(value):
    """Native-Python twin of ``value`` (numpy scalars via ``.item()``,
    containers recursively)."""
    if isinstance(value, _np.generic):
        return value.item()
    if isinstance(value, tuple):
        return tuple(normalize_value(v) for v in value)
    if isinstance(value, list):
        return [normalize_value(v) for v in value]
    return value


def normalize_partial(groups: Dict[Tuple, List]) -> Dict[Tuple, List]:
    """Partial-state dict with every key and state made native."""
    return {
        tuple(normalize_value(k) for k in key):
            [normalize_value(state) for state in states]
        for key, states in groups.items()
    }


def partial_to_wire(partial):
    """What a worker ships for one window: the normalized partial, or a
    deferred failure as ``(error type name, message)``."""
    if isinstance(partial, FailedPartial):
        return (type(partial.error).__name__, str(partial.error))
    return normalize_partial(partial)


def partial_from_wire(shipped):
    """The coordinator's side: an evaluation error comes back as its
    own class, anything else as a ``RemoteError`` carrying the name."""
    if isinstance(shipped, dict):
        return shipped
    name, message = shipped
    cls = getattr(errors, name, None)
    if isinstance(cls, type) and issubclass(cls, errors.ExecutionError):
        return FailedPartial(cls(message))
    return FailedPartial(errors.RemoteError(message, name))
