"""Consistent hashing of partition keys onto workers.

The ring places :data:`REPLICAS` virtual nodes per worker on a 32-bit
circle; a key routes to the first virtual node at or clockwise from its
hash.  Keys hash through :func:`zlib.crc32` over their string form —
deterministic across processes and Python runs, unlike the builtin
``hash()`` which is salted per process (``PYTHONHASHSEED``) and would
break restart-with-replay and cross-run parity.

NULL keys never enter the ring: the router sends them down the **spill
lane**, worker :data:`SPILL_WORKER`, which absorbs the rows the key
expression cannot place.
"""

from __future__ import annotations

import bisect
import zlib
from typing import List

#: virtual nodes per worker on the ring
REPLICAS = 64
#: the worker that takes every NULL key
SPILL_WORKER = 0


def stable_hash(value) -> int:
    """Deterministic 32-bit hash of a key value (process-independent).

    Hashes the *string form* so ``5`` and ``np.int64(5)`` place
    identically; a str/int collision only co-locates two keys on one
    worker, which is harmless (grouping still uses exact values).
    """
    return zlib.crc32(str(value).encode("utf-8", "surrogatepass"))


class HashRing:
    """Consistent hash ring over ``n_workers`` workers."""

    def __init__(self, n_workers: int):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.n_workers = n_workers
        points = []
        for worker in range(n_workers):
            for replica in range(REPLICAS):
                points.append((stable_hash(f"w{worker}:{replica}"), worker))
        points.sort()
        self._hashes: List[int] = [h for h, _ in points]
        self._workers: List[int] = [w for _, w in points]

    def worker_for(self, key) -> int:
        """Worker owning ``key``; NULL keys go to the spill lane."""
        if key is None:
            return SPILL_WORKER
        point = stable_hash(key)
        i = bisect.bisect_left(self._hashes, point)
        if i == len(self._hashes):
            i = 0
        return self._workers[i]

    def __repr__(self):
        return (f"HashRing(workers={self.n_workers}, "
                f"replicas={REPLICAS}, spill={SPILL_WORKER})")
