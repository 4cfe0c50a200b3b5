"""Building blocks: skewed key choice and arrival-time processes."""

from __future__ import annotations

import math
import random
from typing import Iterable, Iterator, List, Tuple


class ZipfGenerator:
    """Draws integers in [0, n) with a Zipf(s) distribution.

    Uses an inverse-CDF table so draws are O(log n) and exactly
    reproducible from the seed — web URL popularity is famously Zipfian,
    which is why the paper's top-K URL metric (Example 2) is interesting
    at all.
    """

    def __init__(self, n: int, s: float = 1.1, seed: int = 0):
        if n <= 0:
            raise ValueError("n must be positive")
        self.n = n
        self.s = s
        self._rng = random.Random(seed)
        weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
        total = sum(weights)
        self._cdf: List[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total
            self._cdf.append(running)
        self._cdf[-1] = 1.0

    def draw(self) -> int:
        """One draw: 0 is the most popular key."""
        u = self._rng.random()
        lo, hi = 0, self.n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def draws(self, count: int) -> List[int]:
        return [self.draw() for _ in range(count)]


class ArrivalProcess:
    """Event timestamps: uniform, Poisson, or diurnal-bursty arrivals."""

    def __init__(self, rate_per_second: float, start_time: float = 0.0,
                 kind: str = "uniform", seed: int = 0,
                 burst_period: float = 3600.0, burst_factor: float = 3.0):
        if rate_per_second <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate_per_second
        self.kind = kind
        self.start_time = start_time
        self.burst_period = burst_period
        self.burst_factor = burst_factor
        self._rng = random.Random(seed)
        self._now = start_time

    def next_time(self) -> float:
        """The next event's timestamp (monotonically non-decreasing)."""
        if self.kind == "uniform":
            self._now += 1.0 / self.rate
        elif self.kind == "poisson":
            self._now += self._rng.expovariate(self.rate)
        elif self.kind == "bursty":
            phase = (self._now - self.start_time) % self.burst_period
            # rate swings between rate/factor and rate*factor over a period
            swing = math.sin(2 * math.pi * phase / self.burst_period)
            local_rate = self.rate * (self.burst_factor ** swing)
            self._now += self._rng.expovariate(local_rate)
        else:
            raise ValueError(f"unknown arrival kind {self.kind!r}")
        return self._now

    def times(self, count: int) -> Iterator[float]:
        for _ in range(count):
            yield self.next_time()


class OutOfOrderEvents:
    """Reorders timestamped events the way real networks do.

    Each event is held back by a random delivery delay before it
    reaches the server.  The common case is a bounded skew drawn
    uniformly from ``[0, bound]`` — such an event is always on time for
    a watermark tracking out-of-orderness ``>= bound`` — and with
    probability ``straggler_prob`` the event is a heavy-tail straggler
    delayed by ``bound * (1/u) ** tail`` (a Pareto tail modelling the
    phone that reconnects minutes after leaving a dead zone), which can
    land behind the watermark and exercise the lateness policies.

    Deterministic from the seed, so every test replays the exact same
    arrival order.
    """

    def __init__(self, bound: float, straggler_prob: float = 0.0,
                 tail: float = 1.0, seed: int = 0):
        if bound < 0:
            raise ValueError("bound must be non-negative")
        if not 0.0 <= straggler_prob <= 1.0:
            raise ValueError("straggler_prob must be in [0, 1]")
        if tail <= 0:
            raise ValueError("tail must be positive")
        self.bound = bound
        self.straggler_prob = straggler_prob
        self.tail = tail
        self._rng = random.Random(seed)

    def delay(self) -> float:
        """One delivery delay; ``<= bound`` unless it's a straggler."""
        if self.straggler_prob and self._rng.random() < self.straggler_prob:
            u = self._rng.random() or 1e-12
            return self.bound * (1.0 / u) ** self.tail
        return self._rng.random() * self.bound

    def arrivals(self, event_times: Iterable[float]) -> List[Tuple[float, float]]:
        """``(arrival_time, event_time)`` pairs sorted by arrival.

        The sort is stable, so two events arriving at the same instant
        keep their event-time order.
        """
        pairs = [(t + self.delay(), t) for t in event_times]
        pairs.sort(key=lambda pair: pair[0])
        return pairs

    def arrival_order(self, event_times: Iterable[float]) -> List[float]:
        """Event times in the order the network delivers them."""
        return [event for _, event in self.arrivals(event_times)]


def growth_series(base: int, factor: float, steps: int) -> List[int]:
    """Data volumes under compound growth — the Network Effect #1 sweep.

    ``growth_series(10_000, 10, 3)`` models the paper's "10x per year":
    [10000, 100000, 1000000].
    """
    return [int(base * factor ** i) for i in range(steps)]
