"""Mechanics shared by the ledger's workloads: locating the engine,
server subprocesses, closed- and open-loop drivers, order statistics.

Everything here drives the engine through its public surface only
(``repro.client``, ``python -m repro.server``, ``repro.Database``,
``repro.partition.PartitionedEngine``).  Every file the ledger writes
lives under this directory (``.work/`` scratch, ``results/`` output), so
a run never leaves its checkout.
"""

from __future__ import annotations

import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, List, Optional, Sequence

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")
RESULTS_DIR = os.path.join(LEDGER_DIR, "results")
WORK_ROOT = os.path.join(LEDGER_DIR, ".work")

clock = time.perf_counter


def ensure_engine_importable() -> None:
    """Put the checkout's ``src/`` on ``sys.path`` (the driver runs the
    ledger without PYTHONPATH).  Exits non-zero when there is no engine
    to measure — e.g. a directory holding only the benchmark's files."""
    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        print(f"ledger: no engine source at {SRC_DIR}; nothing to "
              "measure", file=sys.stderr)
        raise SystemExit(2)
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)


def load_trace():
    """The ledger's ``trace.py`` under the module name ``ledger_trace``
    — a bare ``import trace`` may find the standard library's."""
    import importlib.util
    cached = sys.modules.get("ledger_trace")
    if cached is not None:
        return cached
    spec = importlib.util.spec_from_file_location(
        "ledger_trace", os.path.join(LEDGER_DIR, "trace.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules["ledger_trace"] = module
    spec.loader.exec_module(module)
    return module


def child_env() -> dict:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (SRC_DIR if not existing
                         else SRC_DIR + os.pathsep + existing)
    return env


# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample (a phase the
    workload does not have)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


# ---------------------------------------------------------------------------
# scratch directory
# ---------------------------------------------------------------------------

class WorkDir:
    """``.work/<pid>/`` under the ledger directory, removed on exit."""

    def __init__(self):
        self.path = os.path.join(WORK_ROOT, str(os.getpid()))
        self._counter = 0

    def __enter__(self) -> "WorkDir":
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        return self

    def __exit__(self, *exc) -> bool:
        shutil.rmtree(self.path, ignore_errors=True)
        return False

    def fresh(self, label: str) -> str:
        self._counter += 1
        path = os.path.join(self.path, f"{label}-{self._counter}")
        os.makedirs(path)
        return path


def tree_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


# ---------------------------------------------------------------------------
# server subprocess
# ---------------------------------------------------------------------------

_BANNER = re.compile(r"listening on ([\d.]+):(\d+)")


class Server:
    """``python -m repro.server --port 0 [...]`` as a child process.

    ``trace_label`` starts it through ``traced_server.py`` instead,
    which installs the span wrappers first and writes
    ``results/trace_<label>.jsonl`` + ``.summary.json`` on shutdown.
    """

    def __init__(self, data_dir: Optional[str] = None,
                 trace_label: Optional[str] = None):
        self.data_dir = data_dir
        self.trace_label = trace_label
        self.proc: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0

    def start(self) -> "Server":
        if self.trace_label is not None:
            argv = [sys.executable,
                    os.path.join(LEDGER_DIR, "traced_server.py"),
                    "--trace-label", self.trace_label]
        else:
            argv = [sys.executable, "-m", "repro.server"]
        argv += ["--port", "0"]
        if self.data_dir is not None:
            argv += ["--data-dir", self.data_dir]
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, text=True, env=child_env(),
            cwd=REPO_ROOT)
        # a recovering server is silent until replay finishes
        line = self.proc.stdout.readline()
        match = _BANNER.search(line)
        if not match:
            self.kill()
            raise RuntimeError(f"server printed no banner: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        return self

    def connect(self, timeout: float = 30.0):
        from repro.client import connect
        return connect(self.host, self.port, timeout=timeout)

    def kill(self) -> None:
        """SIGKILL — the crash half of the durability check."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self._reap()

    def stop(self) -> None:
        """Graceful stop (SIGTERM drains and, when traced, flushes the
        spans); SIGKILL after 20 s."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.proc.send_signal(signal.SIGKILL)
        self._reap()

    def _reap(self) -> None:
        if self.proc is None:
            return
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.proc = None

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False


# ---------------------------------------------------------------------------
# closed loop: next call only after the previous one returned
# ---------------------------------------------------------------------------

class ClosedLoopResult:
    def __init__(self, call_rows: List[int], call_ms: List[float],
                 refused: int):
        self.call_rows = call_rows      # rows offered per call
        self.call_ms = call_ms
        self.events = sum(call_rows)
        self.wall_s = sum(call_ms) / 1000.0
        self.refused = refused          # rows offered but not accepted

    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_s


def undisturbed(repetitions: Sequence[ClosedLoopResult]) -> ClosedLoopResult:
    """One phase out of its repetitions: every call at the fastest of the
    times it took.

    The repetitions make the same calls with the same rows, each in a
    fresh engine, so call *k* does the same work every time; what
    differs is what the shared host took away while it ran.  That only
    ever adds time, and it comes in bursts of a few milliseconds to a
    few hundred, so among a call's few repetitions one is nearly always
    clean: the sum of the per-call minima is the phase as an undisturbed
    machine would have run it — every call still in it, a collector
    pause or a segment roll included, because those come at the same
    call in every repetition.  Over six runs minutes apart the plain
    ``events / wall_s`` of a served phase moved 17%, the median of ten
    block rates 18%, this (three runs at a time) 3%."""
    first = repetitions[0]
    for other in repetitions[1:]:
        if other.call_rows != first.call_rows:
            raise ValueError("repetitions of a phase made different calls")
    fastest = [min(times) for times in
               zip(*(result.call_ms for result in repetitions))]
    return ClosedLoopResult(first.call_rows, fastest,
                            max(result.refused for result in repetitions))


def closed_loop(send: Callable[[list], int], chunks: List[list]
                ) -> ClosedLoopResult:
    """Feed ``chunks`` back to back; one client, one call in flight.
    ``send`` returns the rows the engine accepted."""
    call_ms: List[float] = []
    accepted = 0
    before = clock()
    for chunk in chunks:
        accepted += send(chunk)
        after = clock()
        call_ms.append((after - before) * 1000.0)
        before = after
    call_rows = [len(chunk) for chunk in chunks]
    return ClosedLoopResult(call_rows, call_ms, sum(call_rows) - accepted)


def chunked(rows: list, size: int) -> List[list]:
    return [rows[i:i + size] for i in range(0, len(rows), size)]


# ---------------------------------------------------------------------------
# open loop: one frame every ``interval`` seconds, whatever the server does
# ---------------------------------------------------------------------------

class PacedResult:
    """Per-frame record of an open-loop phase.  All times are seconds on
    this process's ``perf_counter``; ``t0`` is when frame 0 was due."""

    def __init__(self, t0: float):
        self.t0 = t0
        self.ack_ms: List[float] = []       # ack time - due time
        self.late_send_ms: List[float] = []  # unblocked sends only
        self.blocked = 0                    # frames due before prior ack
        self.refused_frames = 0
        self.frames = 0
        self.events = 0
        self.wall_s = 0.0


def paced_feed(send: Callable[[list], int], frames: List[list],
               interval: float, on_start: Optional[Callable] = None
               ) -> PacedResult:
    """Send frame *k* at ``t0 + k*interval``.  The client is synchronous,
    so a stall delays later frames; every latency is therefore taken
    from the frame's *due* time, which charges that wait to the server
    instead of hiding it (coordinated omission)."""
    t0 = clock() + 0.05
    result = PacedResult(t0)
    if on_start is not None:
        on_start(t0)
    for k, frame in enumerate(frames):
        due = t0 + k * interval
        now = clock()
        if now > due:
            result.blocked += 1         # previous ack was still pending
        else:
            time.sleep(due - now)
            result.late_send_ms.append((clock() - due) * 1000.0)
        try:
            accepted = send(frame)
        except Exception as exc:        # refused or errored frame
            print(f"ledger: frame {k} failed: {exc!r}", file=sys.stderr)
            accepted = -1
        done = clock()
        result.ack_ms.append((done - due) * 1000.0)
        if accepted != len(frame):
            result.refused_frames += 1
        result.frames += 1
        result.events += len(frame)
    result.wall_s = clock() - t0
    return result


_SPIN = """
import os, sys
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
while os.getppid() == int(sys.argv[1]):     # never outlive the ledger
    for _ in range(1000000):
        pass
"""


class KeepAwake:
    """One idle-priority busy loop per core for the length of a served
    phase.

    A served phase is a ping-pong between processes: while one works the
    other sleeps, its vCPU halts, and every wake-up goes through the
    hypervisor: 0.2-1 ms each, four per frame, depending on what the
    host is doing that minute.  That made ``ack_p50_ms`` read 3.3 ms or
    4.5 ms on identical inputs, the generator's own
    ``late_send_p99_ms`` wander past its 5 ms limit, and an in-memory
    ``sat`` phase run 11% slower.  ``SCHED_IDLE`` loops run only when
    nothing else wants the core, so they take nothing from the engine;
    they keep the cores from halting, which is the state a loaded
    production host is in anyway."""

    def __enter__(self) -> "KeepAwake":
        self._procs = [
            subprocess.Popen([sys.executable, "-c", _SPIN, str(os.getpid())])
            for _ in range(os.cpu_count() or 1)]
        return self

    def __exit__(self, *exc) -> bool:
        for proc in self._procs:
            proc.kill()
        for proc in self._procs:
            proc.wait()
        return False


class Background:
    """A worker thread that runs ``fn(stop_event)`` until stopped and
    re-raises whatever it raised when joined."""

    def __init__(self, fn: Callable[[threading.Event], None], name: str):
        self.stop_event = threading.Event()
        self._error: Optional[BaseException] = None

        def run():
            try:
                fn(self.stop_event)
            except BaseException as exc:   # re-raised in join()
                self._error = exc
        self._thread = threading.Thread(target=run, name=name, daemon=True)

    def start(self) -> "Background":
        self._thread.start()
        return self

    def join(self, timeout: float = 30.0) -> None:
        self.stop_event.set()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError(f"{self._thread.name} did not stop")
        if self._error is not None:
            raise self._error
