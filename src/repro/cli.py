"""An interactive TruSQL shell.

Run::

    python -m repro.cli
    echo "SELECT 1 + 1;" | python -m repro.cli
    python -m repro.cli -c "SELECT 1 + 1"        # one-shot, exits nonzero on error
    python -m repro.cli --connect 127.0.0.1:5433 # drive a repro-server

Statements end with ``;``.  Continuous queries become named
subscriptions whose windows are printed by ``\\poll``.  Backslash
commands:

    \\d              list catalog objects
    \\poll [name]    print pending windows of one/all subscriptions
    \\advance T      heartbeat all streams to event time T
    \\flush          flush all streams (drain pending windows)
    \\supervisor     supervision status of every CQ/stream/channel
    \\deadletters [N] last N quarantined tuples/windows (default 20)
    \\replication    replication role, shipped/applied LSNs, lag
    \\storage        WAL segments, archive, backups, scrub status
    \\watermarks     per-stream event-time watermark, lag, late rows
    \\partitions     per-worker shard, routed rows, watermark, lag, busy/wait
    \\tenants        per-tenant admission counters + controller status
    \\stats [cq]     engine metrics + per-CQ window/operator stats
    \\trace [N]      span trees of the last N sampled tuples (default 5)
    \\timing         toggle wall/sim timing output
    \\q              quit

``repro --standby-of HOST:PORT`` starts a warm standby server of that
primary instead of a shell (see docs/REPLICATION.md).

``SET supervision = on`` enables the supervised runtime;
``SET fault_seed = N`` installs a fault injector (see docs/FAULTS.md).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.database import Database
from repro.core.results import ResultSet
from repro.errors import TruvisoError

PROMPT = "trusql> "
CONTINUE_PROMPT = "   ...> "

#: commands that print one system view: its query, and what to say when
#: the view holds no rows
VIEW_COMMANDS = {
    "\\supervisor": (
        "SELECT name, kind, state, failures, restarts, dead_letters "
        "FROM repro_supervisor_status", "(nothing supervised yet)"),
    "\\replication": (
        "SELECT role, peer, state, shipped_lsn, applied_lsn, lag, "
        "last_error FROM repro_replication_status", ""),
    "\\storage": (
        "SELECT mode, live_segments, live_bytes, archive_segments, "
        "archive_bytes, head_lsn, low_water_lsn, last_backup_lsn, "
        "backups, scrubs, scrub_errors, quarantined FROM repro_storage", ""),
    "\\watermarks": (
        "SELECT stream, mode, bound_seconds, watermark, max_event_time, "
        "lag_seconds, late_rows, injections FROM repro_watermarks",
        "(no streams yet)"),
    "\\partitions": (
        "SELECT worker, pid, state, transport, streams, rows_routed, "
        "batches, spill_rows, watermark, lag_seconds, restarts, "
        "replayed_batches, busy_seconds, wait_seconds FROM repro_partitions",
        "(not a partition coordinator; see docs/PARTITION.md)"),
}


class Shell:
    """State and command handling for one CLI session over either kind
    of engine: an embedded :class:`Database` (the default) or a
    :class:`repro.client.Connection` to a ``repro-server``.  Both answer
    ``execute`` / ``query``; continuous queries become subscriptions
    polled with ``\\poll``, and every introspection command is a query
    over the system views, which travel fine."""

    def __init__(self, db=None, out=None):
        self.db = db if db is not None else Database()
        self.remote = not isinstance(self.db, Database)
        # the two verbs the engines name differently, and how long a
        # poll waits for pushes still on the wire
        if self.remote:
            self._advance, self._flush = self.db.advance, self.db.flush
            self._poll_args = (0.2,)
        else:
            self._advance = self.db.advance_streams
            self._flush = self.db.flush_streams
            self._poll_args = ()
        self.out = out if out is not None else sys.stdout
        self.subscriptions = {}
        self._sub_counter = 0
        self.timing = False
        self.errors = 0  # statements that failed (drives -c exit code)

    # -- output ---------------------------------------------------------------

    def write(self, text: str = "") -> None:
        self.out.write(text + "\n")

    # -- command dispatch --------------------------------------------------------

    def handle_line(self, line: str) -> bool:
        """Process one complete input (statement or backslash command).
        Returns False when the shell should exit."""
        stripped = line.strip()
        if not stripped:
            return True
        try:
            if stripped.startswith("\\"):
                return self._command(stripped)
            self._statement(stripped)
        except TruvisoError as exc:     # a dropped connection included
            self.write(f"ERROR: {exc}")
            self.errors += 1
        return True

    def _command(self, text: str) -> bool:
        parts = text.split()
        command, args = parts[0], parts[1:]
        if command in ("\\q", "\\quit"):
            return False
        if command == "\\d":
            self._describe()
        elif command == "\\poll":
            self._poll(args[0] if args else None)
        elif command == "\\advance":
            if not args:
                self.write("usage: \\advance <event-time-seconds>")
            else:
                self._advance(float(args[0]))
                self.write(f"advanced all streams to t={args[0]}")
                self._poll(None)
        elif command == "\\flush":
            self._flush()
            self.write("flushed all streams")
            self._poll(None)
        elif command == "\\supervisor":
            if not self._supervision_off():
                self._show(command)
        elif command == "\\deadletters":
            self._dead_letters(int(args[0]) if args else 20)
        elif command in VIEW_COMMANDS:
            self._show(command)
        elif command == "\\tenants":
            self._tenants()
        elif command == "\\stats":
            self._stats(args[0] if args else None)
        elif command == "\\trace":
            self._trace(int(args[0]) if args else 5)
        elif command == "\\timing":
            self.timing = not self.timing
            self.write(f"timing {'on' if self.timing else 'off'}")
        elif command in ("\\h", "\\help", "\\?"):
            self.write(__doc__.strip())
        else:
            self.write(f"unknown command {command}; try \\help")
        return True

    def _describe(self) -> None:
        rows = []
        for view, label in (("repro_tables", "table"),
                            ("repro_channels", "channel"),
                            ("repro_indexes", "index"),
                            ("repro_cqs", "cq")):
            rows += [(row[0], label)
                     for row in self.db.query(f"SELECT name FROM {view}")]
        for name, kind in self.db.query(
                "SELECT name, kind FROM repro_streams"):
            rows.append((name, "stream" if kind == "base"
                         else "derived stream"))
        if rows:
            self.write("\n".join(f"  {name:<28} {kind}"
                                 for name, kind in sorted(rows)))
        else:
            self.write("(empty catalog)")

    def _poll(self, name) -> None:
        targets = ([(name, self.subscriptions[name])]
                   if name else sorted(self.subscriptions.items()))
        if name and name not in self.subscriptions:
            self.write(f"no subscription named {name!r}")
            return
        for sub_name, sub in targets:
            for window in sub.poll(*self._poll_args):
                self.write(f"-- {sub_name}: {window.kind} "
                           f"[{window.open_time:g}, {window.close_time:g})")
                result = ResultSet(sub.columns, window.rows)
                self.write(result.pretty())

    def _supervision_off(self) -> bool:
        if self.db.query("SHOW supervision").scalar() == "off":
            self.write("supervision is off; SET supervision = on")
            return True
        return False

    def _show(self, command: str) -> None:
        sql, empty = VIEW_COMMANDS[command]
        result = self.db.query(sql)
        self.write(result.pretty() if result.rows else empty)

    def _tenants(self) -> None:
        """Admission-control status: controller tier + per-tenant counters."""
        admission = self.db.query(
            "SELECT enabled, tier, queue_depth, soft_depth, hard_depth, "
            "batches_admitted, batches_rejected, batches_shed, duplicates "
            "FROM repro_admission")
        self.write("-- admission")
        self.write(admission.pretty())
        tenants = self.db.query(
            "SELECT name, sessions, weight, rate_limit, row_quota, "
            "rows_ingested, batches_admitted, batches_rejected, "
            "batches_shed, duplicates FROM repro_tenants")
        if tenants.rows:
            self.write("-- tenants")
            self.write(tenants.pretty())
        else:
            self.write("(no tenants yet; tenants appear at first "
                       "hello/ingest)")

    def _stats(self, cq_name=None) -> None:
        """Engine metrics + per-CQ window and operator stats."""
        # derived streams register as "derived:<name>"; accept either form
        names = f"'{cq_name}', 'derived:{cq_name}'" if cq_name else ""
        where = f" WHERE name IN ({names})" if cq_name else ""
        cqs = self.db.query(
            "SELECT name, tuples_in, windows, rows_out, last_window_ms, "
            f"avg_window_ms, max_window_ms, slow_windows "
            f"FROM repro_cq_stats{where}")
        if cqs.rows:
            self.write("-- continuous queries")
            self.write(cqs.pretty())
        op_where = f" WHERE cq IN ({names})" if cq_name else ""
        operators = self.db.query(
            "SELECT cq, depth, operator, tuples_out, calls, time_ms "
            f"FROM repro_operator_stats{op_where}")
        if operators.rows:
            self.write("-- operators")
            self.write(operators.pretty())
        if cq_name and not cqs.rows and not operators.rows:
            self.write(f"(no stats for '{cq_name}')")
        if not cq_name:
            metrics = self.db.query(
                "SELECT name, kind, value, count, p50, p95, p99 "
                "FROM repro_metrics")
            self.write("-- metrics")
            self.write(metrics.pretty() if metrics.rows else "(no metrics)")

    def _trace(self, limit: int = 5) -> None:
        """Span trees of the most recent sampled tuples."""
        rows = self.db.query(
            "SELECT trace_id, span_id, parent_id, name, duration_ms "
            "FROM repro_traces").rows
        if not rows:
            self.write("(no traces; SET trace_sample_rate = 1.0 to "
                       "sample every tuple)")
            return
        by_trace = {}
        for trace_id, span_id, parent_id, name, duration in rows:
            by_trace.setdefault(trace_id, []).append(
                (span_id, parent_id, name, duration))
        for trace_id in sorted(by_trace)[-limit:]:
            self.write(f"-- trace {trace_id}")
            spans = by_trace[trace_id]
            depth = {}
            for span_id, parent_id, name, duration in spans:
                depth[span_id] = depth.get(parent_id, -1) + 1
                indent = "  " * depth[span_id]
                self.write(f"  {indent}{name}  ({duration:.3f} ms)")

    def _dead_letters(self, limit: int) -> None:
        if self._supervision_off():
            return
        letters = self.db.query(
            "SELECT seq, source, kind, reason, rowcount, close_time "
            "FROM repro_dead_letters").rows[-limit:]
        if not letters:
            self.write("(no dead letters)")
            return
        for seq, source, kind, reason, rowcount, close in letters:
            suffix = f" @{close:g}" if close is not None else ""
            self.write(f"  #{seq} [{kind}] {source}{suffix}: {reason} "
                       f"({rowcount} row{'' if rowcount == 1 else 's'})")

    def _io(self):
        return self.db.query("SELECT pages_read, pages_written, "
                             "sim_seconds FROM repro_io").first()

    def _statement(self, sql: str) -> None:
        io_before = self._io() if self.timing else None
        started = time.perf_counter()
        result = self.db.execute(sql)
        elapsed = time.perf_counter() - started
        if not isinstance(result, ResultSet):
            self._sub_counter += 1
            sub_name = f"sub{self._sub_counter}"
            self.subscriptions[sub_name] = result
            self.write(f"continuous query running as {sub_name!r} "
                       f"({', '.join(result.columns)}); use \\poll")
        elif result.columns:
            self.write(result.pretty())
            self.write(f"({len(result.rows)} row"
                       f"{'' if len(result.rows) == 1 else 's'})")
        else:
            self.write(f"OK (rowcount={result.rowcount})")
        if self.timing:
            read, written, sim = (
                after - before
                for after, before in zip(self._io(), io_before))
            self.write(f"Time: {elapsed * 1000:.2f} ms wall, "
                       f"{sim * 1000:.2f} ms simulated disk "
                       f"(r={read} w={written})")

    # -- main loop -----------------------------------------------------------------

    def run(self, lines) -> None:
        """Drive the shell from an iterable of raw input lines."""
        buffer = []
        for raw in lines:
            line = raw.rstrip("\n")
            stripped = line.strip()
            if not buffer and stripped.startswith("\\"):
                if not self.handle_line(stripped):
                    return
                continue
            buffer.append(line)
            if stripped.endswith(";"):
                statement = "\n".join(buffer).strip().rstrip(";")
                buffer = []
                if statement and not self.handle_line(statement):
                    return
        leftover = "\n".join(buffer).strip().rstrip(";")
        if leftover:
            self.handle_line(leftover)


def _build_shell(args, out=None):
    if args.connect:
        from repro.client import connect
        host, _, port = args.connect.rpartition(":")
        if not port.isdigit():
            raise SystemExit(
                f"--connect wants HOST:PORT, got {args.connect!r}")
        return Shell(connect(host or "127.0.0.1", int(port)), out=out)
    return Shell(out=out)


def _run_one_shot(shell, chunks) -> int:
    """-c/--execute: run statements, print results, report success."""
    for chunk in chunks:
        for statement in chunk.split(";"):
            statement = statement.strip()
            if statement and not shell.handle_line(statement):
                break
    return 1 if shell.errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="TruSQL shell (embedded or remote)")
    parser.add_argument("-c", "--execute", action="append", metavar="STMT",
                        help="run this ;-separated statement list and "
                             "exit (nonzero on any error)")
    parser.add_argument("--connect", metavar="HOST:PORT",
                        help="drive a repro-server instead of an "
                             "embedded database")
    parser.add_argument("--standby-of", metavar="HOST:PORT",
                        help="start a warm standby server of that "
                             "primary instead of a shell")
    parser.add_argument("--port", type=int, default=5434,
                        help="listen port for --standby-of")
    parser.add_argument("--data-dir", default=None,
                        help="WAL directory for --standby-of")
    args = parser.parse_args(argv)
    if args.standby_of:
        from repro.server.server import main as server_main
        server_argv = ["--port", str(args.port),
                       "--standby-of", args.standby_of]
        if args.data_dir:
            server_argv += ["--data-dir", args.data_dir]
        return server_main(server_argv)
    shell = _build_shell(args)
    try:
        if args.execute:
            return _run_one_shot(shell, args.execute)
        return _repl(shell)
    finally:
        if shell.remote:
            shell.db.close()


def _repl(shell) -> int:
    interactive = sys.stdin.isatty()
    if interactive:
        print("repro — Continuous Analytics shell; \\help for commands")
        try:
            while True:
                try:
                    line = input(PROMPT)
                except EOFError:
                    break
                buffer = [line]
                while not line.strip().startswith("\\") \
                        and not line.strip().endswith(";") \
                        and line.strip():
                    line = input(CONTINUE_PROMPT)
                    buffer.append(line)
                text = "\n".join(buffer).strip().rstrip(";")
                if not shell.handle_line(text):
                    break
        except KeyboardInterrupt:
            print()
    else:
        try:
            shell.run(sys.stdin)
        except BrokenPipeError:
            # downstream (e.g. `| head`) closed the pipe: exit quietly
            try:
                sys.stdout.close()
            except Exception:
                pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
