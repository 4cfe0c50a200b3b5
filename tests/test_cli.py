"""Tests for the interactive TruSQL shell."""

import io

import pytest

from repro.cli import Shell


def run_script(lines):
    out = io.StringIO()
    shell = Shell(out=out)
    shell.run(iter(lines))
    return out.getvalue(), shell


class TestShell:
    def test_ddl_and_query(self):
        output, _shell = run_script([
            "CREATE TABLE t (a integer);",
            "INSERT INTO t VALUES (1), (2);",
            "SELECT sum(a) FROM t;",
        ])
        assert "OK (rowcount=0)" in output
        assert "OK (rowcount=2)" in output
        assert "3" in output

    def test_multiline_statement(self):
        output, _shell = run_script([
            "CREATE TABLE t (a integer);",
            "SELECT a",
            "FROM t",
            "WHERE a > 0;",
        ])
        assert "(0 rows)" in output

    def test_error_reported_not_raised(self):
        output, _shell = run_script(["SELECT * FROM missing;"])
        assert "ERROR" in output
        assert "missing" in output

    def test_cq_becomes_named_subscription(self):
        output, shell = run_script([
            "CREATE STREAM s (v integer, ts timestamp CQTIME USER);",
            "SELECT count(*) FROM s <VISIBLE '1 minute'>;",
        ])
        assert "sub1" in output
        assert "sub1" in shell.subscriptions

    def test_advance_prints_windows(self):
        output, _shell = run_script([
            "CREATE STREAM s (v integer, ts timestamp CQTIME USER);",
            "SELECT count(*) c FROM s <VISIBLE '1 minute'>;",
            "INSERT INTO s VALUES (7, 5.0);",
            "\\advance 60",
        ])
        assert "window [0, 60)" in output

    def test_flush_prints_windows(self):
        output, _shell = run_script([
            "CREATE STREAM s (v integer, ts timestamp CQTIME USER);",
            "SELECT count(*) c FROM s <VISIBLE '1 minute'>;",
            "INSERT INTO s VALUES (7, 5.0);",
            "\\flush",
        ])
        assert "flushed" in output
        assert "window" in output

    def test_describe(self):
        output, _shell = run_script([
            "CREATE TABLE t (a integer);",
            "CREATE STREAM s (v integer, ts timestamp CQTIME USER);",
            "\\d",
        ])
        assert "t " in output and "table" in output
        assert "s " in output and "stream" in output

    def test_timing_toggle(self):
        output, _shell = run_script([
            "\\timing",
            "SELECT 1;",
        ])
        assert "timing on" in output
        assert "ms wall" in output

    def test_quit_stops_processing(self):
        output, _shell = run_script([
            "\\q",
            "SELECT 1;",
        ])
        assert "?column?" not in output

    def test_unknown_command(self):
        output, _shell = run_script(["\\frobnicate"])
        assert "unknown command" in output

    def test_help(self):
        output, _shell = run_script(["\\help"])
        assert "\\poll" in output

    def test_statement_without_trailing_semicolon_runs_at_eof(self):
        output, _shell = run_script(["SELECT 40 + 2"])
        assert "42" in output


class TestOneShot:
    """The -c/--execute flag: run statements, exit nonzero on error."""

    def test_success_exit_code(self, capsys):
        from repro.cli import main
        code = main(["-c", "SELECT 40 + 2"])
        assert code == 0
        assert "42" in capsys.readouterr().out

    def test_error_exit_code(self, capsys):
        from repro.cli import main
        code = main(["-c", "SELECT * FROM missing"])
        assert code == 1
        assert "ERROR" in capsys.readouterr().out

    def test_semicolon_separated_statements(self, capsys):
        from repro.cli import main
        code = main(["-c", "CREATE TABLE t (a integer); "
                           "INSERT INTO t VALUES (1), (2); "
                           "SELECT sum(a) FROM t"])
        assert code == 0
        assert "3" in capsys.readouterr().out

    def test_repeated_flags_share_one_session(self, capsys):
        from repro.cli import main
        code = main(["-c", "CREATE TABLE t (a integer)",
                     "-c", "SELECT count(*) FROM t"])
        assert code == 0
        assert "0" in capsys.readouterr().out

    def test_error_mid_script_still_nonzero(self, capsys):
        from repro.cli import main
        code = main(["-c", "SELECT 1; SELECT * FROM missing; SELECT 2"])
        assert code == 1

    def test_backslash_commands_allowed(self, capsys):
        from repro.cli import main
        code = main(["-c",
                     "CREATE STREAM s (v integer, ts timestamp CQTIME USER);"
                     "SELECT count(*) c FROM s <VISIBLE '1 minute'>;"
                     "INSERT INTO s VALUES (7, 5.0);"
                     "\\advance 60"])
        assert code == 0
        assert "window [0, 60)" in capsys.readouterr().out


class TestRemoteShell:
    """The --connect flag: same shell over a live server."""

    @pytest.fixture
    def server(self):
        from repro.server import ServerThread
        with ServerThread() as st:
            yield st

    def test_one_shot_against_server(self, server, capsys):
        from repro.cli import main
        code = main(["--connect", f"{server.host}:{server.port}",
                     "-c", "CREATE TABLE t (a integer); "
                           "INSERT INTO t VALUES (41); "
                           "SELECT a + 1 FROM t"])
        assert code == 0
        assert "42" in capsys.readouterr().out

    def test_one_shot_error_against_server(self, server, capsys):
        from repro.cli import main
        code = main(["--connect", f"{server.host}:{server.port}",
                     "-c", "SELECT * FROM missing"])
        assert code == 1
        assert "ERROR" in capsys.readouterr().out

    def test_remote_cq_and_poll(self, server, capsys):
        from repro.cli import main
        code = main(["--connect", f"{server.host}:{server.port}",
                     "-c",
                     "CREATE STREAM s (v integer, ts timestamp CQTIME USER);"
                     "SELECT count(*) c FROM s <VISIBLE '1 minute'>;"
                     "INSERT INTO s VALUES (7, 5.0);"
                     "\\advance 60"])
        out = capsys.readouterr().out
        assert code == 0
        assert "continuous query running as 'sub1'" in out
        assert "window [0, 60)" in out

    def test_remote_describe(self, server, capsys):
        from repro.cli import main
        code = main(["--connect", f"{server.host}:{server.port}",
                     "-c", "CREATE TABLE t (a integer); \\d"])
        out = capsys.readouterr().out
        assert code == 0
        assert "t " in out and "table" in out

    def test_remote_describe_lists_what_the_embedded_shell_lists(
            self, server, capsys):
        from repro.cli import main
        script = ("CREATE TABLE t (a integer); "
                  "CREATE STREAM s (v integer, ts timestamp CQTIME USER); "
                  "CREATE STREAM d AS SELECT count(*) c, cq_close(*) "
                  "FROM s <VISIBLE '1 minute'>; "
                  "CREATE TABLE arch (c bigint, ts timestamp); "
                  "CREATE CHANNEL ch FROM d INTO arch APPEND; "
                  "CREATE INDEX t_a ON t (a); \\d")
        listings = []
        for target in ([], ["--connect", f"{server.host}:{server.port}"]):
            assert main(target + ["-c", script]) == 0
            out = capsys.readouterr().out
            listings.append(out[out.index("  arch"):])
        assert listings[0] == listings[1]
        for line in ("ch  ", "channel", "derived stream", "t_a", "index",
                     "derived:d", "cq"):
            assert line in listings[1]

    def test_remote_supervisor_and_deadletters(self, capsys):
        """The docstring always promised them over a connection; the
        remote ``_command`` refused both."""
        from repro.cli import main
        from repro.server import ServerThread
        with ServerThread() as plain:
            target = ["--connect", f"{plain.host}:{plain.port}"]
            assert main(target + ["-c", "\\supervisor; \\deadletters"]) == 0
            assert capsys.readouterr().out.count("supervision is off") == 2
        with ServerThread(supervised=True) as st:
            target = ["--connect", f"{st.host}:{st.port}"]
            code = main(target + ["-c",
                "CREATE STREAM s (k varchar(10), v integer, "
                "ts timestamp CQTIME USER); "
                "SELECT 10 / v AS ratio FROM s WHERE v < 100; "
                "INSERT INTO s VALUES ('a', 0, 5.0); "
                "\\supervisor; \\deadletters 5; \\timing; SELECT 1"])
            out = capsys.readouterr().out
            assert code == 0
            assert "degraded" in out
            assert "[poison-tuple]" in out and "(1 row)" in out
            assert "ms simulated disk" in out

    def test_bad_connect_spec(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["--connect", "nonsense", "-c", "SELECT 1"])


class TestReplicationCommand:
    def test_replication_shows_standalone_row(self):
        output, _shell = run_script(["\\replication"])
        assert "standalone" in output
        assert "role" in output

    def test_replication_listed_in_help(self):
        output, _shell = run_script(["\\help"])
        assert "\\replication" in output
