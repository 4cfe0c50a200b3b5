"""API-hygiene checks: exports resolve, public items carry docstrings,
and the README quickstart actually runs."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.sql",
    "repro.exec",
    "repro.storage",
    "repro.streaming",
    "repro.txn",
    "repro.types",
    "repro.catalog",
    "repro.baselines",
    "repro.workloads",
    "repro.bench",
    "repro.admission",
    "repro.eventtime",
    "repro.faults",
    "repro.obs",
    "repro.partition",
    "repro.replication",
    "repro.server",
]


class TestExports:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_exports_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.{symbol} missing"

    @pytest.mark.parametrize("name", PACKAGES)
    def test_package_docstring(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} has no docstring"

    def test_version(self):
        import repro
        assert repro.__version__ == "1.0.0"

    def test_one_way_onto_a_log(self):
        """``open_database`` puts an engine on a log; the constructor
        takes none, and there is no second way to rebuild one."""
        from repro import Database, replication
        from repro.replication import open_database
        assert not hasattr(Database, "recover_from_wal")
        assert not hasattr(replication, "recover_runtime")
        assert not [name for name in inspect.signature(Database).parameters
                    if name.startswith("wal_")]
        assert {"data_dir", "wal_path", "standby"} \
            <= set(inspect.signature(open_database).parameters)


class TestPublicDocstrings:
    def test_database_public_methods_documented(self):
        from repro import Database
        for name, member in inspect.getmembers(Database):
            if name.startswith("_"):
                continue
            if inspect.isfunction(member):
                assert member.__doc__, f"Database.{name} undocumented"

    def test_subscription_methods_documented(self):
        from repro.core.results import Subscription
        for name, member in inspect.getmembers(Subscription):
            if name.startswith("_") or not inspect.isfunction(member):
                continue
            assert member.__doc__, f"Subscription.{name} undocumented"

    def test_operator_classes_documented(self):
        from repro.exec import operators
        for name, member in inspect.getmembers(operators, inspect.isclass):
            if member.__module__ == operators.__name__:
                assert member.__doc__, f"operators.{name} undocumented"

    def test_errors_documented(self):
        from repro import errors
        for name, member in inspect.getmembers(errors, inspect.isclass):
            if member.__module__ == errors.__name__:
                assert member.__doc__, f"errors.{name} undocumented"


class TestReadmeQuickstart:
    def test_quickstart_snippet_runs(self):
        from repro import Database

        db = Database()
        db.execute("""
            CREATE STREAM url_stream (
                url varchar(1024),
                atime timestamp CQTIME USER,
                client_ip varchar(50)
            )
        """)
        top10 = db.execute("""
            SELECT url, count(*) url_count
            FROM url_stream <VISIBLE '5 minutes' ADVANCE '1 minute'>
            GROUP BY url ORDER BY url_count DESC LIMIT 10
        """)
        db.insert_stream("url_stream", [("/home", 5.0, "10.0.0.1")])
        db.advance_streams(60.0)
        windows = top10.poll()
        assert windows[0].rows == [("/home", 1)]
