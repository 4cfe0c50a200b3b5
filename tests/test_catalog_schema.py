"""Tests for the catalog registry and schema machinery."""

import pytest

from repro.catalog import Catalog, Column, Schema
from repro.catalog import catalog as cat
from repro.errors import (
    BindError,
    ConstraintError,
    DuplicateObjectError,
    UnknownObjectError,
)
from repro.types.datatypes import (
    IntegerType,
    TimestampType,
    VarcharType,
    type_from_name,
)


def schema():
    return Schema([
        Column("id", IntegerType(), not_null=True),
        Column("name", VarcharType(10)),
        Column("ts", TimestampType(), cqtime="user"),
    ])


class TestSchema:
    def test_names_and_lookup(self):
        s = schema()
        assert s.names() == ["id", "name", "ts"]
        assert s.index_of("NAME") == 1  # case-insensitive

    def test_unknown_column(self):
        with pytest.raises(BindError):
            schema().index_of("missing")

    def test_has_column(self):
        assert schema().has_column("ID")
        assert not schema().has_column("nope")

    def test_cqtime_index(self):
        assert schema().cqtime_index() == 2
        plain = Schema([Column("a", IntegerType())])
        assert plain.cqtime_index() is None

    def test_coerce_row(self):
        row = schema().coerce_row(("5", 123, "1970-01-01 00:01:00"))
        assert row == (5, "123", 60.0)

    def test_coerce_arity(self):
        with pytest.raises(ConstraintError):
            schema().coerce_row((1,))

    def test_coerce_not_null(self):
        with pytest.raises(ConstraintError):
            schema().coerce_row((None, "x", 0.0))

    def test_coerce_row_matches_a_coerce_call_per_value(self):
        """A value whose exact type is the column's canonical one passes
        ``coerce_row`` as it is; every value — that one, ``bool`` into an
        integer, a numpy ``str``, an integral float, timestamp text —
        comes out as ``datatype.coerce`` makes it, with the same type or
        the same refusal."""
        import numpy

        def coerced(column, value):
            try:
                out = Schema([column]).coerce_row((value,))[0]
            except Exception as exc:
                return type(exc), str(exc)
            return type(out), repr(out)

        def one_call(column, value):     # the loop before the pass-through
            try:
                out = column.datatype.coerce(value)
                if out is None and column.not_null:
                    raise ConstraintError(
                        f"null value in column {column.name!r} violates "
                        "NOT NULL")
            except Exception as exc:
                return type(exc), str(exc)
            return type(out), repr(out)

        columns = [Column(f"c{i}", type_from_name(name, length),
                          not_null=not_null)
                   for i, (name, length, not_null) in enumerate([
                       ("integer", None, False), ("bigint", None, True),
                       ("double precision", None, False),
                       ("timestamp", None, True), ("boolean", None, False),
                       ("varchar", 3, False), ("varchar", 3, True),
                       ("text", None, False), ("interval", None, False)])]
        values = [None, 0, 7, -3, 10 ** 30, True, False, 2.0, 2.5,
                  float("nan"), float("inf"), "7", " 8 ", "abc", "abcd", "",
                  "true", "1970-01-01 00:01:00", numpy.str_("ab"),
                  numpy.str_("abcd"), numpy.int64(3), numpy.float64(1.5),
                  numpy.bool_(True), b"ab", (1,)]
        for column in columns:
            for value in values:
                assert coerced(column, value) == one_call(column, value), (
                    column, value)

    def test_project(self):
        projected = schema().project(["ts", "id"])
        assert projected.names() == ["ts", "id"]

    def test_rename(self):
        renamed = schema().rename(["x", "y", "z"])
        assert renamed.names() == ["x", "y", "z"]
        assert renamed.column("z").cqtime == "user"

    def test_rename_arity(self):
        with pytest.raises(BindError):
            schema().rename(["only_one"])

    def test_duplicate_names_first_wins(self):
        s = Schema([Column("a", IntegerType()), Column("a", VarcharType(5))])
        assert s.index_of("a") == 0


class TestCatalog:
    def test_relation_lifecycle(self):
        c = Catalog()
        c.add_relation("t", cat.TABLE, "obj")
        assert c.has_relation("T")
        assert c.relation_kind("t") == cat.TABLE
        assert c.get_relation("t") == "obj"
        c.drop_relation("t")
        assert not c.has_relation("t")

    def test_duplicate_relation(self):
        c = Catalog()
        c.add_relation("t", cat.TABLE, "obj")
        with pytest.raises(DuplicateObjectError):
            c.add_relation("T", cat.STREAM, "other")

    def test_kind_mismatch(self):
        c = Catalog()
        c.add_relation("t", cat.TABLE, "obj")
        with pytest.raises(UnknownObjectError):
            c.get_relation("t", cat.STREAM)

    def test_unknown_relation(self):
        with pytest.raises(UnknownObjectError):
            Catalog().get_relation("nope")

    def test_relations_filtered_by_kind(self):
        c = Catalog()
        c.add_relation("t", cat.TABLE, 1)
        c.add_relation("s", cat.STREAM, 2)
        assert dict(c.relations(cat.TABLE)) == {"t": 1}
        assert len(dict(c.relations())) == 2

    def test_channel_registry(self):
        c = Catalog()
        c.add_channel("ch", "channel-obj")
        assert c.has_channel("CH")
        assert c.get_channel("ch") == "channel-obj"
        with pytest.raises(DuplicateObjectError):
            c.add_channel("ch", "again")
        c.drop_channel("ch")
        with pytest.raises(UnknownObjectError):
            c.get_channel("ch")

    def test_index_registry(self):
        class FakeIndex:
            table_name = "t"
        c = Catalog()
        c.add_index("i", FakeIndex())
        assert c.has_index("i")
        assert len(c.indexes_on("T")) == 1
        assert c.indexes_on("other") == []
        c.drop_index("i")
        assert not c.has_index("i")


class TestSubscriptionListen:
    def test_push_callback(self):
        from repro import Database
        db = Database()
        db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
        sub = db.subscribe("SELECT count(*) FROM s <VISIBLE '1 minute'>")
        received = []
        sub.listen(received.append)
        db.insert_stream("s", [(1, 5.0)])
        db.advance_streams(60.0)
        assert len(received) == 1
        assert received[0].rows == [(1,)]
        # polling still works independently
        assert sub.rows() == [(1,)]
