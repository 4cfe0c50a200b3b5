"""Dump and restore: a database's catalog and contents as one JSON file.

Analogous to ``pg_dump``: DDL for every object plus table contents, in
dependency order (streams → tables → views → derived streams → channels
→ indexes), so a restored database has the same schema, the same stored
data, and the same always-on pipelines.  What is *not* restored, by
design: in-flight window state (that is what the recovery strategies in
:mod:`repro.streaming.recovery` are for) and client subscriptions.

::

    db.dump("analytics.json")
    db2 = Database.restore("analytics.json")
"""

from __future__ import annotations

import json

from repro.catalog import catalog as cat
from repro.errors import TruvisoError
from repro.sql.render import render_statement
from repro.types.datatypes import type_from_name

FORMAT_VERSION = 1


def _column_spec(column) -> dict:
    return {
        "name": column.name,
        "type": column.datatype.sql_name(),
        "not_null": column.not_null,
        "primary_key": column.primary_key,
        "cqtime": column.cqtime,
    }


def _type_from_sql_name(spelled: str):
    if "(" in spelled:
        base, rest = spelled.split("(", 1)
        length = int(rest.rstrip(")"))
        return type_from_name(base, length)
    return type_from_name(spelled)


def dump_database(db, path: str) -> dict:
    """Serialize ``db`` to ``path``; returns the manifest (counts)."""
    snapshot = db.txn_manager.take_snapshot()

    streams = []
    for name, stream in db.catalog.relations(cat.STREAM):
        streams.append({
            "name": name,
            "columns": [_column_spec(c) for c in stream.schema],
            "retention": stream.retention,
            "slack": stream.slack,
            "disorder_policy": stream.disorder_policy,
            "watermark_bound": stream.watermark_bound,
            "partition_by": stream.partition_by,
        })

    tables = []
    for name, table in db.catalog.relations(cat.TABLE):
        rows = [list(values) for _rid, values in
                table.scan(snapshot, db.txn_manager)]
        tables.append({
            "name": name,
            "columns": [_column_spec(c) for c in table.schema],
            "rows": rows,
        })

    views = []
    for name, view in db.catalog.relations(cat.VIEW):
        views.append({"name": name,
                      "query": render_statement(view.query)})

    derived = []
    for name, stream in db.catalog.relations(cat.DERIVED_STREAM):
        derived.append({"name": name,
                        "query": render_statement(stream.cq.select)})

    channels = []
    for name, channel in db.catalog.channels():
        channels.append({
            "name": name,
            "source": channel.source.name,
            "target": channel.table.name,
            "mode": channel.mode,
        })

    indexes = []
    for name, index in db.catalog.indexes():
        indexes.append({
            "name": name,
            "table": index.table_name,
            "columns": list(index.column_names),
            "unique": index.unique,
        })

    payload = {
        "format_version": FORMAT_VERSION,
        "streams": streams,
        "tables": tables,
        "views": views,
        "derived_streams": derived,
        "channels": channels,
        "indexes": indexes,
    }
    with open(path, "w") as f:
        json.dump(payload, f)
    return {
        "streams": len(streams), "tables": len(tables),
        "views": len(views), "derived_streams": len(derived),
        "channels": len(channels), "indexes": len(indexes),
    }


def restore_database(db, path: str) -> None:
    """Load a dump into a fresh ``db`` (its catalog must be empty of
    user objects)."""
    from repro.catalog.schema import Column, Schema

    with open(path) as f:
        payload = json.load(f)
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise TruvisoError(
            f"dump format version {version!r} is not supported")

    def build_schema(specs) -> Schema:
        return Schema([
            Column(spec["name"], _type_from_sql_name(spec["type"]),
                   not_null=spec["not_null"],
                   primary_key=spec["primary_key"],
                   cqtime=spec["cqtime"])
            for spec in specs
        ])

    for spec in payload["streams"]:
        stream = db.runtime.create_base_stream(
            spec["name"], build_schema(spec["columns"]),
            retention=spec["retention"],
            slack=spec["slack"] or 0.0,
            watermark_bound=spec.get("watermark_bound"),
            partition_by=spec.get("partition_by"),
        )
        stream.disorder_policy = spec["disorder_policy"]

    for spec in payload["tables"]:
        db._register_table(spec["name"], build_schema(spec["columns"]))
        db.insert_table(spec["name"], [tuple(row) for row in spec["rows"]])

    for spec in payload["views"]:
        db.execute(f"CREATE VIEW {spec['name']} AS {spec['query']}")

    for spec in payload["derived_streams"]:
        db.execute(f"CREATE STREAM {spec['name']} AS {spec['query']}")

    for spec in payload["channels"]:
        db.execute(
            f"CREATE CHANNEL {spec['name']} FROM {spec['source']} "
            f"INTO {spec['target']} {spec['mode'].upper()}"
        )

    for spec in payload["indexes"]:
        unique = "UNIQUE " if spec["unique"] else ""
        columns = ", ".join(spec["columns"])
        db.execute(f"CREATE {unique}INDEX {spec['name']} "
                   f"ON {spec['table']} ({columns})")
