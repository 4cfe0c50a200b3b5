"""Views — regular and streaming (the paper's Section 3.2).

Both kinds are stored ASTs.  A regular view is expanded by the planner
like any RDBMS view.  A *streaming* view — one whose query references a
stream — is instantiated lazily: the CQ compiler inlines its query into
the referencing continuous query, so nothing runs until someone uses it
(in contrast to a derived stream, which is always on).
"""

from __future__ import annotations

from repro.sql import ast


class StreamingView:
    """A named, stored SELECT; ``references_streams`` decides its nature."""

    def __init__(self, name: str, query: ast.Select,
                 references_streams: bool):
        self.name = name
        self.query = query
        self.references_streams = references_streams

    def __repr__(self):
        kind = "streaming view" if self.references_streams else "view"
        return f"StreamingView({self.name}, {kind})"
