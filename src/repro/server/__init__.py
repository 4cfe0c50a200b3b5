"""The network service layer: a TruSQL server over TCP.

Truviso is a client/server system — "applications interact with a
stream-relational database the way they interact with any database:
through SQL" — and this package is the reproduction's wire boundary.
An asyncio TCP server speaks a length-prefixed JSON frame protocol
(:mod:`repro.server.protocol`); every connection gets a session
(:mod:`repro.server.session`) whose statements are serialized onto the
single-threaded engine through a single-writer executor
(:mod:`repro.server.engine`).  Continuous-query results are *pushed* to
subscribed clients, with a per-session slow-client policy applied to
slow consumers.  See docs/SERVER.md for the protocol reference.
"""

from repro.server.server import ServerThread, TruSQLServer, main

__all__ = ["TruSQLServer", "ServerThread", "main"]
