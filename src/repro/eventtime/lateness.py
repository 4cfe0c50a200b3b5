"""Bounded-lateness policies and the structured late-event reason.

A tuple is *late* when its event time is below the stream's watermark
at arrival: some window it belonged to has already closed.  Per-CQ
policy (the ``ALLOW LATENESS`` clause) decides what happens:

- ``DROP`` — count it (``eventtime.late_rows``) and discard.
- ``DEAD LETTER`` — quarantine it on ``repro_dead_letter_stream``
  with kind :data:`LATE_EVENT` and a structured reason, so a CQ can
  watch late traffic like any other failure feed.
- ``RETRACT`` — if the tuple is within the allowed lateness bound,
  re-open the affected slices, recompute them incrementally, and flow
  retraction/correction records downstream; beyond the bound it is
  dead-lettered (expired).
"""

from __future__ import annotations

DROP = "drop"
DEAD_LETTER = "dead_letter"
RETRACT = "retract"
LATENESS_POLICIES = (DROP, DEAD_LETTER, RETRACT)

#: dead-letter kind for rows rejected by a lateness policy (joins the
#: supervisor's POISON_WINDOW / CHANNEL_WRITE / ... constants)
LATE_EVENT = "late-event"


def late_reason(event_time: float, watermark: float,
                expired: bool = False) -> str:
    """The structured reason string carried by a late-event dead
    letter: stable ``key=value`` fields (kind, event ts, watermark at
    drop time, lateness) rather than prose, matching the supervisor's
    quarantine record shape so operators can parse it."""
    kind = "late_event_expired" if expired else "late_event"
    return (f"{kind}: event_time={event_time!r} watermark={watermark!r} "
            f"lateness={max(0.0, watermark - event_time)!r}")
