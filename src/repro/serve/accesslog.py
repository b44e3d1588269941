"""Structured serve access log: one JSON line per request.

Every request the daemon answers — ``/v1/*`` POSTs and the GET
endpoints alike — produces one line::

    {"ts": ..., "method": "POST", "path": "/v1/simulate",
     "status": 200, "duration_ms": 12.3,
     "trace_id": "4bf9...", "coalesced": false,
     "leader_trace_id": null}

so a coalesced follower is attributable to the leader whose
computation answered it (``coalesced: true`` + the leader's trace id),
and every line joins against ``python -m repro trace show`` output via
``trace_id``.  The sink is stderr by default or ``--access-log FILE``,
written through the one JSONL appender (line-atomic under a lock,
flushed per record), and :func:`read_access_log` tolerates a torn
final line exactly like the campaign journal reader (the daemon may be
killed mid-write).
"""

import time

from repro.obs.jsonl import JsonlSink, iter_records


class AccessLog(JsonlSink):
    """The access log: a :class:`~repro.obs.jsonl.JsonlSink` that appends."""

    def __init__(self, target):
        super().__init__(target, append=True)

    def log(self, method, path, status, duration_ms, trace_id=None,
            coalesced=False, leader_trace_id=None):
        """Append one access record; never raises into the handler."""
        record = {
            "ts": round(time.time(), 6),
            "method": method,
            "path": path,
            "status": status,
            "duration_ms": round(duration_ms, 3),
            "trace_id": trace_id,
            "coalesced": bool(coalesced),
            "leader_trace_id": leader_trace_id,
        }
        try:
            self.write(record)
        except (OSError, ValueError):  # pragma: no cover — closed sink
            pass
        return record


def read_access_log(path, corrupt=None):
    """Access records from ``path``, skipping torn/malformed lines.

    ``corrupt``, when a list, collects ``(line_number, message)`` pairs
    for skipped lines — the same contract as
    :func:`repro.obs.jsonl.iter_records`.
    """
    return list(iter_records(path, strict=False, corrupt=corrupt))
