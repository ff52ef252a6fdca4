"""Bounded ring-buffer flight recorder for the partition service.

A :class:`FlightRecorder` keeps the last ``capacity`` structured events
(update flushes, WAL group commits, snapshots, recovery replays) in a
ring buffer.  It costs nothing in the EM model — events are plain
dicts, recorded outside any :class:`~repro.em.machine.Machine` charge
path — and carries **no wall-clock timestamps**, only a monotone
sequence number, so dumps are deterministic and diffable.

The point is the crash path: ``repro serve --durable`` dumps the
recorder to JSON on any unclean exit, and ``repro recover
--flight-dump`` renders that dump, so the PR 6 kill-at-any-I/O chaos
sweep finally leaves a record of what the service was doing when it
died.

Every :class:`~repro.obs.metrics.MetricsRegistry` owns one recorder
as ``registry.flight``, so :func:`~repro.obs.metrics.metrics_scope` is
the one ambient telemetry scope: service objects bind
``current_registry().flight`` at construction, which is a no-op
outside a scope.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

__all__ = [
    "FlightRecorder",
    "load_flight_dump",
    "render_flight_events",
]


class FlightRecorder:
    """Last-``capacity`` structured events, oldest evicted first."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self._events: deque[dict] = deque(maxlen=capacity)
        self._seq = 0
        self.dropped = 0

    def record(self, kind: str, **fields: object) -> None:
        """Append one event; evicts the oldest when full.

        The ``seq``/``kind`` keys belong to the recorder — caller fields
        with those names cannot shadow them.
        """
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append({**fields, "seq": self._seq, "kind": str(kind)})
        self._seq += 1

    @property
    def events(self) -> list[dict]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()
        self._seq = 0
        self.dropped = 0

    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "recorded": self._seq,
            "dropped": self.dropped,
            "events": self.events,
        }

    def dump(self, path: str | Path) -> Path:
        """Write the recorder state as JSON; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    def render(self) -> str:
        """Human-readable event log, one line per event."""
        return render_flight_events(self.to_dict())


def load_flight_dump(path: str | Path) -> dict:
    """Read a :meth:`FlightRecorder.dump` file back into a dict."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or "events" not in doc:
        raise ValueError(f"{path} is not a flight-recorder dump")
    return doc


def render_flight_events(doc: dict) -> str:
    """Render a dump (or :meth:`FlightRecorder.to_dict`) as text."""
    events = doc.get("events", [])
    if not events:
        return "(no flight events recorded)"
    lines = [
        f"flight recorder: {len(events)} event(s) held, "
        f"{doc.get('recorded', len(events))} recorded, "
        f"{doc.get('dropped', 0)} dropped (capacity {doc.get('capacity', '?')})"
    ]
    for ev in events:
        extras = " ".join(
            f"{k}={v}" for k, v in ev.items() if k not in ("seq", "kind")
        )
        lines.append(f"  #{ev.get('seq', '?'):>4} {ev.get('kind', '?'):<14} {extras}".rstrip())
    return "\n".join(lines)
