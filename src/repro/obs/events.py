"""Structured event log: state changes, stamped with virtual time.

Spans answer "where did the time go"; counters answer "how much in
total". What neither captures is *state changes* — a member disk
failing, a rebuild starting, the cleaner running a pass or starving, a
checkpoint being written, a scheduler queue reaching a new depth. The
event log records exactly those choke points as structured
``(t, layer, name, severity, payload)`` tuples in a bounded ring, and
exports them as JSONL next to ``trace.json``.

Emission follows the tracer's zero-overhead discipline: instrumented
objects carry an ``events`` attribute that defaults to ``None``, and
every site is guarded ``ev = self.events`` / ``if ev:`` — one attribute
load and a truth test when no log is attached. Attach a shared log to a
whole stack with :func:`repro.obs.attach_events`.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

from repro.obs.export import read_jsonl

#: Severity ladder, lowest first; :meth:`EventLog.select` filters on it.
SEVERITIES = ("debug", "info", "warn", "error")
_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}


@dataclass(slots=True)
class Event:
    """One recorded state change."""

    t: float
    name: str
    severity: str = "info"
    payload: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        """Layer prefix of the name (``volume.member_failed`` → ``volume``)."""
        return self.name.split(".", 1)[0]

    def as_dict(self) -> dict:
        return {
            "t": self.t,
            "name": self.name,
            "severity": self.severity,
            "payload": self.payload,
        }


class EventLog:
    """Bounded ring of :class:`Event` records, shared by one stack.

    ``capacity`` bounds memory on arbitrarily long runs: the ring keeps
    the newest events and counts what it dropped (``emitted`` is the
    lifetime total). The log is always truthy — sites guard on the
    *attribute* being set, mirroring the tracer idiom.
    """

    def __init__(self, clock=None, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.clock = clock
        self.capacity = capacity
        self.events: deque[Event] = deque(maxlen=capacity)
        self.emitted = 0

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        # The choke-point guard is ``ev = self.events`` / ``if ev:`` —
        # without this, ``__len__`` would make an *empty* log falsy and
        # silently swallow the first event of every run.
        return True

    def __iter__(self):
        return iter(self.events)

    @property
    def dropped(self) -> int:
        """Events pushed out of the bounded ring."""
        return self.emitted - len(self.events)

    def emit(self, name: str, severity: str = "info", t: float | None = None, **payload):
        """Record one event; returns it.

        ``t`` defaults to the attached clock's current virtual time (0.0
        with no clock — offline replay). Unknown severities raise: a
        typo'd level would silently fall out of every filter.
        """
        if severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {severity!r} (choose from {SEVERITIES})")
        if t is None:
            clock = self.clock
            t = clock.now if clock is not None else 0.0
        event = Event(t=t, name=name, severity=severity, payload=payload)
        self.events.append(event)
        self.emitted += 1
        return event

    def select(
        self,
        *,
        layer: str | None = None,
        name: str | None = None,
        min_severity: str | None = None,
        since: float | None = None,
    ) -> list[Event]:
        """Events matching every given filter, oldest first."""
        floor = _SEVERITY_RANK[min_severity] if min_severity is not None else 0
        return [
            e
            for e in self.events
            if (layer is None or e.layer == layer)
            and (name is None or e.name == name)
            and _SEVERITY_RANK[e.severity] >= floor
            and (since is None or e.t >= since)
        ]

    def clear(self) -> None:
        self.events.clear()

    def __repr__(self) -> str:
        return (
            f"EventLog({len(self.events)}/{self.capacity} retained, "
            f"{self.emitted} emitted)"
        )


def export_events_jsonl(events, path) -> str:
    """Write events (an :class:`EventLog` or iterable) as JSONL."""
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.as_dict(), sort_keys=True))
            handle.write("\n")
    return str(path)


def load_events_jsonl(path) -> list[Event]:
    """Parse an events file written by :func:`export_events_jsonl`."""
    return [
        Event(
            t=raw["t"],
            name=raw["name"],
            severity=raw.get("severity", "info"),
            payload=raw.get("payload", {}),
        )
        for raw in read_jsonl(path)
    ]
