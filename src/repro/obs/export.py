"""Trace exporters and loaders: Chrome ``trace_event`` JSON and JSONL.

The Chrome format (one ``{"traceEvents": [...]}`` object of complete
``"ph": "X"`` events, microsecond timestamps) loads directly into
``chrome://tracing`` / Perfetto; span identity and causality ride along
in each event's ``args`` so a trace round-trips losslessly back into
:class:`~repro.obs.trace.Span` objects. JSONL (one span per line) is the
append-friendly form for tooling.
"""

from __future__ import annotations

import json

from repro.obs.trace import Span

#: Virtual seconds → Chrome trace microseconds.
_US = 1_000_000.0


def spans_sorted(spans: list[Span]) -> list[Span]:
    """Spans in start-time order (ties broken by id, i.e. open order)."""
    return sorted(spans, key=lambda s: (s.start, s.span_id))


def to_chrome_events(spans: list[Span]) -> list[dict]:
    """Chrome ``trace_event`` dicts for ``spans`` (complete "X" events)."""
    events = []
    for span in spans_sorted(spans):
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.layer,
                "ts": span.start * _US,
                "dur": span.duration * _US,
                "pid": 0,
                "tid": 0,
                "args": {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    **span.attrs,
                },
            }
        )
    return events


def export_chrome_trace(spans: list[Span], path) -> str:
    """Write a Chrome-loadable trace file; returns the path written."""
    payload = {
        "traceEvents": to_chrome_events(spans),
        "displayTimeUnit": "ms",
        "otherData": {"clock": "virtual", "time_unit_note": "simulated seconds"},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return str(path)


def load_chrome_trace(path) -> list[Span]:
    """Parse a Chrome trace written by :func:`export_chrome_trace`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    spans: list[Span] = []
    for event in payload.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        span_id = args.pop("span_id")
        parent_id = args.pop("parent_id", None)
        start = event["ts"] / _US
        spans.append(
            Span(
                span_id=span_id,
                parent_id=parent_id,
                name=event["name"],
                start=start,
                end=start + event.get("dur", 0.0) / _US,
                attrs=args,
            )
        )
    return spans


def export_jsonl(spans: list[Span], path) -> str:
    """One JSON object per line per span; exact float round-trip."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans_sorted(spans):
            handle.write(
                json.dumps(
                    {
                        "span_id": span.span_id,
                        "parent_id": span.parent_id,
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "attrs": span.attrs,
                    },
                    sort_keys=True,
                )
            )
            handle.write("\n")
    return str(path)


def read_jsonl(path):
    """The objects of a JSONL file, one per non-blank line: what the
    trace, event and series loaders each rebuild their records from."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def load_jsonl(path) -> list[Span]:
    """Parse a JSONL trace written by :func:`export_jsonl`."""
    return [
        Span(
            span_id=raw["span_id"],
            parent_id=raw.get("parent_id"),
            name=raw["name"],
            start=raw["start"],
            end=raw.get("end"),
            attrs=raw.get("attrs", {}),
        )
        for raw in read_jsonl(path)
    ]


def load_trace(path) -> list[Span]:
    """Load either format, sniffing by content.

    A Chrome trace is one JSON object containing ``traceEvents``; JSONL
    starts with a one-object line that has a ``span_id``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        head = handle.read(4096).lstrip()
    if head.startswith("{") and '"traceEvents"' in head:
        return load_chrome_trace(path)
    return load_jsonl(path)
