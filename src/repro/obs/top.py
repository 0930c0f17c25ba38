"""``python -m repro.obs.top`` — ldtop, the live LD monitoring dashboard.

Renders what an operator would watch: per-layer rates (from the series
recorder's windows), latency quantiles (from the bounded histograms
embedded in the metrics payload), active health findings, and the tail
of the structured event log. Works two ways:

* **live** — :func:`render_monitor` over a running
  :class:`~repro.obs.health.Monitor` (benchmarks/examples call this
  directly);
* **offline** — the CLI over exported files: ``--metrics`` (a JSON
  metrics payload, nested or layer-prefixed flat), ``--events``
  (``events.jsonl``), ``--series`` (series JSONL). Health rules are
  re-evaluated over whatever inputs are given.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.events import EventLog, load_events_jsonl
from repro.obs.health import HealthContext, HealthMonitor, default_rules
from repro.obs.hist import is_histogram_dict
from repro.obs.series import SeriesRecorder, load_series_jsonl

_MS = 1000.0

#: Fallback totals shown when no series data is available for rates.
_TOTAL_KEYS = (
    ("disk", "reads"),
    ("disk", "writes"),
    ("disk", "bytes_read"),
    ("disk", "bytes_written"),
    ("volume", "reads"),
    ("volume", "writes"),
    ("lld", "flushes"),
    ("lld", "segments_sealed"),
    ("lld", "cleanings"),
    ("fs", "syncs"),
    ("sched", "ops_dispatched"),
    ("sched", "group_commits"),
    ("sched", "commits_deferred"),
    ("sched", "commit_inflight_s"),
    ("sched", "idle_advances"),
    ("sched", "idle_advance_s"),
    ("sched", "reads_parked"),
    ("sched", "read_inflight_s"),
)


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    if abs(value) >= 100:
        return f"{value:.1f}"
    return f"{value:.3f}"


def _series_map(series) -> dict:
    if series is None:
        return {}
    if isinstance(series, SeriesRecorder):
        return series.series
    return series


def _rate_rows(series, max_rates: int) -> list[list[str]]:
    rows = []
    for name, s in _series_map(series).items():
        if len(s) < 2:
            continue
        rate = s.rate()
        if rate == 0.0:
            continue
        rows.append((abs(rate), name, s.latest, rate))
    rows.sort(key=lambda r: (-r[0], r[1]))
    return [
        [name, _fmt(latest), f"{rate:+.2f}/s"]
        for _key, name, latest, rate in rows[:max_rates]
    ]


def _total_rows(payload: dict) -> list[list[str]]:
    rows = []
    for layer, key in _TOTAL_KEYS:
        section = payload.get(layer)
        if isinstance(section, dict) and isinstance(section.get(key), (int, float)):
            rows.append([f"{layer}.{key}", _fmt(float(section[key])), "-"])
    return rows


def _walk_histograms(payload, path: str, out: list) -> None:
    if not isinstance(payload, dict):
        return
    if is_histogram_dict(payload):
        out.append((path, payload))
        return
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            _walk_histograms(value, f"{path}.{key}" if path else key, out)


def _quantile_rows(payload: dict) -> list[list[str]]:
    found: list = []
    _walk_histograms(payload, "", found)
    rows = []
    for path, hist in found:
        count = hist.get("count", 0)
        if not count:
            continue
        rows.append(
            [
                path,
                str(count),
                f"{hist.get('p50', 0.0) * _MS:.3f}",
                f"{hist.get('p90', 0.0) * _MS:.3f}",
                f"{hist.get('p99', 0.0) * _MS:.3f}",
                f"{hist.get('max', 0.0) * _MS:.3f}",
            ]
        )
    return rows


def _finding_rows(findings) -> list[list[str]]:
    active = [f for f in findings if f.status != "ok"]
    return [
        [f.status.upper(), f.rule, f.subject or "-", f.detail]
        for f in sorted(active, key=lambda f: (f.status != "critical", f.rule))
    ]


def _event_rows(events, max_events: int) -> list[list[str]]:
    tail = list(events)[-max_events:]
    rows = []
    for event in tail:
        payload = json.dumps(event.payload, sort_keys=True) if event.payload else ""
        if len(payload) > 60:
            payload = payload[:57] + "..."
        rows.append([f"{event.t:.6f}", event.severity, event.name, payload])
    return rows


def render_top(
    payload: dict | None = None,
    *,
    series=None,
    events=None,
    findings=None,
    now: float | None = None,
    max_rates: int = 12,
    max_events: int = 10,
) -> str:
    """The dashboard text, from whichever inputs are available."""
    payload = payload or {}
    lines = []
    header = "ldtop —"
    if now is None:
        times = [
            s.latest_time
            for s in _series_map(series).values()
            if s.latest_time is not None
        ]
        if events is not None:
            times.extend(e.t for e in events)
        now = max(times, default=0.0)
    header += f" t={now:.6f}s simulated"
    if payload:
        header += f", {len(payload)} layer(s)"
    if events is not None:
        emitted = events.emitted if isinstance(events, EventLog) else len(list(events))
        header += f", {emitted} event(s)"
        if isinstance(events, EventLog) and events.dropped:
            header += f" ({events.dropped} dropped)"
    lines.append(header)

    rate_rows = _rate_rows(series, max_rates)
    if rate_rows:
        lines += ["", "== rates (windowed, per simulated second) =="]
        lines.append(_table(["metric", "latest", "rate"], rate_rows))
    elif payload:
        total_rows = _total_rows(payload)
        if total_rows:
            lines += ["", "== totals (no series data; rates unavailable) =="]
            lines.append(_table(["metric", "total", "rate"], total_rows))

    quantile_rows = _quantile_rows(payload)
    if quantile_rows:
        lines += ["", "== latency quantiles (bounded histograms, ms simulated) =="]
        lines.append(
            _table(
                ["source", "count", "p50", "p90", "p99", "max"], quantile_rows
            )
        )

    if findings is not None:
        lines += ["", "== health =="]
        finding_rows = _finding_rows(findings)
        if finding_rows:
            lines.append(_table(["status", "rule", "subject", "detail"], finding_rows))
        else:
            lines.append(f"all ok ({len(list(findings))} verdict(s))")

    if events is not None:
        lines += ["", f"== recent events (last {max_events}) =="]
        event_rows = _event_rows(events, max_events)
        if event_rows:
            lines.append(_table(["t", "severity", "event", "payload"], event_rows))
        else:
            lines.append("no events recorded")

    return "\n".join(lines)


def render_monitor(monitor, **kwargs) -> str:
    """Live dashboard over a :class:`~repro.obs.health.Monitor`."""
    verdicts = monitor.check()
    return render_top(
        monitor.registry.collect_nested(),
        series=monitor.series,
        events=monitor.events,
        findings=verdicts,
        now=monitor.clock.now,
        **kwargs,
    )


def _load_metrics(path) -> dict:
    """A metrics JSON file, normalized to the nested ``{layer: {...}}`` form."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise ValueError(f"metrics file {path} does not hold a JSON object")
    if not any("." in key for key in raw):
        return raw
    nested: dict = {}
    for key, value in raw.items():
        layer, _, rest = key.partition(".")
        if rest:
            nested.setdefault(layer, {})[rest] = value
        else:
            nested[key] = value
    return nested


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.top",
        description="ldtop: rates, latency quantiles, health findings, events.",
    )
    parser.add_argument("--metrics", help="metrics JSON (nested or layer-prefixed)")
    parser.add_argument("--events", help="events JSONL (export_events_jsonl)")
    parser.add_argument("--series", help="series JSONL (export_series_jsonl)")
    parser.add_argument(
        "--max-events", type=int, default=10, help="event-tail rows to show"
    )
    args = parser.parse_args(argv)
    if not (args.metrics or args.events or args.series):
        parser.error("give at least one of --metrics / --events / --series")

    payload = _load_metrics(args.metrics) if args.metrics else {}
    series = load_series_jsonl(args.series) if args.series else None
    events = None
    if args.events:
        loaded = load_events_jsonl(args.events)
        events = EventLog(capacity=max(1, len(loaded)))
        for event in loaded:
            events.events.append(event)
        events.emitted = len(loaded)

    findings = None
    if payload:
        ctx = HealthContext(
            payload,
            series=series,
            events=events,
            now=max((e.t for e in events), default=0.0) if events else 0.0,
        )
        findings = HealthMonitor(default_rules()).evaluate(ctx)

    print(
        render_top(
            payload,
            series=series,
            events=events,
            findings=findings,
            max_events=args.max_events,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
