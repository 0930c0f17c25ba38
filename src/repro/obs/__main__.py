"""``python -m repro.obs trace.json`` — per-layer latency/ops dashboard.

Reads an exported trace (Chrome ``trace_event`` JSON or JSONL, sniffed)
and renders the layer attribution the paper's evaluation is built on:
how much simulated time each layer spent *itself* (exclusive of the
layers it called into), plus a per-operation latency table.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict

from repro.obs.export import load_trace
from repro.obs.trace import Span

_MS = 1000.0


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * _MS:.3f}"


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


def self_times(spans: list[Span]) -> dict[int, float]:
    """Exclusive time per span: duration minus direct children's durations.

    This is what makes per-layer totals sum sensibly — an ``fs.sync``
    span *includes* the ``lld.flush`` beneath it, which includes the
    ``disk.write``s beneath that; exclusive time charges each layer only
    for what it did itself.
    """
    child_duration: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            child_duration[span.parent_id] += span.duration
    return {
        span.span_id: max(0.0, span.duration - child_duration.get(span.span_id, 0.0))
        for span in spans
    }


def render_dashboard(spans: list[Span], top: int = 20) -> str:
    if not spans:
        return "empty trace: no spans"
    exclusive = self_times(spans)
    t0 = min(s.start for s in spans)
    t1 = max(s.end if s.end is not None else s.start for s in spans)
    window = t1 - t0

    by_layer: dict[str, list[Span]] = defaultdict(list)
    by_op: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_layer[span.layer].append(span)
        by_op[span.name].append(span)

    total_self = sum(exclusive.values()) or 1e-12
    lines = [
        f"trace: {len(spans)} spans, "
        f"{len(by_op)} ops, {len(by_layer)} layers, "
        f"window {_fmt_ms(window)} ms simulated",
        "",
        "== per-layer attribution (exclusive simulated time) ==",
    ]
    layer_rows = []
    for layer in sorted(by_layer, key=lambda l: -sum(exclusive[s.span_id] for s in by_layer[l])):
        members = by_layer[layer]
        self_s = sum(exclusive[s.span_id] for s in members)
        layer_rows.append(
            [
                layer,
                str(len(members)),
                _fmt_ms(self_s),
                f"{100.0 * self_s / total_self:.1f}%",
            ]
        )
    lines.append(_table(["layer", "spans", "self ms", "share"], layer_rows))

    lines += ["", f"== per-op latency (top {top} by total simulated time) =="]
    op_rows = []
    ranked = sorted(
        by_op.items(), key=lambda item: -sum(s.duration for s in item[1])
    )[:top]
    for name, members in ranked:
        durations = sorted(s.duration for s in members)
        total = sum(durations)
        op_rows.append(
            [
                name,
                str(len(members)),
                _fmt_ms(total),
                _fmt_ms(total / len(members)),
                _fmt_ms(durations[len(durations) // 2]),
                _fmt_ms(durations[-1]),
            ]
        )
    lines.append(
        _table(["op", "count", "total ms", "mean ms", "p50 ms", "max ms"], op_rows)
    )

    lines += _in_flight(by_op)

    roots = [s for s in spans if s.parent_id is None]
    lines += [
        "",
        f"{len(roots)} root span(s); deepest chain "
        f"{_max_depth(spans)} levels",
    ]
    return "\n".join(lines)


def _in_flight(by_op: dict[str, list[Span]]) -> list[str]:
    """What the server's commits and reads overlapped with, from their spans.

    A ``sched.group_commit`` span ends when the commit is issued and
    carries ``complete_at``, when the disks had it; so does the
    ``sched.dispatch`` or ``sched.read_batch`` span of a read the disks
    delivered later (a batch also says how many reads it ``parked``);
    ``sched.idle_advance`` spans are the part of that time the server had
    nothing to dispatch. The same figures as ``SchedStats.commits_deferred``,
    ``commit_inflight_s``, ``reads_parked``, ``read_inflight_s``,
    ``idle_advances`` and ``idle_advance_s``.
    """
    commits = [s for s in by_op.get("sched.group_commit", ()) if "complete_at" in s.attrs]
    reads = [
        (s.attrs.get("parked", 1), s.attrs["complete_at"] - s.end)
        for name in ("sched.dispatch", "sched.read_batch")
        for s in by_op.get(name, ())
        if s.attrs.get("complete_at", s.end) > s.end
    ]
    if not commits and not reads:
        return []
    inflight = [s.attrs["complete_at"] - s.end for s in commits]
    deferred = [t for t in inflight if t > 0]
    idle = by_op.get("sched.idle_advance", ())
    rows = [
        ["sched.group_commits", str(len(commits)), "-"],
        ["sched.commits_deferred", str(len(deferred)), _fmt_ms(sum(deferred))],
        [
            "sched.reads_parked",
            str(sum(n for n, _t in reads)),
            _fmt_ms(sum(n * t for n, t in reads)),
        ],
        ["sched.idle_advances", str(len(idle)), _fmt_ms(sum(s.duration for s in idle))],
    ]
    return [
        "",
        "== commits and reads in flight (done at the disks' completion time) ==",
        _table(["figure", "count", "total ms"], rows),
    ]


def _max_depth(spans: list[Span]) -> int:
    parents = {s.span_id: s.parent_id for s in spans}
    depth_cache: dict[int, int] = {}

    def depth(span_id: int) -> int:
        if span_id in depth_cache:
            return depth_cache[span_id]
        parent = parents.get(span_id)
        d = 1 if parent is None or parent not in parents else depth(parent) + 1
        depth_cache[span_id] = d
        return d

    return max(depth(sid) for sid in parents) if parents else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render a per-layer latency/ops dashboard from a trace file.",
    )
    parser.add_argument("trace", help="Chrome trace_event JSON or JSONL file")
    parser.add_argument(
        "--top", type=int, default=20, help="ops to show in the latency table"
    )
    args = parser.parse_args(argv)
    print(render_dashboard(load_trace(args.trace), top=args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
