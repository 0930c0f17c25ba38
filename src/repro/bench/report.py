"""Rendering paper-vs-measured tables and JSON reports for the benchmarks."""

from __future__ import annotations

import dataclasses
import json


def render_table(
    title: str,
    columns: list[str],
    rows: dict[str, dict[str, float | str]],
    note: str = "",
) -> str:
    """Format a small fixed-width table.

    ``rows`` maps row label -> {column -> value}. Floats are shown with a
    sensible precision; missing cells render as '-'.
    """
    label_width = max([len(r) for r in rows] + [len(title), 12])
    col_width = max([len(c) for c in columns] + [10]) + 2

    def fmt(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            if value >= 100:
                return f"{value:.0f}"
            if value >= 10:
                return f"{value:.1f}"
            return f"{value:.2f}"
        return str(value)

    lines = [f"== {title} =="]
    header = " " * label_width + "".join(c.rjust(col_width) for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for label, cells in rows.items():
        line = label.ljust(label_width) + "".join(
            fmt(cells.get(c)).rjust(col_width) for c in columns
        )
        lines.append(line)
    if note:
        lines.append(note)
    return "\n".join(lines)


def write_path_summary(lld_stats: dict, disk_stats: dict) -> dict:
    """Write-side figures for a benchmark report.

    Takes ``LLDStats.as_dict()`` and ``DiskStats.as_dict()`` payloads and
    derives the write-amplification view: logical vs physical bytes, the
    partial-flush mix, and the write-request-size histogram.
    """
    logical = lld_stats.get("data_bytes_logical", 0)
    physical = lld_stats.get("data_bytes_physical", 0)
    return {
        "data_bytes_logical": logical,
        "data_bytes_physical": physical,
        "write_amplification": (physical / logical) if logical else None,
        "disk_bytes_written": disk_stats.get("bytes_written", 0),
        "disk_writes": disk_stats.get("writes", 0),
        "flushes": lld_stats.get("flushes", 0),
        "flushes_noop": lld_stats.get("flushes_noop", 0),
        "partial_segment_writes": lld_stats.get("partial_segment_writes", 0),
        "partial_delta_flushes": lld_stats.get("partial_delta_flushes", 0),
        "partial_full_writes": lld_stats.get("partial_full_writes", 0),
        "partial_delta_noop": lld_stats.get("partial_delta_noop", 0),
        "partial_delta_summary_bytes": lld_stats.get("partial_delta_summary_bytes", 0),
        "partial_delta_data_bytes": lld_stats.get("partial_delta_data_bytes", 0),
        "segments_sealed": lld_stats.get("segments_sealed", 0),
        "write_request_sizes": disk_stats.get("write_request_sizes", {}),
    }


def crash_matrix_summary(report) -> dict:
    """Crash-matrix figures for a benchmark report.

    Takes a ``repro.crashsim.ExplorationReport`` and flattens it into the
    JSON shape CI diffs: how many crash states were explored (by kind),
    every violation the invariant checker raised, and what recovering a
    materialized image cost in simulated time (mean and max; the per-state
    list stays on ``report.recovery_seconds``, out of the committed file).
    """
    return {
        "states_explored": report.states_total,
        "states_by_kind": dict(report.states_by_kind),
        "violations": [
            {
                "state_id": v.state_id,
                "kind": v.kind,
                "invariant": v.invariant,
                "message": v.message,
            }
            for v in report.violations
        ],
        "violation_count": len(report.violations),
        "recovery_seconds_mean": report.recovery_seconds_mean,
        "recovery_seconds_max": report.recovery_seconds_max,
    }


def _coerce(value):
    """JSON fallback for the types benchmark payloads actually contain."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


def render_json(payload: dict) -> str:
    """Serialize a benchmark payload (dicts, dataclasses, numbers) to JSON.

    Key ordering is deterministic end to end: ``sort_keys`` orders every
    object, and the registry's ``collect()`` emits sorted layer-prefixed
    keys, so byte-identical state renders to byte-identical JSON.
    """
    return json.dumps(payload, indent=2, sort_keys=True, default=_coerce)


def write_json_report(path, payload: dict) -> str:
    """Write a machine-readable benchmark report; returns the path written.

    This is the emission point for the perf trajectory: benchmarks dump
    ``LLDStats.as_dict()`` / ``DiskStats.as_dict()`` snapshots plus their
    derived figures so CI can diff runs without parsing tables.
    """
    text = render_json(payload)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return str(path)
