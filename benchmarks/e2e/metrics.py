"""Metric declarations, and the figures taken from the layers' public stats.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names, units,
directions and bounds; ``BENCHMARK.json`` is :func:`manifest` written out,
and a self-test keeps the two equal.

Simulated, ratio and count figures repeat exactly for one seed (``exact``);
CPU and memory figures do not, and are the only ones that need repeats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs import LatencyHistogram

from benchmarks.e2e.stack import SEGMENT_SIZE, Stack
from benchmarks.e2e.trace import LAYERS, LayerTable
from benchmarks.e2e.workloads import WORKLOADS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # end-to-end only: share of the parent's median
    exact: bool = True  # repeats bit-identically for one seed


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, exact=False),
    Metric("sim_ops_per_s", "ops/sim-s", "higher", 0.05),
    Metric("sim_mb_per_s", "MB/sim-s", "higher", 0.05),
    Metric("sim_op_p50_ms", "sim-ms", "lower", 0.12),
    Metric("sim_op_p99_ms", "sim-ms", "lower", 0.15),
    Metric("cpu_us_per_op", "us", "lower", 0.20, exact=False),
    Metric("peak_rss_mb", "MB", "lower", 0.05, exact=False),
    Metric("write_amp", "ratio", "lower", 0.15),
    Metric("read_amp", "ratio", "lower", 0.15),
    Metric("space_amp", "ratio", "lower", 0.25),
    Metric("recover_sim_ms", "sim-ms", "lower", 0.25),
    Metric("recover_cpu_ms", "ms", "lower", 0.25, exact=False),
)


def _traced(layer: str) -> list[Metric]:
    rows = [
        Metric(f"{layer}.calls", "count", "lower"),
        Metric(f"{layer}.cpu_self_us_per_op", "us", "lower", exact=False),
        Metric(f"{layer}.cpu_share", "frac", "lower", exact=False),
        Metric(f"{layer}.sim_self_ms_per_op", "sim-ms", "lower"),
        Metric(f"{layer}.bytes_in", "bytes", "lower"),
    ]
    if layer != "disk":
        rows.append(Metric(f"{layer}.amp_below", "ratio", "lower"))
    return rows


PER_LAYER = (
    *(metric for layer in LAYERS for metric in _traced(layer)),
    Metric("fs.cache_hit_rate", "frac", "higher"),
    Metric("fs.absorbed_op_frac", "frac", "higher"),
    Metric("fs.syncs", "count", "lower"),
    Metric("fs.syncs_deferred", "count", "higher"),
    Metric("fs.inode_writes", "count", "lower"),
    Metric("fs.zone_writes", "count", "lower"),
    Metric("sched.ops_dispatched", "count", "lower"),
    Metric("sched.group_commits", "count", "lower"),
    Metric("sched.intents_per_commit", "ratio", "higher"),
    Metric("sched.batched_read_frac", "frac", "higher"),
    Metric("sched.max_queue_depth", "count", "lower"),
    Metric("sched.queue_wait_p99_ms", "sim-ms", "lower"),
    Metric("sched.tenant_spread", "ratio", "lower"),
    Metric("lld.write_amp", "ratio", "lower"),
    Metric("lld.flushes", "count", "lower"),
    Metric("lld.partial_segment_writes", "count", "lower"),
    Metric("lld.segments_sealed", "count", "lower"),
    Metric("lld.cleanings", "count", "lower"),
    Metric("lld.blocks_cleaned", "count", "lower"),
    Metric("lld.cleaner_write_share", "frac", "lower"),
    Metric("lld.blocks_read", "count", "lower"),
    Metric("lld.memory_reads", "count", "higher"),
    Metric("lld.blocks_per_disk_read", "ratio", "higher"),
    Metric("lld.free_segments_min", "count", "higher"),
    Metric("lld.recover_segments_scanned", "count", "lower"),
    Metric("lld.recover_records_seen", "count", "lower"),
    Metric("volume.full_stripe_frac", "frac", "higher"),
    Metric("volume.rmw_writes", "count", "lower"),
    Metric("volume.parity_write_amp", "ratio", "lower"),
    Metric("volume.sub_ios_per_request", "ratio", "lower"),
    Metric("volume.busy_balance", "ratio", "higher"),
    Metric("volume.degraded_reads", "count", "lower"),
    Metric("volume.reconstructed_reads", "count", "lower"),
    Metric("volume.rebuild_rows_done", "count", "higher"),
    Metric("volume.read_latency_p99_ms", "sim-ms", "lower"),
    Metric("volume.write_latency_p99_ms", "sim-ms", "lower"),
    Metric("disk.requests", "count", "lower"),
    Metric("disk.bytes_per_request", "bytes", "higher"),
    Metric("disk.busy_s", "sim-s", "lower"),
    Metric("disk.seek_frac", "frac", "lower"),
    Metric("disk.rotation_frac", "frac", "lower"),
    Metric("disk.transfer_frac", "frac", "higher"),
    Metric("disk.barriers", "count", "lower"),
    Metric("trace.overhead_frac", "frac", "lower", exact=False),
    Metric("trace.self_sum_error", "frac", "lower", exact=False),
)

RUN_SECONDS = 5


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def ratio(numerator: float, denominator: float, empty: float = 0.0) -> float:
    return numerator / denominator if denominator else empty


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# Window deltas of the public stats objects
# ---------------------------------------------------------------------------


def snapshot(stack: Stack) -> dict:
    """Every layer's counters, via the stats objects' own ``as_dict()``."""
    stores = [fs.store for fs in stack.filesystems.values()]
    return {
        "clock": stack.clock.now,
        "store": [store.stats.as_dict() for store in stores],
        "cache": [(store.cache.hits, store.cache.misses) for store in stores],
        "sched": stack.server.stats.as_dict(),
        "lld": stack.lld.stats.as_dict(),
        "volume": stack.volume.volume_stats.as_dict(),
        "volume_requests": stack.volume.stats.as_dict(),
        "disks": [disk.stats.as_dict() for disk in stack.disks],
        "members": [stack.disks.index(disk) for disk in stack.volume.disks],
    }


def _window_hist(after: dict, before: dict | None) -> LatencyHistogram:
    hist = LatencyHistogram.from_dict(after)
    return hist.subtract(LatencyHistogram.from_dict(before)) if before else hist


def member_bytes(before: dict, after: dict) -> tuple[int, int]:
    """Bytes the member disks read and wrote in the window, all members."""
    def total(snap: dict, key: str) -> int:
        return sum(disk[key] for disk in snap["disks"])

    return (
        total(after, "bytes_read") - total(before, "bytes_read"),
        total(after, "bytes_written") - total(before, "bytes_written"),
    )


def window_metrics(before: dict, after: dict) -> dict[str, float]:
    """The per-layer figures that are deltas of public counters."""

    def delta(section: str, key: str) -> float:
        return after[section][key] - before[section][key]

    def store(key: str) -> float:
        return sum(s[key] for s in after["store"]) - sum(s[key] for s in before["store"])

    def disks(key: str) -> float:
        return sum(d[key] for d in after["disks"]) - sum(d[key] for d in before["disks"])

    def member_busy(index: int) -> float:
        start = before["disks"][index]["busy_time"] if index < len(before["disks"]) else 0.0
        return after["disks"][index]["busy_time"] - start

    hits = sum(h for h, _m in after["cache"]) - sum(h for h, _m in before["cache"])
    misses = sum(m for _h, m in after["cache"]) - sum(m for _h, m in before["cache"])

    waits = LatencyHistogram()
    for name, tenant in after["sched"]["tenants"].items():
        earlier = before["sched"]["tenants"].get(name)
        waits.merge(
            _window_hist(
                tenant["ack_latency_hist"], earlier and earlier["ack_latency_hist"]
            )
        )

    parity_writes = (
        delta("volume", "full_stripe_writes")
        + delta("volume", "rmw_writes")
        + delta("volume", "degraded_writes")
    )
    member_read, member_written = member_bytes(before, after)
    busy = [member_busy(index) for index in after["members"]]
    busy_s = disks("busy_time")
    requests = disks("requests")
    appended = delta("lld", "blocks_written") + delta("lld", "blocks_cleaned")
    return {
        "fs.cache_hit_rate": ratio(hits, hits + misses),
        "fs.syncs": store("syncs"),
        "fs.syncs_deferred": store("syncs_deferred"),
        "fs.inode_writes": store("inode_writes"),
        "fs.zone_writes": store("zone_writes"),
        "sched.ops_dispatched": delta("sched", "ops_dispatched"),
        "sched.group_commits": delta("sched", "group_commits"),
        "sched.intents_per_commit": ratio(
            delta("sched", "intents_committed"), delta("sched", "group_commits")
        ),
        "sched.batched_read_frac": ratio(
            delta("sched", "batched_reads"), delta("sched", "reads_dispatched")
        ),
        "sched.max_queue_depth": after["sched"]["max_queue_depth"],
        "sched.queue_wait_p99_ms": waits.quantile(0.99) * 1000,
        "lld.write_amp": ratio(
            delta("lld", "data_bytes_physical"), delta("lld", "data_bytes_logical")
        ),
        "lld.flushes": delta("lld", "flushes"),
        "lld.partial_segment_writes": delta("lld", "partial_segment_writes"),
        "lld.segments_sealed": delta("lld", "segments_sealed"),
        "lld.cleanings": delta("lld", "cleanings"),
        "lld.blocks_cleaned": delta("lld", "blocks_cleaned"),
        "lld.cleaner_write_share": ratio(delta("lld", "blocks_cleaned"), appended),
        "lld.blocks_read": delta("lld", "blocks_read"),
        "lld.memory_reads": delta("lld", "memory_reads"),
        "lld.blocks_per_disk_read": ratio(
            delta("lld", "blocks_read") - delta("lld", "memory_reads"),
            delta("volume_requests", "reads"),
        ),
        "volume.full_stripe_frac": ratio(delta("volume", "full_stripe_writes"), parity_writes),
        "volume.rmw_writes": delta("volume", "rmw_writes"),
        "volume.parity_write_amp": ratio(
            member_written, delta("volume_requests", "bytes_written")
        ),
        "volume.sub_ios_per_request": ratio(
            delta("volume", "sub_reads") + delta("volume", "sub_writes"),
            delta("volume", "reads") + delta("volume", "writes"),
        ),
        "volume.busy_balance": ratio(min(busy), max(busy), empty=1.0),
        "volume.degraded_reads": delta("volume", "degraded_reads"),
        "volume.reconstructed_reads": delta("volume", "reconstructed_reads"),
        "volume.rebuild_rows_done": delta("volume", "rebuild_rows_done"),
        "volume.read_latency_p99_ms": _window_hist(
            after["volume"]["read_latency_hist"], before["volume"]["read_latency_hist"]
        ).quantile(0.99) * 1000,
        "volume.write_latency_p99_ms": _window_hist(
            after["volume"]["write_latency_hist"], before["volume"]["write_latency_hist"]
        ).quantile(0.99) * 1000,
        "disk.requests": requests,
        "disk.bytes_per_request": ratio(member_read + member_written, requests),
        "disk.busy_s": busy_s,
        "disk.seek_frac": ratio(disks("seek_time"), busy_s),
        "disk.rotation_frac": ratio(disks("rotation_time"), busy_s),
        "disk.transfer_frac": ratio(disks("transfer_time"), busy_s),
        "disk.barriers": disks("barriers"),
    }


def space_amp(stack: Stack, live_bytes: int) -> float:
    """(segments not free x segment size) / live user bytes."""
    lld = stack.lld
    used = lld.layout.segment_count - lld.free_segment_count()
    return ratio(used * SEGMENT_SIZE, live_bytes)


def traced_metrics(table: LayerTable, ops: int, speed_scale: float) -> dict[str, float]:
    """The per-layer figures that come from spans.

    ``speed_scale`` brings the spans' nanoseconds to reference speed (see
    :mod:`benchmarks.e2e.calibrate`), like the end-to-end CPU figures.
    """
    out: dict[str, float] = {"trace.self_sum_error": table.self_sum_error}
    for below, layer in zip((*LAYERS[1:], None), LAYERS):
        row = table.rows[layer]
        out[f"{layer}.calls"] = row.calls
        out[f"{layer}.cpu_self_us_per_op"] = row.cpu_self_ns / 1000 / ops * speed_scale
        out[f"{layer}.cpu_share"] = ratio(row.cpu_self_ns, table.root_ns)
        out[f"{layer}.sim_self_ms_per_op"] = row.sim_self_s * 1000 / ops
        out[f"{layer}.bytes_in"] = row.bytes_in
        if below is not None:
            out[f"{layer}.amp_below"] = ratio(table.rows[below].bytes_in, row.bytes_in)
    return out

