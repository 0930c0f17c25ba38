"""Scheduler counters: the ``sched.*`` metrics namespace.

:class:`SchedStats` follows the same :class:`~repro.obs.metrics.Snapshot`
protocol as ``LLDStats``/``DiskStats``, so a server registers under the
``"sched"`` layer of a :class:`~repro.obs.MetricsRegistry` and its
figures land in BENCH reports beside every other layer's.

Per-tenant queueing figures live here (``TenantSchedStats``); per-tenant
slices of the *LD-level* hot-path counters (blocks, cache hits) live in
``LLDStats.tenants`` — the scheduler tells the LLD which tenant is on
the wire via ``set_tenant`` and the LLD attributes its own counters.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.obs.hist import LatencyHistogram


class TenantSchedStats:
    """Queue-side counters for one tenant session."""

    __slots__ = (
        "submitted",
        "dispatched",
        "reads",
        "writes",
        "flushes",
        "flushes_deferred",
        "calls",
        "bytes_read",
        "bytes_written",
        "rate_limited",
        "acks",
        "ack_latency_total",
        "ack_latency_max",
        "ack_latency_hist",
    )

    def __init__(self) -> None:
        self.submitted = 0
        self.dispatched = 0
        self.reads = 0
        self.writes = 0
        self.flushes = 0
        self.flushes_deferred = 0
        self.calls = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.rate_limited = 0
        #: Flush intents made durable, and their latency from submission
        #: to the acknowledgement — when the disks had the commit, not when
        #: it was dispatched (virtual seconds): the per-tenant fsync ack
        #: figures.
        self.acks = 0
        self.ack_latency_total = 0.0
        self.ack_latency_max = 0.0
        #: Bounded sketch of the same latencies: the p50/p99 source.
        self.ack_latency_hist = LatencyHistogram()

    def copy(self) -> "TenantSchedStats":
        twin = TenantSchedStats()
        for name in self.__slots__:
            value = getattr(self, name)
            if isinstance(value, LatencyHistogram):
                value = value.copy()
            setattr(twin, name, value)
        return twin

    def as_dict(self) -> dict:
        out = {}
        for name in self.__slots__:
            value = getattr(self, name)
            out[name] = value.as_dict() if isinstance(value, LatencyHistogram) else value
        hist = self.ack_latency_hist
        out["ack_latency_p50"] = hist.quantile(0.50)
        out["ack_latency_p99"] = hist.quantile(0.99)
        return out


@dataclass
class SchedStats:
    """Server-wide scheduler counters (Snapshot protocol)."""

    ops_submitted: int = 0
    ops_dispatched: int = 0
    reads_dispatched: int = 0
    writes_dispatched: int = 0
    calls_dispatched: int = 0
    flushes_dispatched: int = 0

    # Elevator / merge figures: how much cross-tenant read traffic was
    # folded into vectored read_blocks submissions.
    read_batches: int = 0
    batched_reads: int = 0
    elevator_batches: int = 0  # batches >1 entry that were LBA-sorted
    batch_fallbacks: int = 0  # batches re-dispatched singly after an error

    # Cross-tenant group commit.
    group_commits: int = 0
    flushes_deferred: int = 0
    intents_committed: int = 0
    forced_flushes: int = 0
    # How much of it overlapped with other work: commits whose writes were
    # still in flight when the flush returned, the simulated seconds they
    # had left, and how much of that the server spent with nothing to
    # dispatch (waiting for the disks at the device) — the rest was
    # covered by other tenants' ops.
    commits_deferred: int = 0
    commit_inflight_s: float = 0.0
    idle_advances: int = 0
    idle_advance_s: float = 0.0

    # Fairness / QoS machinery.
    rounds: int = 0
    rate_limited: int = 0
    rate_cap_overrides: int = 0
    max_queue_depth: int = 0

    tenants: dict = field(default_factory=dict)

    def tenant(self, name: str) -> TenantSchedStats:
        stats = self.tenants.get(name)
        if stats is None:
            stats = self.tenants[name] = TenantSchedStats()
        return stats

    def snapshot(self) -> "SchedStats":
        copy = dataclasses.replace(self)
        copy.tenants = {name: t.copy() for name, t in self.tenants.items()}
        return copy

    def as_dict(self) -> dict:
        out = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name != "tenants"
        }
        out["tenants"] = {
            name: t.as_dict() for name, t in sorted(self.tenants.items())
        }
        return out
