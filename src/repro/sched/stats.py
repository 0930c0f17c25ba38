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

from dataclasses import dataclass, field

from repro.obs.hist import LatencyHistogram
from repro.obs.metrics import Counters


@dataclass(slots=True)
class TenantSchedStats(Counters):
    """Queue-side counters for one tenant session."""

    submitted: int = 0
    dispatched: int = 0
    reads: int = 0
    writes: int = 0
    flushes: int = 0
    flushes_deferred: int = 0
    calls: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    rate_limited: int = 0
    #: Flush intents made durable, and their latency from submission
    #: to the acknowledgement — when the disks had the commit, not when
    #: it was dispatched (virtual seconds): the per-tenant fsync ack
    #: figures.
    acks: int = 0
    ack_latency_total: float = 0.0
    ack_latency_max: float = 0.0
    #: Bounded sketch of the same latencies: the p50/p99 source.
    ack_latency_hist: LatencyHistogram = field(default_factory=LatencyHistogram)

    DERIVED = ("ack_latency_p50", "ack_latency_p99")

    @property
    def ack_latency_p50(self) -> float:
        return self.ack_latency_hist.quantile(0.50)

    @property
    def ack_latency_p99(self) -> float:
        return self.ack_latency_hist.quantile(0.99)


@dataclass(slots=True)
class SchedStats(Counters):
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
    # Reads the same way: read ops whose data the disks delivered after
    # the read was dispatched, and the simulated seconds between the two.
    reads_parked: int = 0
    read_inflight_s: float = 0.0

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
