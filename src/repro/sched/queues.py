"""Per-tenant request queues and their deficit-round-robin state.

Each tenant session owns one :class:`TenantQueue`. The QoS scheduler
serves queues deficit-round-robin: every visit adds ``quantum * weight``
bytes of deficit and the queue may dispatch head ops until the deficit
runs out — so over time each backlogged tenant receives disk work in
proportion to its weight, independent of op sizes.
"""

from __future__ import annotations

from collections import deque

from repro.sched.stats import TenantSchedStats


class TenantQueue:
    """One tenant's FIFO of pending ops plus its QoS state."""

    __slots__ = ("name", "weight", "ops", "deficit", "stats")

    def __init__(self, name: str, weight: float, stats: TenantSchedStats) -> None:
        if weight <= 0:
            raise ValueError(f"tenant weight must be positive: {weight}")
        self.name = name
        self.weight = float(weight)
        self.ops = deque()
        self.deficit = 0.0
        self.stats = stats

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TenantQueue({self.name!r}, {len(self.ops)} pending)"
