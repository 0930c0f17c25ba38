"""Concurrent multi-tenant LD server: request queues + I/O scheduler.

The paper positions the Logical Disk as a *shared* abstraction between
file systems and disk management, but a bare LLD is single-caller and
synchronous. This package adds the serving layer that makes sharing
real: an :class:`LDServer` owns one live LD, any number of clients open
:class:`TenantSession` handles (each a full ``LogicalDisk``
implementation), ops flow through per-tenant queues, and a pluggable
scheduler dispatches them —

* **elevator ordering**: read batches are sorted by ``(spindle, LBA)``
  against the simulated geometry and volume spindle map;
* **adjacent-read merging**: reads from *different* tenants fold into
  one vectored ``read_blocks`` call, which the LLD already coalesces
  into multi-sector disk requests;
* **cross-tenant group commit**: deferrable flush intents pool across
  tenants and one physical flush acknowledges the batch
  (``group_commit=N``, the one spelling of group commit);
* **fairness/QoS**: deficit round-robin with per-tenant weights.

Per-tenant program order and barrier-epoch semantics are preserved by
construction and pinned down by property tests and a crash-matrix run in
``tests/sched``.
"""

from repro.sched.ops import (
    KIND_CALL,
    KIND_FLUSH,
    KIND_READ,
    KIND_READ_BLOCKS,
    KIND_WRITE,
    Op,
)
from repro.sched.queues import TenantQueue
from repro.sched.scheduler import FIFOScheduler, QoSElevatorScheduler, Scheduler
from repro.sched.server import LDServer, SchedulerStalledError
from repro.sched.session import TenantSession
from repro.sched.stats import SchedStats, TenantSchedStats

__all__ = [
    "KIND_CALL",
    "KIND_FLUSH",
    "KIND_READ",
    "KIND_READ_BLOCKS",
    "KIND_WRITE",
    "FIFOScheduler",
    "LDServer",
    "Op",
    "QoSElevatorScheduler",
    "SchedStats",
    "Scheduler",
    "SchedulerStalledError",
    "TenantQueue",
    "TenantSchedStats",
    "TenantSession",
]
