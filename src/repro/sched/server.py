"""The multi-tenant LD server: queues in, scheduled LD calls out.

One :class:`LDServer` owns one live :class:`~repro.ld.LogicalDisk` and
multiplexes any number of tenant sessions over it, the way an object
server multiplexes clients in a distributed file system. Sessions submit
:class:`~repro.sched.ops.Op` objects into per-tenant queues; a pluggable
:class:`~repro.sched.scheduler.Scheduler` decides dispatch order; the
server executes the chosen ops against the LD and completes them.

Ordering contract (pinned by the property tests in ``tests/sched``):

* **Per-tenant program order.** Ops of one tenant dispatch in submission
  order, always. Schedulers can only pop queue heads, so this holds by
  construction.
* **Cross-tenant freedom.** Ops of different tenants may interleave and
  reorder arbitrarily between durability points.
* **Barrier epochs.** A ``FLUSH`` op is a durability point: when its
  intent is committed (alone, or batched with other tenants' intents by
  the group commit), every op any committed tenant submitted *before*
  its flush has already been dispatched. Deferrable flushes never jump
  ahead of their tenant's earlier ops, and the physical ``ld.flush()``
  covers all dispatched work — so barrier semantics survive queueing.
  An op dispatched after a commit, acknowledged or not, belongs to the
  next epoch: that commit does not cover it.

Event model: an op has a *dispatch* time, when the server executes it
against the LD, and a *completion* time, when its ``done`` flips and the
client may act on it. For writes and metadata calls the two coincide —
the LD call is synchronous. Reads and group commits are different: the
disks finish them later. ``ld.read(bid, wait=False)`` dispatches the read
and hands back its bytes stamped with when the device delivers them;
``ld.flush(wait=False)`` issues and orders the writes and says when the
disks will have them. The read op, or the op that triggered the commit,
is *parked* on the completion list until the shared clock reaches that
time. Meanwhile the server keeps dispatching — other tenants' writes,
metadata calls and reads run inside the disks' time, each queueing at the
members it needs — and a closed-loop client's window slot stays occupied
until the completion. What a read returns is fixed at its dispatch: the
bytes of every write dispatched before it, of none after. The server
never moves the clock itself: a round that dispatches nothing while
completions are parked waits for the disks where a flush would have, with
a waiting barrier at the device (:meth:`LDServer.step`), and a server with
a single tenant — nobody to keep going meanwhile — lets its reads and
flushes wait, so a solo tenant gets call for call what it would get from
the LD directly.

Concurrency model: this is a discrete-event simulation, so the server is
synchronous — ``step()`` runs one scheduler round on the caller's
thread. Sessions provide both a blocking LD facade (submit + drain) and
nonblocking ``submit_*`` handles for closed-loop multi-tenant drivers.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from operator import attrgetter

from repro.ld.errors import LDError
from repro.obs import stack
from repro.obs.trace import NULL_SPAN
from repro.sched.ops import (
    KIND_CALL,
    KIND_FLUSH,
    KIND_READ,
    KIND_READ_BLOCKS,
    KIND_WRITE,
    Op,
)
from repro.sched.queues import TenantQueue, TokenBucket
from repro.sched.stats import SchedStats


_ARRIVAL = attrgetter("arrival")


class SchedulerStalledError(LDError, RuntimeError):
    """Ops are queued, a round dispatched none of them, and no parked
    completion is left for the disks to finish."""


class LDServer:
    """Request-queue front end over one logical disk.

    ``group_commit`` is the one spelling of group commit: deferrable
    flush intents from *any* tenant pool together, and the Nth intent (or any forced flush)
    triggers one physical ``ld.flush()`` that acknowledges them all.

    ``record_dispatch=True`` keeps an event journal — ``("submit", ...)``,
    ``("dispatch", ...)``, ``("commit", intents, complete_at)`` and
    ``("ack", intents, at)`` tuples — used by the property tests to check
    ordering invariants. Off by default: the journal grows with the
    workload.
    """

    def __init__(
        self,
        ld,
        scheduler=None,
        *,
        group_commit: int = 1,
        record_dispatch: bool = False,
        tracer=None,
    ) -> None:
        if group_commit < 1:
            raise ValueError(f"group_commit must be >= 1: {group_commit}")
        if scheduler is None:
            from repro.sched.scheduler import QoSElevatorScheduler

            scheduler = QoSElevatorScheduler()
        self.ld = ld
        self.scheduler = scheduler
        self.group_commit = group_commit
        self.stats = SchedStats()
        stack.inherit(self, ld, tracer)
        self.tenants: dict[str, TenantQueue] = {}
        self.sessions: dict[str, object] = {}
        self.dispatch_log: list[tuple] | None = [] if record_dispatch else None
        self.block_size = getattr(getattr(ld, "config", None), "block_size", 4096)
        self._names: list[str] = []
        self._rr = 0
        self._arrival = 0
        self._epoch = 0
        self._intents: list[Op] = []
        #: The completion list: commits and reads the disks have not
        #: finished yet, a heap of ``(complete_at, ticket, op, intents)`` —
        #: a commit's trigger op (None for ``close()``'s) and intents, a
        #: read op and None. Tickets order entries due at the same time.
        self._parked: list[tuple] = []
        self._tickets = count()
        # Resolved once: per-tenant attribution, placement and ARU
        # re-attachment hooks are optional on the LD (present on LLD,
        # absent on e.g. bare ULD).
        self._set_tenant = getattr(ld, "set_tenant", None)
        self._placement = getattr(ld, "placement_hint", None)
        self._attach_aru = getattr(ld, "attach_aru", None)

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------

    def open_session(
        self,
        name: str,
        *,
        weight: float = 1.0,
        rate_bytes_per_sec: float | None = None,
        burst_bytes: float | None = None,
    ):
        """Open a tenant session; returns its LD-compatible handle.

        ``weight`` scales the tenant's deficit-round-robin share;
        ``rate_bytes_per_sec`` adds a token-bucket cap (burst defaults to
        one simulated second of rate).
        """
        from repro.sched.session import TenantSession

        if name in self.tenants:
            raise ValueError(f"tenant session already open: {name!r}")
        bucket = None
        if rate_bytes_per_sec is not None:
            bucket = TokenBucket(
                rate_bytes_per_sec,
                burst_bytes if burst_bytes is not None else rate_bytes_per_sec,
            )
        queue = TenantQueue(name, weight, bucket, self.stats.tenant(name))
        self.tenants[name] = queue
        self._names.append(name)
        session = TenantSession(self, queue)
        self.sessions[name] = session
        return session

    # ------------------------------------------------------------------
    # Submission / draining
    # ------------------------------------------------------------------

    def now(self) -> float:
        disk = getattr(self.ld, "disk", None)
        clock = getattr(disk, "clock", None)
        return clock.now if clock is not None else 0.0

    def submit(self, op: Op) -> Op:
        queue = self.tenants[op.tenant]
        op.arrival = self._arrival
        self._arrival += 1
        op.epoch = self._epoch
        op.submitted_at = self.now()
        queue.ops.append(op)
        queue.stats.submitted += 1
        self.stats.ops_submitted += 1
        depth = self.queued
        if depth > self.stats.max_queue_depth:
            self.stats.max_queue_depth = depth
            ev = self.events
            if ev:
                ev.emit(
                    "sched.queue_high_water",
                    severity="debug",
                    t=self.now(),
                    depth=depth,
                    tenant=op.tenant,
                )
        if self.dispatch_log is not None:
            self.dispatch_log.append(("submit", op.tenant, op.seq, op.kind))
        return op

    @property
    def queued(self) -> int:
        """Ops currently waiting in tenant queues."""
        return sum(len(q.ops) for q in self.tenants.values())

    @property
    def epoch(self) -> int:
        """Barrier epoch: bumps on every physical flush."""
        return self._epoch

    @property
    def pending_intents(self) -> int:
        """Deferred flush intents awaiting the group commit."""
        return len(self._intents)

    @property
    def parked_completions(self) -> int:
        """Commits and reads dispatched whose completion is not due yet."""
        return len(self._parked)

    def step(self) -> int:
        """One scheduler round; returns the number of ops dispatched.

        Parked completions that have come due are retired before the
        round and after it. A round that dispatches nothing while some
        are parked leaves the server with nothing to do until the disks
        are done, so it waits for them where a flush would have — at the
        device. The server never moves time itself; the disks do.
        """
        parked = self._parked
        if parked:
            self._retire_due()
        dispatched = self.scheduler.step(self)
        self.stats.rounds += 1
        if parked:
            if not dispatched:
                self._wait_for_disks()
            self._retire_due()
        return dispatched

    def drain(self, until: Op | None = None) -> None:
        """Run scheduler rounds until ``until`` completes — or, without
        one, until every queue and the completion list are empty."""
        if until is not None and not until.done and self.queued == 1:
            # Solo fast path: ``until`` is the only queued op, so every
            # policy must dispatch exactly it next. Skip the scheduling
            # round — this is the blocking facade's per-op hot path, and
            # what keeps a single tenant's wall-clock cost close to
            # driving the LD directly.
            queue = self.tenants[until.tenant]
            if queue.ops and queue.ops[0] is until and queue.bucket is None:
                queue.ops.popleft()
                if until.kind == KIND_READ_BLOCKS:
                    until.pending = 0
                self.dispatch_op(until)
                if until.done:
                    return
                # A commit or a read the disks are still busy with: wait
                # it out below.
        while True:
            if until is not None:
                if until.done:
                    return
            elif not self.queued and not self._parked:
                return
            parked = len(self._parked)
            if self.step() == 0 and not parked:
                # With a completion parked, the round waited for the disks
                # and retired it: progress. Without one, nothing can change.
                raise SchedulerStalledError(
                    f"{self.scheduler.name} dispatched nothing with "
                    f"{self.queued} ops queued and no completion parked"
                    + (f"; {until!r} never completed" if until is not None else "")
                )

    def close(self) -> None:
        """Drain every queue, commit any deferred flush intents, and wait
        for the disks to finish them."""
        self.drain()
        if self._intents:
            self._commit(None, forced=True)
            self.drain()

    # ------------------------------------------------------------------
    # Dispatch primitives (called by schedulers)
    # ------------------------------------------------------------------

    def rotation(self) -> list[str]:
        """Tenant names in round-robin order, starting at the cursor."""
        names = self._names
        rr = self._rr % len(names) if names else 0
        return names[rr:] + names[:rr]

    def advance_rotation(self) -> None:
        if self._names:
            self._rr = (self._rr + 1) % len(self._names)

    def dispatch_op(self, op: Op) -> None:
        """Execute one op against the LD and complete it — when the disks
        have delivered it, for a read; when they have the commit, for a
        flush that triggered one (either is parked until then)."""
        tr = self.tracer
        with tr.span(
            "sched.dispatch", tenant=op.tenant, kind=op.kind
        ) if tr else NULL_SPAN as sp:
            if op.kind == KIND_FLUSH:
                self._dispatch_flush(op)
                return
            at = self._execute(op, len(self.tenants) == 1)
            if sp is not None and at is not None:
                sp.attrs["complete_at"] = at
        self._complete(op, at)

    def dispatch_reads(self, entries: list[tuple[Op, int, int]]) -> None:
        """Execute an elevator-ordered read batch with one vectored call.

        ``entries`` are ``(op, slot, bid)`` triples: a ``READ`` op
        contributes one entry; a ``READ_BLOCKS`` op contributes one per
        block (``slot`` indexes into its result list, which the scheduler
        preallocated along with ``op.pending``).
        """
        if len(entries) == 1 and entries[0][0].kind == KIND_READ:
            # Degenerate batch: take the scalar path so a solo tenant is
            # call-for-call identical to driving the LD directly.
            self.dispatch_op(entries[0][0])
            return
        tr = self.tracer
        stats = self.stats
        with tr.span(
            "sched.read_batch", count=len(entries)
        ) if tr else NULL_SPAN as sp:
            parked = stats.reads_parked
            at = self._execute_read_batch(entries)
            if sp is not None and at is not None:
                sp.attrs["complete_at"] = at
                sp.attrs["parked"] = stats.reads_parked - parked
        stats.read_batches += 1
        stats.batched_reads += len(entries)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _execute(self, op: Op, wait: bool = True) -> float | None:
        """Run ``op`` against the LD. A read that did not ``wait`` returns
        when its bytes arrive; everything else is done on return (None)."""
        ld = self.ld
        session = self.sessions[op.tenant]
        set_tenant = self._set_tenant
        attach_aru = self._attach_aru
        at = None
        if set_tenant is not None:
            set_tenant(op.tenant)
        try:
            if attach_aru is not None:
                # Re-attach the tenant's open ARU (if any) for this op only;
                # the LD's ARU context is per-op, never ambient, so tenants'
                # atomic units interleave without tagging each other's work.
                attach_aru(session._aru)
            kind = op.kind
            if kind == KIND_WRITE:
                ld.write(op.bid, op.data)
            elif kind == KIND_READ:
                op.result = ld.read(op.bid, wait=wait)
                if not wait:
                    at = op.result.at
            elif kind == KIND_READ_BLOCKS:
                op.result = ld.read_blocks(list(op.bids), wait=wait)
                if not wait:
                    at = op.result.at
            else:  # KIND_CALL
                op.result = getattr(ld, op.method)(*op.args, **(op.kwargs or {}))
                if op.method == "begin_aru":
                    session._aru = op.result
                elif op.method in ("end_aru", "abort_aru"):
                    session._aru = 0
        except Exception as exc:
            op.error = exc
            if op.method in ("end_aru", "abort_aru"):
                # The LD aborted/lost the ARU; don't keep re-attaching it.
                session._aru = 0
        finally:
            if attach_aru is not None:
                attach_aru(0)
            if set_tenant is not None:
                set_tenant(None)
        return at

    def _execute_read_batch(self, entries: list[tuple[Op, int, int]]) -> float | None:
        """One vectored call for the batch; every op in it completes when
        the batch's last request does. Returns that time, as
        :meth:`_execute` does (None when it waited, or fell back)."""
        ld = self.ld
        set_tenant = self._set_tenant
        tenants = {op.tenant for op, _slot, _bid in entries}
        solo = next(iter(tenants)) if len(tenants) == 1 else None
        wait = len(self.tenants) == 1
        if set_tenant is not None:
            set_tenant(solo)
        try:
            datas = ld.read_blocks([bid for _op, _slot, bid in entries], wait=wait)
        except Exception:
            # One bad block poisons a vectored call; re-dispatch each op
            # singly so errors stay attributed to the op that caused them.
            if set_tenant is not None:
                set_tenant(None)
            self.stats.batch_fallbacks += 1
            for op in dict.fromkeys(entry[0] for entry in entries):
                self._execute_fallback_read(op)
            return None
        finally:
            if set_tenant is not None:
                set_tenant(None)
        counters = getattr(getattr(ld, "stats", None), "tenant_counters", None)
        finished = []
        for (op, slot, _bid), data in zip(entries, datas):
            if solo is None and counters is not None:
                # Mixed batch ran untagged inside the LD; attribute the
                # block counts here (cache hit/miss stays global).
                t = counters(op.tenant)
                t.blocks_read += 1
                t.bytes_read += len(data)
            if op.kind == KIND_READ:
                op.result = data
                finished.append(op)
            else:
                op.result[slot] = data
                op.pending -= 1
                if op.pending == 0:
                    finished.append(op)
        # The elevator ordered the call; the ops are journalled in the order
        # they were submitted, so each tenant's are in its program order
        # (``test_dispatch_invariants`` over reads of blocks on the medium).
        finished.sort(key=_ARRIVAL)
        at = None if wait else datas.at
        for op in finished:
            self._complete(op, at)
        return at

    def _execute_fallback_read(self, op: Op) -> None:
        """One op of a failed batch, alone and waiting: the rare path."""
        if op.kind == KIND_READ_BLOCKS:
            op.result = None  # rebuilt whole by the scalar vectored call
        self._execute(op)
        self._complete(op)

    def _dispatch_flush(self, op: Op) -> None:
        """Pool the intent and complete ``op`` — or commit the pool, which
        parks it."""
        self._dispatched(op)  # journalled ahead of the commit it may trigger
        self._intents.append(op)
        if op.force or len(self._intents) >= self.group_commit:
            op.result = True
            self._commit(op, forced=op.force)
        else:
            op.result = False
            self.stats.flushes_deferred += 1
            self.tenants[op.tenant].stats.flushes_deferred += 1
            self._done(op, self.now())

    def _commit(self, trigger: Op | None, *, forced: bool) -> None:
        """One physical flush covering every pending intent: issued and
        ordered now, acknowledged — the intents' latencies stamped,
        ``trigger`` completed — when the disks have it all."""
        intents = self._intents
        stats = self.stats
        # With one tenant there is nobody to keep going meanwhile: the
        # flush waits for the disks itself, call for call what the tenant
        # would get driving the LD directly, and is acknowledged at once.
        wait = len(self.tenants) == 1
        tr = self.tracer
        with (
            tr.span("sched.group_commit", intents=len(intents), forced=forced)
            if tr
            else NULL_SPAN
        ) as sp:
            if trigger is not None and trigger.method == "flush_list":
                complete_at = self.ld.flush_list(trigger.args[0], wait=wait)
            else:
                complete_at = self.ld.flush(wait=wait)
            if sp is not None:
                sp.attrs["complete_at"] = complete_at
        self._intents = []
        self._epoch += 1
        stats.group_commits += 1
        stats.intents_committed += len(intents)
        if forced:
            stats.forced_flushes += 1
        now = self.now()
        if complete_at > now:
            stats.commits_deferred += 1
            stats.commit_inflight_s += complete_at - now
        ev = self.events
        if ev:
            ev.emit(
                "sched.group_commit",
                severity="debug",
                t=now,
                intents=len(intents),
                forced=forced,
                complete_at=complete_at,
            )
        if self.dispatch_log is not None:
            self.dispatch_log.append(
                ("commit", tuple((i.tenant, i.seq) for i in intents), complete_at)
            )
        heappush(self._parked, (complete_at, next(self._tickets), trigger, intents))
        self._retire_due()  # at once, if the disks had nothing left to do

    def _retire_due(self) -> None:
        """Complete every parked commit and read the shared clock has reached.

        The completion carries the disks' time, not the later moment a
        round boundary let the server look: ``done`` flips here,
        ``completed_at`` and a commit's ack latencies say when it was true.
        """
        parked = self._parked
        now = self.now()
        while parked and parked[0][0] <= now:
            at, _ticket, op, intents = heappop(parked)
            if intents is not None:
                self._acknowledge(intents, at)
            if op is not None:
                self._done(op, at)

    def _acknowledge(self, intents: list[Op], at: float) -> None:
        """A commit is on the medium: its intents' ack latencies end at ``at``."""
        for intent in intents:
            stats = self.tenants[intent.tenant].stats
            stats.acks += 1
            latency = at - intent.submitted_at
            stats.ack_latency_total += latency
            stats.ack_latency_hist.record(latency)
            if latency > stats.ack_latency_max:
                stats.ack_latency_max = latency
        if self.dispatch_log is not None:
            self.dispatch_log.append(
                ("ack", tuple((i.tenant, i.seq) for i in intents), at)
            )

    def _wait_for_disks(self) -> None:
        """Nothing to dispatch until a parked commit or read completes:
        wait at the device, with the barrier a waiting flush would have
        ended on."""
        idle_from = self.now()
        tr = self.tracer
        with tr.span("sched.idle_advance") if tr else NULL_SPAN:
            self.ld.disk.barrier("commit-wait")
        self.stats.idle_advances += 1
        self.stats.idle_advance_s += self.now() - idle_from

    def _done(self, op: Op, at: float) -> None:
        """The one place an op's ``done`` flips."""
        op.done = True
        op.completed_at = at

    def _complete(self, op: Op, at: float | None = None) -> None:
        """Dispatched, and done at once — or, for a read whose bytes the
        disks deliver later (``at``), parked until then."""
        self._dispatched(op)
        now = self.now()
        if at is None or at <= now:
            self._done(op, now)
            return
        stats = self.stats
        stats.reads_parked += 1
        stats.read_inflight_s += at - now
        heappush(self._parked, (at, next(self._tickets), op, None))

    def _dispatched(self, op: Op) -> None:
        """Dispatch-time accounting: the counters and the journal."""
        queue = self.tenants[op.tenant]
        stats = queue.stats
        stats.dispatched += 1
        kind = op.kind
        if kind == KIND_READ:
            stats.reads += 1
            if op.result is not None:
                stats.bytes_read += len(op.result)
            self.stats.reads_dispatched += 1
        elif kind == KIND_READ_BLOCKS:
            stats.reads += 1
            if op.result is not None:
                stats.bytes_read += sum(len(d) for d in op.result if d is not None)
            self.stats.reads_dispatched += 1
        elif kind == KIND_WRITE:
            stats.writes += 1
            stats.bytes_written += len(op.data)
            self.stats.writes_dispatched += 1
        elif kind == KIND_FLUSH:
            stats.flushes += 1
            self.stats.flushes_dispatched += 1
        else:
            stats.calls += 1
            self.stats.calls_dispatched += 1
        self.stats.ops_dispatched += 1
        if self.dispatch_log is not None:
            self.dispatch_log.append(("dispatch", op.tenant, op.seq, op.kind))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LDServer({len(self.tenants)} tenants, {self.queued} queued, "
            f"scheduler={self.scheduler.name!r})"
        )
