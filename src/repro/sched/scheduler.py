"""Pluggable dispatch policies for the LD server.

Two policies ship:

* :class:`FIFOScheduler` — the naive interleave baseline: dispatch the
  single globally-oldest op, one at a time, no merging, no reordering.
  This is what "many clients over one synchronous LD" degenerates to
  without a scheduler, and the bar the QoS scheduler is benchmarked
  against.
* :class:`QoSElevatorScheduler` — weighted deficit-round-robin
  fairness, cross-tenant read merging through the LD's vectored path,
  elevator (spindle, LBA) ordering of each read batch, and participation
  in the server's cross-tenant group commit.

Both only ever pop queue *heads*, so per-tenant program order is
preserved by construction no matter what a policy does.

The QoS round shape matters for ordering: within one round a tenant's
turn serves a run of ops of one class — consecutive head reads (which
join the round's shared batch), or consecutive writes/metadata calls
(dispatched inline), or exactly one flush. The shared read batch is
dispatched at the *end* of the round, after every turn; ending a turn at
the first class switch is what keeps a tenant's later write from passing
its own earlier batched read.
"""

from __future__ import annotations

from repro.sched.ops import (
    KIND_CALL,
    KIND_FLUSH,
    KIND_READ,
    KIND_READ_BLOCKS,
    KIND_WRITE,
    Op,
)
from repro.sched.queues import TenantQueue

#: Deficit granted per tenant per round, scaled by the tenant's weight.
QUANTUM_BYTES = 64 * 1024
#: Block reads folded into one vectored submission, at most.
READ_BATCH_LIMIT = 64
#: Rounds of unused deficit a blocked tenant can bank.
DEFICIT_CAP_ROUNDS = 4


class Scheduler:
    """Dispatch policy: one ``step`` = one scheduling round."""

    name = "base"

    def step(self, server) -> int:
        """Dispatch zero or more ops; returns how many were dispatched."""
        raise NotImplementedError


class FIFOScheduler(Scheduler):
    """Global arrival order, one op per round, no batching or reordering."""

    name = "fifo"

    def step(self, server) -> int:
        best: TenantQueue | None = None
        for queue in server.tenants.values():
            if queue.ops and (
                best is None or queue.ops[0].arrival < best.ops[0].arrival
            ):
                best = queue
        if best is None:
            return 0
        op = best.ops.popleft()
        if op.kind == KIND_READ_BLOCKS:
            op.pending = 0  # dispatched whole via the LD's own vectored call
        server.dispatch_op(op)
        return 1


class QoSElevatorScheduler(Scheduler):
    """DRR fairness + elevator-merged reads + group commit,
    with the round shape fixed by :data:`QUANTUM_BYTES`,
    :data:`READ_BATCH_LIMIT` and :data:`DEFICIT_CAP_ROUNDS`."""

    name = "qos-elevator"

    # ------------------------------------------------------------------

    def step(self, server) -> int:
        tenants = server.tenants
        reads: list[tuple[Op, int, int]] = []
        inline = 0
        for name in server.rotation():
            queue = tenants[name]
            if not queue.ops:
                queue.deficit = 0.0
                continue
            self._grant(queue)
            inline += self._serve(server, queue, reads)
            if not queue.ops:
                queue.deficit = 0.0
        if reads:
            self._dispatch_elevator(server, reads)
        server.advance_rotation()
        return inline + len(reads)

    def _grant(self, queue: TenantQueue) -> None:
        grant = QUANTUM_BYTES * queue.weight
        queue.deficit = min(queue.deficit + grant, grant * DEFICIT_CAP_ROUNDS)

    def _serve(
        self,
        server,
        queue: TenantQueue,
        reads: list[tuple[Op, int, int]],
    ) -> int:
        """One DRR turn; returns the number of *inline* dispatches.

        Read entries appended to ``reads`` are counted by the caller when
        the round's batch goes out.
        """
        ops = queue.ops
        block_size = server.block_size
        head_kind = ops[0].kind
        first = True
        if head_kind == KIND_READ or head_kind == KIND_READ_BLOCKS:
            while ops:
                op = ops[0]
                kind = op.kind
                if kind != KIND_READ and kind != KIND_READ_BLOCKS:
                    break
                cost = op.cost(block_size)
                if not first and cost > queue.deficit:
                    break
                span = 1 if kind == KIND_READ else len(op.bids)
                if reads and len(reads) + span > READ_BATCH_LIMIT:
                    break
                ops.popleft()
                queue.deficit -= cost
                if kind == KIND_READ:
                    reads.append((op, 0, op.bid))
                else:
                    op.result = [None] * len(op.bids)
                    op.pending = len(op.bids)
                    reads.extend(
                        (op, slot, bid) for slot, bid in enumerate(op.bids)
                    )
                first = False
            return 0
        if head_kind == KIND_FLUSH:
            server.dispatch_op(ops.popleft())
            return 1
        served = 0
        while ops:
            op = ops[0]
            kind = op.kind
            if kind != KIND_WRITE and kind != KIND_CALL:
                break
            cost = op.cost(block_size)
            if not first and cost > queue.deficit:
                break
            ops.popleft()
            queue.deficit -= cost
            server.dispatch_op(op)
            served += 1
            first = False
        return served

    def _dispatch_elevator(
        self, server, reads: list[tuple[Op, int, int]]
    ) -> None:
        hint = server._placement
        if hint is not None and len(reads) > 1:
            # Elevator order: sort by (spindle, LBA) so the batch sweeps
            # each spindle once. Blocks without a durable location (open
            # segment, unknown) sort first in stable submission order.
            reads.sort(key=lambda entry: hint(entry[2]) or (-1, -1))
            server.stats.elevator_batches += 1
        server.dispatch_reads(reads)
