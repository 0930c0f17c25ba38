"""Request objects flowing through the multi-tenant LD server.

Every call a :class:`~repro.sched.session.TenantSession` makes is reified
as one :class:`Op` and appended to that tenant's queue. The scheduler is
free to interleave ops *across* tenants (that is the point), but within a
tenant ops always dispatch in submission (``seq``) order — the per-tenant
program order that the property tests in ``tests/sched`` pin down.

Op kinds map onto the LD interface surface:

=============  =====================================================
``READ``       one ``ld.read(bid)``; batchable/elevator-sortable
``READ_BLOCKS`` one vectored ``ld.read_blocks(bids)``; the scheduler
               may expand it into per-block batch entries
``WRITE``      one ``ld.write(bid, data)``
``FLUSH``      a durability point; deferrable into the cross-tenant
               group commit unless ``force`` is set
``CALL``       any other LD method (allocation, lists, ARUs, ...),
               dispatched verbatim in program order
=============  =====================================================
"""

from __future__ import annotations

KIND_READ = "read"
KIND_READ_BLOCKS = "read_blocks"
KIND_WRITE = "write"
KIND_FLUSH = "flush"
KIND_CALL = "call"

#: Nominal DRR cost of a metadata call or flush (they move no block data).
CALL_COST = 512


class Op:
    """One queued LD operation from one tenant.

    ``seq`` orders ops within a tenant; ``arrival`` orders them globally
    (FIFO baseline); ``epoch`` is the server's barrier epoch at submission
    time. ``done`` flips exactly once, when the op has completed: for
    writes and calls when it has been dispatched to the underlying LD (the
    call is synchronous); for a read when the disks have delivered its
    bytes (``result`` holds them from dispatch on); for a deferrable
    ``FLUSH`` whose intent was pooled, when it has been accepted
    (``result`` False); for a ``FLUSH`` that triggered the group commit
    (``result`` True), when the disks have everything the commit wrote —
    ``completed_at``, never ahead of the shared clock, is that moment.
    """

    __slots__ = (
        "tenant",
        "seq",
        "kind",
        "arrival",
        "epoch",
        "bid",
        "bids",
        "data",
        "method",
        "args",
        "kwargs",
        "force",
        "pending",
        "done",
        "result",
        "error",
        "submitted_at",
        "completed_at",
    )

    def __init__(self, tenant: str, kind: str) -> None:
        self.tenant = tenant
        self.kind = kind
        self.seq = -1
        self.arrival = -1
        self.epoch = -1
        self.bid = -1
        self.bids = None
        self.data = None
        self.method = None
        self.args = ()
        self.kwargs = None
        self.force = False
        self.pending = 0
        self.done = False
        self.result = None
        self.error = None
        self.submitted_at = 0.0
        self.completed_at = 0.0

    def cost(self, block_size: int = 4096) -> int:
        """Byte cost charged against the tenant's DRR deficit."""
        kind = self.kind
        if kind == KIND_WRITE:
            return len(self.data)
        if kind == KIND_READ:
            return block_size
        if kind == KIND_READ_BLOCKS:
            return block_size * len(self.bids)
        return CALL_COST

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Op({self.tenant}#{self.seq} {self.kind}"
            f"{' force' if self.force else ''}"
            f"{' done' if self.done else ''})"
        )
