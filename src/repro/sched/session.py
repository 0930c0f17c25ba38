"""Tenant session: the LD-compatible handle a client drives.

A :class:`TenantSession` implements the :class:`~repro.ld.LogicalDisk`
surface, so anything built against the LD interface — an ``LDStore``, a
DOS FS, a raw workload — becomes a tenant by construction: every call is
reified as an :class:`~repro.sched.ops.Op`, queued, and the server is
drained until that op completes (a blocking facade over the queue).

Closed-loop drivers that want real multi-tenant interleaving use the
nonblocking ``submit_*`` methods instead and pump ``server.step()``
themselves; the blocking facade and the handles compose freely.

Durability surface:

* ``flush()`` honors the LD contract — it is a *forced* durability
  point, committing the cross-tenant group immediately, and it returns
  when the disks have the commit (other tenants are served meanwhile).
* ``request_flush()`` is the deferrable variant: the session's flush
  intent joins the server's group commit and the call reports whether
  the group already went physical. This is what ``LDStore`` maps its
  syncs onto.

ARUs: ``begin_aru``/``end_aru`` work per-session. The server re-attaches
the session's open ARU around each of its dispatched ops, so atomic
units of different tenants interleave safely (the LLD already supports
concurrent open ARUs; the session machinery just keys them by tenant).

Attribute fallthrough: unknown attributes delegate to the underlying LD
(``session.state``, ``session.layout``, ``session.disk`` ...), so
diagnostic code written against a bare LLD keeps working on a session.
"""

from __future__ import annotations

from typing import Sequence

from repro.ld.errors import LDError
from repro.ld.interface import Arrived, ArrivedBlocks, LogicalDisk, Reservation
from repro.sched.ops import (
    KIND_CALL,
    KIND_FLUSH,
    KIND_READ,
    KIND_READ_BLOCKS,
    KIND_WRITE,
    Op,
)


class TenantSession(LogicalDisk):
    """One tenant's queue-backed view of the server's logical disk."""

    def __init__(self, server, queue) -> None:
        self.server = server
        self.name = queue.name
        #: The underlying LD, in the instance dict so ``attach_tracer``
        #: descends through sessions to the real stack.
        self.ld = server.ld
        self.block_size = server.block_size
        self.tracer = server.tracer
        self._queue = queue
        self._seq = 0
        self._aru = 0

    # ------------------------------------------------------------------
    # Nonblocking submission
    # ------------------------------------------------------------------

    def _submit(self, op: Op) -> Op:
        op.seq = self._seq
        self._seq += 1
        return self.server.submit(op)

    def submit_read(self, bid: int) -> Op:
        op = Op(self.name, KIND_READ)
        op.bid = bid
        return self._submit(op)

    def submit_read_blocks(self, bids: Sequence[int]) -> Op:
        op = Op(self.name, KIND_READ_BLOCKS)
        op.bids = list(bids)
        return self._submit(op)

    def submit_write(self, bid: int, data: bytes) -> Op:
        op = Op(self.name, KIND_WRITE)
        op.bid = bid
        op.data = data
        return self._submit(op)

    def submit_flush(self, *, force: bool = False) -> Op:
        op = Op(self.name, KIND_FLUSH)
        op.force = force
        return self._submit(op)

    def submit_call(self, method: str, *args, **kwargs) -> Op:
        op = Op(self.name, KIND_CALL)
        op.method = method
        op.args = args
        op.kwargs = kwargs or None
        return self._submit(op)

    # ------------------------------------------------------------------
    # Blocking facade
    # ------------------------------------------------------------------

    def _run(self, op: Op):
        self.server.drain(until=op)
        if op.error is not None:
            raise op.error
        return op.result

    def call(self, method: str, *args, **kwargs):
        """Queue any LD method and wait for its result (program order)."""
        return self._run(self.submit_call(method, *args, **kwargs))

    # --- blocks -------------------------------------------------------

    def read(self, bid: int, *, wait: bool = True) -> bytes:
        """The blocking facade returns once the read has completed, whatever
        ``wait`` says; ``wait=False`` only stamps the bytes with when."""
        op = self.submit_read(bid)
        data = self._run(op)
        return data if wait else Arrived(data, op.completed_at)

    def read_blocks(self, bids: Sequence[int], *, wait: bool = True) -> list[bytes]:
        op = self.submit_read_blocks(bids)
        blocks = self._run(op)
        return blocks if wait else ArrivedBlocks(blocks, op.completed_at)

    def write(self, bid: int, data: bytes) -> None:
        self._run(self.submit_write(bid, data))

    def new_block(
        self, lid: int, pred_bid: int, reservation: Reservation | None = None
    ) -> int:
        return self.call("new_block", lid, pred_bid, reservation)

    def delete_block(
        self, bid: int, lid: int, pred_bid_hint: int | None = None
    ) -> None:
        self.call("delete_block", bid, lid, pred_bid_hint)

    # --- lists --------------------------------------------------------

    def new_list(self, *args, **kwargs) -> int:
        return self.call("new_list", *args, **kwargs)

    def delete_list(self, lid: int, pred_lid_hint: int | None = None) -> None:
        self.call("delete_list", lid, pred_lid_hint)

    def move_sublist(
        self,
        first_bid: int,
        last_bid: int,
        src_lid: int,
        dst_lid: int,
        dst_pred_bid: int,
    ) -> None:
        self.call("move_sublist", first_bid, last_bid, src_lid, dst_lid, dst_pred_bid)

    def move_list(self, lid: int, new_pred_lid: int) -> None:
        self.call("move_list", lid, new_pred_lid)

    def list_blocks(self, lid: int) -> list[int]:
        return self.call("list_blocks", lid)

    def block_at(self, lid: int, index: int) -> int:
        return self.call("block_at", lid, index)

    def list_length(self, lid: int) -> int:
        return self.call("list_length", lid)

    def read_list(self, lid: int) -> list[bytes]:
        return self.read_blocks(self.list_blocks(lid))

    # --- ARUs and durability ------------------------------------------

    def begin_aru(self) -> int:
        return self.call("begin_aru")

    def end_aru(self) -> None:
        self.call("end_aru")

    def abort_aru(self) -> None:
        """Abandon this session's open ARU; it never commits."""
        self.call("abort_aru")

    def aru(self):
        """Context manager mirroring ``LLD.aru()`` through the queue.

        On an exception the session's ARU is aborted (never commits) and
        the exception propagates — the same contract as driving the LLD
        directly, but without reaching around the scheduler.
        """
        from contextlib import contextmanager

        @contextmanager
        def _aru():
            aru = self.begin_aru()
            try:
                yield aru
            except BaseException:
                self.abort_aru()
                raise
            else:
                self.end_aru()

        return _aru()

    def flush(self, *, wait: bool = True) -> float:
        """Forced durability point (the LD contract): commits the group.

        The blocking facade waits for the acknowledgement whatever
        ``wait`` says — the server keeps the other tenants going meanwhile;
        a client with work of its own to overlap uses ``submit_flush``.
        """
        op = self.submit_flush(force=True)
        self._run(op)
        return op.completed_at

    def request_flush(self) -> bool:
        """Deferrable flush intent; True if the group commit went physical
        (the call then returned at its acknowledgement)."""
        return self._run(self.submit_flush(force=False))

    def flush_list(self, lid: int, *, wait: bool = True) -> float:
        op = self.submit_flush(force=True)
        op.method = "flush_list"
        op.args = (lid,)
        self._run(op)
        return op.completed_at

    # --- reservations -------------------------------------------------

    def reserve_blocks(self, count: int) -> Reservation:
        return self.call("reserve_blocks", count)

    def cancel_reservation(self, reservation: Reservation) -> None:
        self.call("cancel_reservation", reservation)

    # --- lifecycle ----------------------------------------------------

    def initialize(self) -> None:
        raise LDError(
            "tenant sessions attach to a live LD; initialize the LD "
            "before opening sessions on its server"
        )

    def shutdown(self) -> None:
        """Drain this session's queue; the LD itself stays up."""
        self.server.drain()

    # ------------------------------------------------------------------

    def __getattr__(self, name: str):
        # Unknown attributes fall through to the underlying LD so
        # stats/layout/state introspection keeps working on a session.
        return getattr(self.__dict__["ld"], name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TenantSession({self.name!r}, {len(self._queue.ops)} queued)"
