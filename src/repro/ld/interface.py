"""The abstract Logical Disk interface (paper Table 1 + section 2.2 extras).

Method names are pythonic translations of the paper's primitives:

======================  =============================
Paper                   Here
======================  =============================
``Read(Bid, ...)``      :meth:`LogicalDisk.read`
``Write(Bid, ...)``     :meth:`LogicalDisk.write`
``NewBlock``            :meth:`LogicalDisk.new_block`
``DeleteBlock``         :meth:`LogicalDisk.delete_block`
``NewList``             :meth:`LogicalDisk.new_list`
``DeleteList``          :meth:`LogicalDisk.delete_list`
``BeginARU``            :meth:`LogicalDisk.begin_aru`
``EndARU``              :meth:`LogicalDisk.end_aru`
``Flush``               :meth:`LogicalDisk.flush`
(reservations, §2.2)    :meth:`reserve_blocks` / :meth:`cancel_reservation`
(sublist moves, §2.2)   :meth:`move_sublist` / :meth:`move_list`
(list flush, §2.2)      :meth:`flush_list`
(init/shutdown, §2.2)   :meth:`initialize` / :meth:`shutdown`
======================  =============================
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

from repro.ld.hints import ListHints


@dataclass
class Reservation:
    """A grant of physical space for ``blocks`` future logical blocks.

    Returned by :meth:`LogicalDisk.reserve_blocks`; give back unused space
    with :meth:`LogicalDisk.cancel_reservation`.
    """

    token: int
    blocks: int
    bytes_reserved: int


class Arrived(bytes):
    """What ``read(bid, wait=False)`` returns: the block's bytes, stamped
    with :attr:`at`, the simulated time the device delivers them.

    Still the bytes, so whatever takes an LD read's result — a client, a
    cache, a tracer counting what crossed the interface — takes this one.
    """

    at: float

    def __new__(cls, data: bytes, at: float) -> "Arrived":
        block = super().__new__(cls, data)
        block.at = at
        return block


class ArrivedBlocks(list):
    """What ``read_blocks(bids, wait=False)`` returns: the blocks, stamped
    with :attr:`at`, when the last of them arrives."""

    __slots__ = ("at",)

    def __init__(self, blocks, at: float) -> None:
        super().__init__(blocks)
        self.at = at


class LogicalDisk(abc.ABC):
    """Abstract interface to disk storage via logical block numbers.

    File systems built on this interface never see physical addresses:
    they allocate logical blocks into ordered lists (the clustering hints),
    read and write by logical number, and bracket multi-step updates in
    atomic recovery units. Implementations own placement, cleaning,
    reorganization, and crash recovery.
    """

    # ------------------------------------------------------------------
    # Blocks
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def read(self, bid: int, *, wait: bool = True) -> bytes:
        """Return the current contents of logical block ``bid``.

        Raises :class:`~repro.ld.errors.NoSuchBlockError` for unallocated
        blocks; returns ``b""`` for an allocated block never written.

        With ``wait`` (the default) the call returns once the bytes have
        arrived. With ``wait=False`` an LD whose device serves several
        requests at once dispatches the read as it would otherwise and
        returns at once, the bytes as :class:`Arrived` — stamped with when
        the device delivers them; the caller owns the waiting (an
        :class:`~repro.sched.LDServer` completes the read when its clock
        gets there). What the bytes are is fixed at dispatch. An LD whose
        reads finish before they return stamps them ``now``.
        """

    @abc.abstractmethod
    def write(self, bid: int, data: bytes) -> None:
        """Replace the contents of logical block ``bid`` with ``data``.

        ``len(data)`` may be any size up to the implementation's maximum
        block size (LD supports multiple block sizes; MINIX LLD uses both
        4 KB data blocks and 64-byte i-node blocks).
        """

    def read_blocks(self, bids: Sequence[int], *, wait: bool = True) -> list[bytes]:
        """Vectored read: the contents of every block in ``bids``, in order.

        Semantically identical to ``[self.read(b) for b in bids]`` — and
        that is the default implementation, so every LD supports the call.
        Implementations that know the physical layout (LLD) override this
        to group the blocks by segment and fetch each physically
        contiguous run with a single multi-sector disk request, which is
        how the paper's block lists pay off on reads. ``wait=False`` as
        for :meth:`read`: :class:`ArrivedBlocks`, stamped with when the
        last block arrives.
        """
        if wait:
            return [self.read(bid) for bid in bids]
        blocks = [self.read(bid, wait=False) for bid in bids]
        return ArrivedBlocks(blocks, max((block.at for block in blocks), default=0.0))

    def read_list(self, lid: int) -> list[bytes]:
        """Read every block of list ``lid`` in list order (vectored).

        The natural bulk operation over the paper's central structure:
        "the list determines what comes next", so a whole-list read is the
        best possible clustering hint an LD can receive.
        """
        return self.read_blocks(self.list_blocks(lid))

    def placement_hint(self, bid: int) -> tuple[int, int] | None:
        """``(spindle, lba)`` of ``bid``'s durable location, if known.

        Advisory, for I/O schedulers (``repro.sched``): an elevator sorts
        read batches by this key to sweep each spindle once in LBA order.
        Implementations that track physical placement (LLD) override it;
        the default — no placement knowledge — is always safe.
        """
        return None

    @abc.abstractmethod
    def new_block(self, lid: int, pred_bid: int, reservation: Reservation | None = None) -> int:
        """Allocate a logical block number and link it into list ``lid``.

        The block is inserted immediately after ``pred_bid``
        (:data:`~repro.ld.hints.LIST_HEAD` inserts at the front). These
        parameters are the physical-clustering hints of the paper. If
        ``reservation`` is given, the block consumes one reserved slot.
        Returns the new block number.
        """

    @abc.abstractmethod
    def delete_block(self, bid: int, lid: int, pred_bid_hint: int | None = None) -> None:
        """Remove ``bid`` from list ``lid`` and free its block number.

        ``pred_bid_hint`` is the paper's predecessor hint: when correct the
        block is unlinked with one pointer update; when absent or stale the
        implementation searches the list from its head.
        """

    # ------------------------------------------------------------------
    # Lists
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def new_list(self, pred_lid: int = ..., hints: ListHints | None = None) -> int:
        """Allocate a block list, inserted after ``pred_lid`` in the list of lists.

        ``hints`` control clustering and compression for the new list.
        Returns the new list identifier.
        """

    @abc.abstractmethod
    def delete_list(self, lid: int, pred_lid_hint: int | None = None) -> None:
        """Free list ``lid`` and every block still on it."""

    @abc.abstractmethod
    def move_sublist(
        self,
        first_bid: int,
        last_bid: int,
        src_lid: int,
        dst_lid: int,
        dst_pred_bid: int,
    ) -> None:
        """Splice the chain ``first_bid..last_bid`` out of ``src_lid``
        and insert it into ``dst_lid`` after ``dst_pred_bid``.

        This is the section 2.2 primitive that lets file systems "easily
        express changes in requested clustering".
        """

    @abc.abstractmethod
    def move_list(self, lid: int, new_pred_lid: int) -> None:
        """Move ``lid`` to a new position in the list of lists."""

    @abc.abstractmethod
    def list_blocks(self, lid: int) -> list[int]:
        """Return the block numbers of ``lid`` in list order.

        Not in the paper's table, but needed by file systems that use
        offset addressing (section 5.4) and by the test suite.
        """

    # ------------------------------------------------------------------
    # Offset addressing (paper section 5.4: "lists could be indexed as
    # arrays"; enables compact B-trees and indirect-block-free files)
    # ------------------------------------------------------------------

    def block_at(self, lid: int, index: int) -> int:
        """The ``index``-th block of list ``lid`` (offset addressing).

        Raises :class:`IndexError` when the list is shorter. Concrete
        implementations may override with something faster than a walk.
        """
        if index < 0:
            raise IndexError(f"negative list index: {index}")
        blocks = self.list_blocks(lid)
        if index >= len(blocks):
            raise IndexError(
                f"list {lid} has {len(blocks)} blocks, no index {index}"
            )
        return blocks[index]

    def list_length(self, lid: int) -> int:
        """Number of blocks on list ``lid``."""
        return len(self.list_blocks(lid))

    # ------------------------------------------------------------------
    # Atomic recovery units and durability
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def begin_aru(self) -> int:
        """Open an explicit atomic recovery unit; returns its identifier.

        All commands until the matching :meth:`end_aru` recover
        all-or-nothing.
        """

    @abc.abstractmethod
    def end_aru(self) -> None:
        """Close the current explicit atomic recovery unit."""

    @abc.abstractmethod
    def flush(self, *, wait: bool = True) -> float:
        """Make the results of all previous commands durable.

        After a successful return, a crash-and-recover yields a state that
        includes every completed command (and respects ARU atomicity).

        Returns the simulated time at which that holds. With ``wait`` (the
        default) the call returns no earlier, so it is the time of the
        return; with ``wait=False`` an LD whose device queues writes issues
        and orders everything as it would otherwise and returns at once,
        with the time at which the last of it reaches the medium — the
        caller owns the acknowledgement (an :class:`~repro.sched.LDServer`
        completes the flush when its clock gets there). An LD with nothing
        queued behind it waits either way.
        """

    @abc.abstractmethod
    def flush_list(self, lid: int, *, wait: bool = True) -> float:
        """Make all blocks of ``lid`` durable (the easy ``fsync``);
        ``wait`` and the result are :meth:`flush`'s."""

    # ------------------------------------------------------------------
    # Space reservation (section 2.2)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def reserve_blocks(self, count: int) -> Reservation:
        """Reserve physical space for ``count`` future blocks or raise
        :class:`~repro.ld.errors.OutOfSpaceError` now rather than later."""

    @abc.abstractmethod
    def cancel_reservation(self, reservation: Reservation) -> None:
        """Return the unused portion of a reservation."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def initialize(self) -> None:
        """Bring the LD online: load a clean-shutdown image or run recovery."""

    @abc.abstractmethod
    def shutdown(self) -> None:
        """Cleanly shut down, persisting state for an instant next startup."""
