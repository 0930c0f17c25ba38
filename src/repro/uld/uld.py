"""Update-in-place Logical Disk implementation."""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from repro.disk.disk import SimulatedDisk
from repro.ld.errors import (
    ARUError,
    LDError,
    NoSuchBlockError,
    NoSuchListError,
    OutOfSpaceError,
)
from repro.ld.hints import LIST_HEAD, ListHints
from repro.ld.interface import Arrived, LogicalDisk, Reservation
from repro.ld.reservations import ReservationBook

SECTOR = 512

_META_HEADER = struct.Struct("<4sQQQQII")  # magic, seq, bid, lid, reserved, len, crc
_META_MAGIC = b"ULDM"
_BLOCK_ROW = struct.Struct("<IiII")  # bid, slot, length, successor
_LIST_ROW = struct.Struct("<IIB")  # lid, first, hints
_NONE = 0xFFFFFFFF


@dataclass(frozen=True)
class ULDConfig:
    """Tunables for the update-in-place LD."""

    block_size: int = 4096
    metadata_slots: int = 2  # shadow-paged copies
    metadata_capacity: int = 256 * 1024  # bytes per metadata copy

    def __post_init__(self) -> None:
        if self.block_size % SECTOR != 0:
            raise ValueError(f"block_size must be sector-aligned: {self.block_size}")
        if self.metadata_slots != 2:
            raise ValueError("shadow paging requires exactly 2 metadata slots")
        if self.metadata_capacity % SECTOR != 0:
            raise ValueError("metadata_capacity must be sector-aligned")


@dataclass
class _Block:
    slot: int = -1  # home slot; -1 until first write places it
    length: int = 0
    successor: int | None = None


class ULD(LogicalDisk):
    """Every block lives at a fixed home slot; writes overwrite in place.

    Placement honours the list hints at allocation time: a new block's home
    slot is the first free slot after its predecessor's, so blocks
    allocated in list order end up physically contiguous — an
    update-in-place reading of the paper's clustering idea.
    """

    def __init__(self, disk: SimulatedDisk, config: ULDConfig | None = None) -> None:
        self.disk = disk
        self.config = config or ULDConfig()
        meta_sectors = self.config.metadata_capacity // SECTOR
        self._meta_lbas = (0, meta_sectors)
        data_start = 2 * meta_sectors
        sectors_per_block = self.config.block_size // SECTOR
        self._data_lba = data_start
        self.slot_count = (disk.geometry.total_sectors - data_start) // sectors_per_block
        if self.slot_count < 8:
            raise ValueError("disk too small for ULD layout")

        self._blocks: dict[int, _Block] = {}
        self._lists: dict[int, ListHints] = {}
        self._first: dict[int, int | None] = {}
        self.list_order: list[int] = []
        self._free_slots: set[int] = set(range(self.slot_count))
        self._next_bid = 1
        self._next_lid = 1
        self._meta_seq = 0
        self._initialized = False
        self._in_aru = False
        self._aru_buffer: list[tuple[int, bytes]] = []
        self._reservations = ReservationBook(self.config.block_size)

    # ------------------------------------------------------------------
    # Lifecycle / metadata shadow paging
    # ------------------------------------------------------------------

    def initialize(self) -> None:
        if self._initialized:
            raise LDError("ULD already initialized")
        best = None
        for lba in self._meta_lbas:
            parsed = self._read_metadata(lba)
            if parsed is not None and (best is None or parsed[0] > best[0]):
                best = parsed
        if best is not None:
            self._load_metadata(best)
        self._initialized = True

    def shutdown(self) -> None:
        self._require_init()
        if self._in_aru:
            raise ARUError("cannot shut down inside an atomic recovery unit")
        self.flush()
        self._initialized = False

    def crash(self) -> None:
        """Simulate power loss (in-memory state discarded)."""
        self._initialized = False

    def _require_init(self) -> None:
        if not self._initialized:
            raise LDError("ULD not initialized")

    def _serialize_metadata(self) -> bytes:
        body = bytearray()
        body += struct.pack("<II", len(self._blocks), len(self._lists))
        for bid, block in self._blocks.items():
            succ = _NONE if block.successor is None else block.successor
            body += _BLOCK_ROW.pack(bid, block.slot, block.length, succ)
        for lid, hints in self._lists.items():
            first = self._first.get(lid)
            body += _LIST_ROW.pack(lid, _NONE if first is None else first, hints.pack())
        return bytes(body)

    def flush(self, *, wait: bool = True) -> float:
        """Persist metadata by shadow-paging into the older copy.

        Written for a bare disk, which queues nothing: it returns with
        everything on the medium whatever ``wait`` says.
        """
        self._require_init()
        if self._in_aru:
            # Durability points inside an ARU would break its atomicity;
            # the flush is honoured when the ARU ends.
            return self.disk.clock.now
        body = self._serialize_metadata()
        self._meta_seq += 1
        header = _META_HEADER.pack(
            _META_MAGIC,
            self._meta_seq,
            self._next_bid,
            self._next_lid,
            0,
            len(body),
            zlib.crc32(body),
        )
        image = header + body
        if len(image) > self.config.metadata_capacity:
            raise OutOfSpaceError("ULD metadata exceeds its region")
        pad = (-len(image)) % SECTOR
        target = self._meta_lbas[self._meta_seq % 2]
        # Order matters for crash consistency: the in-place data writes
        # this flush acknowledges must be on the medium before the
        # metadata that makes them reachable. Without the barrier, a
        # crash could reorder the shadow page ahead of the data and
        # recovery would serve unwritten sectors as block content.
        self.disk.barrier("uld-metadata")
        self.disk.write(target, image + b"\x00" * pad)
        return self.disk.clock.now

    def _read_metadata(self, lba: int):
        head = self.disk.read(lba, 1)
        try:
            magic, seq, bid, lid, _res, body_len, crc = _META_HEADER.unpack_from(head, 0)
        except struct.error:
            return None
        if magic != _META_MAGIC:
            return None
        total = _META_HEADER.size + body_len
        nsectors = (total + SECTOR - 1) // SECTOR
        if nsectors * SECTOR > self.config.metadata_capacity:
            return None
        image = head + (self.disk.read(lba + 1, nsectors - 1) if nsectors > 1 else b"")
        body = image[_META_HEADER.size : _META_HEADER.size + body_len]
        if len(body) != body_len or zlib.crc32(body) != crc:
            return None
        return (seq, bid, lid, body)

    def _load_metadata(self, parsed) -> None:
        seq, next_bid, next_lid, body = parsed
        self._meta_seq = seq
        self._next_bid = next_bid
        self._next_lid = next_lid
        offset = 0
        nblocks, nlists = struct.unpack_from("<II", body, offset)
        offset += 8
        for _ in range(nblocks):
            bid, slot, length, succ = _BLOCK_ROW.unpack_from(body, offset)
            offset += _BLOCK_ROW.size
            self._blocks[bid] = _Block(
                slot=slot, length=length, successor=None if succ == _NONE else succ
            )
            if slot >= 0:
                self._free_slots.discard(slot)
        for _ in range(nlists):
            lid, first, hints = _LIST_ROW.unpack_from(body, offset)
            offset += _LIST_ROW.size
            self._lists[lid] = ListHints.unpack(hints)
            self._first[lid] = None if first == _NONE else first
            self.list_order.append(lid)

    # ------------------------------------------------------------------
    # Blocks
    # ------------------------------------------------------------------

    def _slot_lba(self, slot: int) -> int:
        return self._data_lba + slot * (self.config.block_size // SECTOR)

    def _block(self, bid: int) -> _Block:
        block = self._blocks.get(bid)
        if block is None:
            raise NoSuchBlockError(bid)
        return block

    def read(self, bid: int, *, wait: bool = True) -> bytes:
        """Written for a bare disk, which serves one request at a time:
        the read has arrived when it returns, whatever ``wait`` says."""
        data = self._read(bid)
        return data if wait else Arrived(data, self.disk.clock.now)

    def _read(self, bid: int) -> bytes:
        self._require_init()
        block = self._block(bid)
        if block.slot < 0 or block.length == 0:
            pending = self._pending_write(bid)
            return pending if pending is not None else b""
        pending = self._pending_write(bid)
        if pending is not None:
            return pending
        nsectors = self.config.block_size // SECTOR
        raw = self.disk.read(self._slot_lba(block.slot), nsectors)
        return raw[: block.length]

    def _pending_write(self, bid: int) -> bytes | None:
        for pending_bid, data in reversed(self._aru_buffer):
            if pending_bid == bid:
                return data
        return None

    def write(self, bid: int, data: bytes) -> None:
        self._require_init()
        block = self._block(bid)
        data = bytes(data)
        if len(data) > self.config.block_size:
            raise ValueError(
                f"block of {len(data)} bytes exceeds block size {self.config.block_size}"
            )
        if self._in_aru:
            self._aru_buffer.append((bid, data))
            return
        self._write_in_place(bid, block, data)

    def _write_in_place(self, bid: int, block: _Block, data: bytes) -> None:
        if block.slot < 0:
            block.slot = self._allocate_slot_near(self._pred_slot(bid))
        padded = data + b"\x00" * (self.config.block_size - len(data))
        self.disk.write(self._slot_lba(block.slot), padded)
        block.length = len(data)

    def _pred_slot(self, bid: int) -> int | None:
        """Home slot of the block whose successor is ``bid`` (clustering)."""
        for other in self._blocks.values():
            if other.successor == bid and other.slot >= 0:
                return other.slot
        return None

    def _allocate_slot_near(self, near: int | None) -> int:
        if not self._free_slots:
            raise OutOfSpaceError("no free block slots")
        if near is None:
            return self._take_slot(min(self._free_slots))
        for slot in range(near + 1, self.slot_count):
            if slot in self._free_slots:
                return self._take_slot(slot)
        return self._take_slot(min(self._free_slots))

    def _take_slot(self, slot: int) -> int:
        self._free_slots.remove(slot)
        return slot

    def new_block(
        self, lid: int, pred_bid: int, reservation: Reservation | None = None
    ) -> int:
        self._require_init()
        if lid not in self._lists:
            raise NoSuchListError(lid)
        if reservation is not None:
            self._reservations.consume(reservation)
        elif len(self._blocks) + self._reservations.blocks >= self.slot_count:
            raise OutOfSpaceError("no free block slots")
        bid = self._next_bid
        self._next_bid += 1
        block = _Block()
        if pred_bid == LIST_HEAD:
            block.successor = self._first.get(lid)
            self._first[lid] = bid
        else:
            pred = self._block(pred_bid)
            block.successor = pred.successor
            pred.successor = bid
        self._blocks[bid] = block
        return bid

    def delete_block(self, bid: int, lid: int, pred_bid_hint: int | None = None) -> None:
        self._require_init()
        block = self._block(bid)
        pred = self._find_predecessor(lid, bid, pred_bid_hint)
        if pred is None:
            self._first[lid] = block.successor
        else:
            self._blocks[pred].successor = block.successor
        if block.slot >= 0:
            self._free_slots.add(block.slot)
        del self._blocks[bid]

    def _find_predecessor(self, lid: int, bid: int, hint: int | None) -> int | None:
        if hint is not None:
            hinted = self._blocks.get(hint)
            if hinted is not None and hinted.successor == bid:
                return hint
        if lid not in self._lists:
            raise NoSuchListError(lid)
        current = self._first.get(lid)
        if current == bid:
            return None
        prev = None
        while current is not None:
            if current == bid:
                return prev
            prev = current
            current = self._block(current).successor
        raise NoSuchBlockError(bid)

    # ------------------------------------------------------------------
    # Lists
    # ------------------------------------------------------------------

    def new_list(self, pred_lid: int = LIST_HEAD, hints: ListHints | None = None) -> int:
        self._require_init()
        lid = self._next_lid
        self._next_lid += 1
        self._lists[lid] = hints or ListHints()
        self._first[lid] = None
        if pred_lid == LIST_HEAD:
            self.list_order.insert(0, lid)
        else:
            if pred_lid not in self._lists:
                raise NoSuchListError(pred_lid)
            self.list_order.insert(self.list_order.index(pred_lid) + 1, lid)
        return lid

    def delete_list(self, lid: int, pred_lid_hint: int | None = None) -> None:
        self._require_init()
        if lid not in self._lists:
            raise NoSuchListError(lid)
        current = self._first.get(lid)
        while current is not None:
            block = self._blocks.pop(current)
            if block.slot >= 0:
                self._free_slots.add(block.slot)
            current = block.successor
        del self._lists[lid]
        del self._first[lid]
        self.list_order.remove(lid)

    def list_blocks(self, lid: int) -> list[int]:
        self._require_init()
        if lid not in self._lists:
            raise NoSuchListError(lid)
        out = []
        current = self._first.get(lid)
        while current is not None:
            out.append(current)
            current = self._block(current).successor
        return out

    def move_sublist(
        self, first_bid: int, last_bid: int, src_lid: int, dst_lid: int, dst_pred_bid: int
    ) -> None:
        self._require_init()
        chain = []
        on = False
        for bid in self.list_blocks(src_lid):
            if bid == first_bid:
                on = True
            if on:
                chain.append(bid)
                if bid == last_bid:
                    break
        else:
            raise NoSuchBlockError(last_bid if on else first_bid)
        if dst_lid == src_lid and dst_pred_bid in chain:
            raise ValueError("destination predecessor lies inside the moved chain")
        src_pred = self._find_predecessor(src_lid, first_bid, None)
        after = self._block(last_bid).successor
        if src_pred is None:
            self._first[src_lid] = after
        else:
            self._blocks[src_pred].successor = after
        if dst_pred_bid == LIST_HEAD:
            self._blocks[last_bid].successor = self._first.get(dst_lid)
            self._first[dst_lid] = first_bid
        else:
            dst_pred = self._block(dst_pred_bid)
            self._blocks[last_bid].successor = dst_pred.successor
            dst_pred.successor = first_bid

    def move_list(self, lid: int, new_pred_lid: int) -> None:
        self._require_init()
        if lid not in self._lists:
            raise NoSuchListError(lid)
        self.list_order.remove(lid)
        if new_pred_lid == LIST_HEAD:
            self.list_order.insert(0, lid)
        else:
            self.list_order.insert(self.list_order.index(new_pred_lid) + 1, lid)

    # ------------------------------------------------------------------
    # ARUs (metadata-atomic; see module docstring)
    # ------------------------------------------------------------------

    def begin_aru(self) -> int:
        self._require_init()
        if self._in_aru:
            raise ARUError("an atomic recovery unit is already open")
        self._in_aru = True
        self._aru_buffer = []
        return 1

    def end_aru(self) -> None:
        self._require_init()
        if not self._in_aru:
            raise ARUError("no atomic recovery unit is open")
        self._in_aru = False
        for bid, data in self._aru_buffer:
            block = self._blocks.get(bid)
            if block is not None:
                self._write_in_place(bid, block, data)
        self._aru_buffer = []

    def flush_list(self, lid: int, *, wait: bool = True) -> float:
        self._require_init()
        if lid not in self._lists:
            raise NoSuchListError(lid)
        return self.flush()

    # ------------------------------------------------------------------
    # Reservations
    # ------------------------------------------------------------------

    def reserve_blocks(self, count: int) -> Reservation:
        self._require_init()
        return self._reservations.reserve(
            count, len(self._free_slots) - self._reservations.blocks
        )

    def cancel_reservation(self, reservation: Reservation) -> None:
        self._require_init()
        self._reservations.cancel(reservation)

    def __repr__(self) -> str:
        return f"ULD(blocks={len(self._blocks)}, lists={len(self._lists)})"
