"""Loge-style self-organizing disk controller behind the LD interface."""

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

#: Per-slot header: magic, bid, timestamp, length, crc of payload.
_SLOT_HEADER = struct.Struct("<4sIQII")
_SLOT_MAGIC = b"LOGE"


@dataclass(frozen=True)
class LogeConfig:
    """Tunables for the Loge-style controller.

    ``reserve_fraction`` is the share of physical blocks Loge keeps free
    for its internal operation (the paper cites 3-5%).
    """

    block_size: int = 4096
    reserve_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.block_size % SECTOR != 0:
            raise ValueError(f"block_size must be sector-aligned: {self.block_size}")
        if not 0.0 < self.reserve_fraction < 0.5:
            raise ValueError(f"reserve_fraction out of range: {self.reserve_fraction}")


class LogeDisk(LogicalDisk):
    """Writes each block to the free reserved slot nearest the disk head."""

    def __init__(self, disk: SimulatedDisk, config: LogeConfig | None = None) -> None:
        self.disk = disk
        self.config = config or LogeConfig()
        # One extra sector per slot holds the out-of-band header Loge
        # stores in sector headers on real hardware.
        self._sectors_per_slot = self.config.block_size // SECTOR + 1
        self.slot_count = disk.geometry.total_sectors // self._sectors_per_slot
        if self.slot_count < 8:
            raise ValueError("disk too small for Loge layout")

        self._table: dict[int, int] = {}  # bid -> slot
        self._lengths: dict[int, int] = {}
        self._free_slots: set[int] = set(range(self.slot_count))
        self._timestamp = 0
        self._next_bid = 1
        self._next_lid = 1
        # Volatile list info: the controller cannot recover relationships.
        self._lists: dict[int, list[int]] = {}
        self.list_order: list[int] = []
        self._initialized = False
        self._reservations = ReservationBook(self.config.block_size)
        self.recovery_sectors_read = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def initialize(self) -> None:
        """Rebuild the indirection table by scanning the whole disk."""
        if self._initialized:
            raise LDError("Loge already initialized")
        before = self.disk.stats.sectors_read
        latest: dict[int, tuple[int, int, int]] = {}  # bid -> (ts, slot, length)
        for slot in range(self.slot_count):
            image = self.disk.read(self._slot_lba(slot), self._sectors_per_slot)
            parsed = self._parse_slot(image)
            if parsed is None:
                continue
            bid, ts, length = parsed
            current = latest.get(bid)
            if current is None or ts > current[0]:
                latest[bid] = (ts, slot, length)
        for bid, (ts, slot, length) in latest.items():
            self._table[bid] = slot
            self._lengths[bid] = length
            self._free_slots.discard(slot)
            self._timestamp = max(self._timestamp, ts)
            self._next_bid = max(self._next_bid, bid + 1)
        self.recovery_sectors_read = self.disk.stats.sectors_read - before
        self._initialized = True

    def shutdown(self) -> None:
        self._require_init()
        self._initialized = False

    def crash(self) -> None:
        """Power loss: volatile state (including all list info) is gone."""
        self._initialized = False

    def _require_init(self) -> None:
        if not self._initialized:
            raise LDError("Loge not initialized")

    # ------------------------------------------------------------------
    # Placement: nearest free slot to the current head position
    # ------------------------------------------------------------------

    def _slot_lba(self, slot: int) -> int:
        return slot * self._sectors_per_slot

    def _nearest_free_slot(self) -> int:
        if not self._free_slots:
            raise OutOfSpaceError("no free physical blocks")
        geometry = self.disk.geometry
        head_cylinder = self.disk._current_cylinder

        def distance(slot: int) -> tuple[int, int]:
            cylinder = geometry.cylinder_of(self._slot_lba(slot))
            return (abs(cylinder - head_cylinder), slot)

        return min(self._free_slots, key=distance)

    # ------------------------------------------------------------------
    # Blocks
    # ------------------------------------------------------------------

    def read(self, bid: int, *, wait: bool = True) -> bytes:
        """Every read has arrived when it returns, whatever ``wait`` says."""
        data = self._read(bid)
        return data if wait else Arrived(data, self.disk.clock.now)

    def _read(self, bid: int) -> bytes:
        self._require_init()
        if bid not in self._table and bid not in self._known_bids():
            raise NoSuchBlockError(bid)
        slot = self._table.get(bid)
        if slot is None:
            return b""
        image = self.disk.read(self._slot_lba(slot), self._sectors_per_slot)
        parsed = self._parse_slot(image)
        if parsed is None or parsed[0] != bid:
            raise LDError(f"slot {slot} does not hold block {bid}")
        length = parsed[2]
        return image[_SLOT_HEADER.size : _SLOT_HEADER.size + length]

    def _known_bids(self) -> set[int]:
        known = set(self._table)
        for chain in self._lists.values():
            known.update(chain)
        return known

    def write(self, bid: int, data: bytes) -> None:
        self._require_init()
        if bid not in self._known_bids():
            raise NoSuchBlockError(bid)
        data = bytes(data)
        if len(data) > self.config.block_size:
            raise ValueError(
                f"block of {len(data)} bytes exceeds block size {self.config.block_size}"
            )
        slot = self._nearest_free_slot()
        self._timestamp += 1
        header = _SLOT_HEADER.pack(
            _SLOT_MAGIC, bid, self._timestamp, len(data), zlib.crc32(data)
        )
        image = header + data
        pad = self._sectors_per_slot * SECTOR - len(image)
        self.disk.write(self._slot_lba(slot), image + b"\x00" * pad)
        # The previous physical location becomes free-reserved.
        old = self._table.get(bid)
        if old is not None:
            self._free_slots.add(old)
        self._free_slots.discard(slot)
        self._table[bid] = slot
        self._lengths[bid] = len(data)

    def _parse_slot(self, image: bytes) -> tuple[int, int, int] | None:
        try:
            magic, bid, ts, length, crc = _SLOT_HEADER.unpack_from(image, 0)
        except struct.error:
            return None
        if magic != _SLOT_MAGIC or length > self.config.block_size:
            return None
        payload = image[_SLOT_HEADER.size : _SLOT_HEADER.size + length]
        if zlib.crc32(payload) != crc:
            return None
        return bid, ts, length

    def new_block(
        self, lid: int, pred_bid: int, reservation: Reservation | None = None
    ) -> int:
        self._require_init()
        chain = self._lists.get(lid)
        if chain is None:
            raise NoSuchListError(lid)
        if reservation is not None:
            self._reservations.consume(reservation)
        usable = int(self.slot_count * (1.0 - self.config.reserve_fraction))
        if len(self._table) + self._reservations.blocks >= usable:
            raise OutOfSpaceError("no space outside Loge's reserved pool")
        bid = self._next_bid
        self._next_bid += 1
        if pred_bid == LIST_HEAD:
            chain.insert(0, bid)
        else:
            chain.insert(chain.index(pred_bid) + 1, bid)
        return bid

    def delete_block(self, bid: int, lid: int, pred_bid_hint: int | None = None) -> None:
        self._require_init()
        chain = self._lists.get(lid)
        if chain is None:
            raise NoSuchListError(lid)
        if bid not in chain:
            raise NoSuchBlockError(bid)
        chain.remove(bid)
        slot = self._table.pop(bid, None)
        self._lengths.pop(bid, None)
        if slot is not None:
            self._free_slots.add(slot)

    # ------------------------------------------------------------------
    # Lists (volatile — Loge cannot persist relationships)
    # ------------------------------------------------------------------

    def new_list(self, pred_lid: int = LIST_HEAD, hints: ListHints | None = None) -> int:
        self._require_init()
        lid = self._next_lid
        self._next_lid += 1
        self._lists[lid] = []
        if pred_lid == LIST_HEAD:
            self.list_order.insert(0, lid)
        else:
            if pred_lid not in self._lists:
                raise NoSuchListError(pred_lid)
            self.list_order.insert(self.list_order.index(pred_lid) + 1, lid)
        return lid

    def delete_list(self, lid: int, pred_lid_hint: int | None = None) -> None:
        self._require_init()
        chain = self._lists.pop(lid, None)
        if chain is None:
            raise NoSuchListError(lid)
        for bid in chain:
            slot = self._table.pop(bid, None)
            if slot is not None:
                self._free_slots.add(slot)
            self._lengths.pop(bid, None)
        self.list_order.remove(lid)

    def list_blocks(self, lid: int) -> list[int]:
        self._require_init()
        chain = self._lists.get(lid)
        if chain is None:
            raise NoSuchListError(lid)
        return list(chain)

    def move_sublist(
        self, first_bid: int, last_bid: int, src_lid: int, dst_lid: int, dst_pred_bid: int
    ) -> None:
        self._require_init()
        src = self._lists.get(src_lid)
        dst = self._lists.get(dst_lid)
        if src is None:
            raise NoSuchListError(src_lid)
        if dst is None:
            raise NoSuchListError(dst_lid)
        i = src.index(first_bid)
        j = src.index(last_bid)
        if j < i:
            raise ValueError("last block precedes first block")
        chain = src[i : j + 1]
        if dst is src and dst_pred_bid in chain:
            raise ValueError("destination predecessor lies inside the moved chain")
        del src[i : j + 1]
        if dst_pred_bid == LIST_HEAD:
            dst[0:0] = chain
        else:
            k = dst.index(dst_pred_bid)
            dst[k + 1 : k + 1] = chain

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
    # ARUs: unsupported (Mime added transactions on top of Loge)
    # ------------------------------------------------------------------

    def begin_aru(self) -> int:
        raise ARUError("Loge does not support atomic recovery units")

    def end_aru(self) -> None:
        raise ARUError("Loge does not support atomic recovery units")

    def flush(self, *, wait: bool = True) -> float:
        """No-op: every Loge write is individually durable."""
        self._require_init()
        return self.disk.clock.now

    def flush_list(self, lid: int, *, wait: bool = True) -> float:
        self._require_init()
        if lid not in self._lists:
            raise NoSuchListError(lid)
        return self.disk.clock.now

    # ------------------------------------------------------------------
    # Reservations
    # ------------------------------------------------------------------

    def reserve_blocks(self, count: int) -> Reservation:
        self._require_init()
        usable = int(self.slot_count * (1.0 - self.config.reserve_fraction))
        return self._reservations.reserve(
            count, usable - len(self._table) - self._reservations.blocks
        )

    def cancel_reservation(self, reservation: Reservation) -> None:
        self._require_init()
        self._reservations.cancel(reservation)

    def __repr__(self) -> str:
        return f"LogeDisk(blocks={len(self._table)}, slots={self.slot_count})"
