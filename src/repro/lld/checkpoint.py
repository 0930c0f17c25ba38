"""Checkpoints of LLD's tables (paper section 3.6, extended).

The paper writes its data structures to a region at the front of the disk
on an explicit shutdown only, and recovers from a crash with one sweep
over every segment summary. Here the region holds one or two *copies* of
the state image (``LLDConfig.checkpoint_slots``: two from two slots on,
each a slot's worth of sectors), each stamped with a sequence number, and
every copy — the one a shutdown writes included — is a checkpoint:

* sector 0 is the header: the sequence number, the timestamp ``T`` the
  image is consistent with (every record older than ``T`` is reflected,
  none newer), the payload's length and CRC, and a *list* — the slots the
  log opens first after it — under a CRC of its own;
* the payload, from sector 1, is the tables, deflated (level 1: a third
  of the bytes to write — on RAID-5 a copy is a partial-stripe write, and
  its pre-reads are as large as the copy).

With two copies the log writer takes checkpoints during normal operation
(:meth:`repro.lld.log.LogWriter.open_next`), always into the older copy,
so a torn write leaves the newer one intact; a crash then recovers from
the newest copy, the listed slots' summaries and the chain of slots each
summary names as opened after it, instead of sweeping every slot
(:func:`repro.lld.recovery.run_recovery`). When the log must open a slot
no recovery would reach and cannot take a checkpoint first, it writes a
newer copy that holds no image (:meth:`CheckpointRegion.retire`): the
next recovery sweeps. With one copy only a shutdown writes an image, and
the first opening after it retires it.

The payload is packed incrementally: ``LLDState.changed`` names the keys
changed since the last image, and only those are packed again.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.disk.disk import SimulatedDisk
from repro.ld.errors import LDError
from repro.ld.hints import ListHints
from repro.lld.config import SECTOR, LLDConfig
from repro.lld.state import (
    KIND_COMMIT,
    KIND_FIRST,
    KIND_LINK,
    KIND_META,
    BlockEntry,
    ListEntry,
    LLDState,
    Tombstone,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.lld.segment import DiskLayout

CHECKPOINT_MAGIC = b"LDCK"

# magic, has_image, sequence, T, next_bid, next_lid, payload_len, payload_crc
_HEADER = struct.Struct("<4sB3xQQQQII")
_LISTED = struct.Struct("<H")  # list length; the slots follow as u32
_CRC = struct.Struct("<I")
_COUNTS = struct.Struct("<IIIIIIII")
_BLOCK = struct.Struct("<IiIIIBI")
_LIST = struct.Struct("<IIB")
_HOME = struct.Struct("<BII")
_TOMB = struct.Struct("<BIQI")
_MINTS = struct.Struct("<IQ")
_MODTS = struct.Struct("<IQ")
_ORDER = struct.Struct("<I")
_UNIT = struct.Struct("<QI")

#: Slots a header sector has room to list.
MAX_LISTED = (SECTOR - _HEADER.size - _LISTED.size - _CRC.size) // 4

_NONE = 0xFFFFFFFF
_KIND_CODES = {KIND_LINK: 1, KIND_FIRST: 2, KIND_META: 3, KIND_COMMIT: 4}
_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}
_TOMB_CODES = {"block": 1, "list": 2}
_TOMB_NAMES = {code: kind for kind, code in _TOMB_CODES.items()}


class CheckpointTooLargeError(LDError):
    """The serialized state does not fit in one checkpoint copy."""


@dataclass(frozen=True)
class CopyHeader:
    """The header of one checkpoint copy on disk."""

    copy: int
    sequence: int
    has_image: bool
    timestamp: int  # T: the image holds every record older than this
    next_bid: int
    next_lid: int
    payload_len: int
    payload_crc: int
    listed: tuple[int, ...]


def _pack_block(bid: int, entry: BlockEntry) -> bytes:
    flags = (1 if entry.compressed else 0) | (2 if entry.compress_writes else 0)
    succ = _NONE if entry.successor is None else entry.successor
    return _BLOCK.pack(
        bid, entry.segment, entry.offset, entry.stored_length, entry.length, flags, succ
    )


def _pack_list(lid: int, entry: ListEntry) -> bytes:
    return _LIST.pack(lid, _NONE if entry.first is None else entry.first, entry.hints.pack())


def _pack_home(key: tuple[str, int], segment: int) -> bytes:
    return _HOME.pack(_KIND_CODES[key[0]], key[1], segment)


def _pack_tomb(_key, tomb: Tombstone) -> bytes:
    return _TOMB.pack(
        _TOMB_CODES[tomb.kind], tomb.ident, tomb.death_timestamp, tomb.home_segment
    )


class _Packed:
    """One table's entries, packed; a key is packed again only when the
    state has marked it changed."""

    def __init__(self, table: str, changed: str, pack: Callable) -> None:
        self.table = table
        self.changed = changed
        self.pack = pack
        self.entries: dict = {}

    def refresh(self, state: LLDState) -> bytes:
        table = getattr(state, self.table)
        changed = state.changed[self.changed]
        entries, pack = self.entries, self.pack
        # In key order, so that the entries — and the deflated payload's
        # length, which the disk time depends on — do not follow the
        # process's string hashing.
        for key in sorted(changed):
            row = table.get(key)
            if row is None:
                entries.pop(key, None)
            else:
                entries[key] = pack(key, row)
        changed.clear()
        return b"".join(entries.values())


def _pack_pairs(fmt: str, items) -> bytes:
    flat = [value for pair in items for value in pair]
    return struct.pack("<" + fmt * (len(flat) // 2), *flat)


class CheckpointRegion:
    """Reads and writes the copies of the state image."""

    def __init__(self, disk: SimulatedDisk, layout: "DiskLayout", config: LLDConfig) -> None:
        self.disk = disk
        self.copies = min(2, config.checkpoint_slots)
        self.copy_sectors = layout.checkpoint_sectors // self.copies
        self.capacity = self.copy_sectors * SECTOR
        self.lbas = [layout.checkpoint_lba + i * self.copy_sectors for i in range(self.copies)]
        #: Sequence number and copy of the newest header on disk (0 and -1:
        #: none), as the last load found it or the last write left it.
        self.sequence = 0
        self.newest = -1
        self._packed = (
            _Packed("blocks", "block", _pack_block),
            _Packed("lists", "list", _pack_list),
            _Packed("homes", "home", _pack_home),
            _Packed("tombstones", "tombstone", _pack_tomb),
        )

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def _serialize(self, state: LLDState) -> bytes:
        blocks, lists, homes, tombs = (packed.refresh(state) for packed in self._packed)
        state.changed["unit"].clear()  # a COMMIT's: the units section is packed whole
        units = [(aru, slot) for aru, slots in state.units.items() for slot in slots]
        order = state.list_order
        return b"".join(
            (
                _COUNTS.pack(
                    len(state.blocks),
                    len(state.lists),
                    len(state.homes),
                    len(state.tombstones),
                    len(state.summary_min_ts),
                    len(state.segment_mod_ts),
                    len(order),
                    len(units),
                ),
                blocks,
                lists,
                homes,
                tombs,
                _pack_pairs("IQ", state.summary_min_ts.items()),
                _pack_pairs("IQ", state.segment_mod_ts.items()),
                struct.pack(f"<{len(order)}I", *order),
                _pack_pairs("QI", units),
            )
        )

    def _header(self, has_image: bool, fields: tuple, listed) -> bytes:
        head = _HEADER.pack(CHECKPOINT_MAGIC, has_image, self.sequence + 1, *fields)
        head += _LISTED.pack(len(listed)) + struct.pack(f"<{len(listed)}I", *listed)
        return head + _CRC.pack(zlib.crc32(head))

    def image(self, state: LLDState, listed) -> bytes:
        """The next copy: header and payload, padded to whole sectors.
        Raises :class:`CheckpointTooLargeError` when it does not fit in one
        copy (the keys it re-packed stay packed)."""
        if len(listed) > MAX_LISTED:
            raise CheckpointTooLargeError(f"cannot list {len(listed)} slots")
        payload = zlib.compress(self._serialize(state), 1)
        header = self._header(
            True,
            (
                state.next_ts,
                state.next_bid,
                state.next_lid,
                len(payload),
                zlib.crc32(payload),
            ),
            listed,
        )
        total = SECTOR + len(payload)
        if total > self.capacity:
            raise CheckpointTooLargeError(
                f"state image of {total} bytes exceeds a checkpoint copy "
                f"of {self.capacity} bytes"
            )
        return header.ljust(SECTOR, b"\x00") + payload + bytes((-total) % SECTOR)

    def write(self, image: bytes) -> None:
        """Write ``image`` (from :meth:`image`, or a retirement) into the
        older copy; it becomes the newest."""
        copy = (self.newest + 1) % self.copies
        self.disk.write(self.lbas[copy], image)
        self.sequence += 1
        self.newest = copy

    def retire(self) -> None:
        """Write a newer copy that holds no image: until the next
        checkpoint, recovery sweeps."""
        self.write(self._header(False, (0, 0, 0, 0, 0), ()).ljust(SECTOR, b"\x00"))

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def newest_copy(self) -> CopyHeader | None:
        """Read the copies' headers; the newest one whose image recovery
        may load, or None: sweep.

        None also when the newest header holds no image (a retirement),
        and when the other copy's header sector is neither blank nor
        valid — the newest header may be a corrupted one, and the older
        copy's chain may have been overwritten since.
        """
        if self.copies == 1:
            sectors = [self.disk.read(self.lbas[0], 1)]
        else:
            sectors = self.disk.read_batch([(lba, 1) for lba in self.lbas])
        headers = [_parse_header(copy, raw) for copy, raw in enumerate(sectors)]
        valid = [h for h in headers if h is not None]
        if not valid:
            return None
        newest = max(valid, key=lambda h: h.sequence)
        self.sequence, self.newest = newest.sequence, newest.copy
        for header, raw in zip(headers, sectors):
            if header is None and any(raw):
                return None
        if not newest.has_image or SECTOR + newest.payload_len > self.capacity:
            return None
        return newest

    def body_extent(self, header: CopyHeader) -> tuple[int, int]:
        """``(lba, nsectors)`` of a copy's payload."""
        return self.lbas[header.copy] + 1, max(1, -(-header.payload_len // SECTOR))

    def load(self, state: LLDState, header: CopyHeader, body) -> bool:
        """Load a copy's payload into ``state`` (which must be empty);
        False, with ``state`` untouched, when its CRC does not match."""
        payload = memoryview(body)[: header.payload_len]
        if len(payload) != header.payload_len or zlib.crc32(payload) != header.payload_crc:
            return False
        self._deserialize(state, memoryview(zlib.decompress(payload)))
        state.next_bid = header.next_bid
        state.next_lid = header.next_lid
        state.next_ts = header.timestamp
        # Nothing is packed for this image yet: the next one packs all.
        for name, table in (
            ("block", state.blocks),
            ("list", state.lists),
            ("home", state.homes),
            ("tombstone", state.tombstones),
        ):
            state.changed[name].update(table)
        return True

    def _deserialize(self, state: LLDState, payload: memoryview) -> None:
        counts = _COUNTS.unpack_from(payload, 0)
        offset = _COUNTS.size
        sections = []
        for count, item in zip(
            counts, (_BLOCK, _LIST, _HOME, _TOMB, _MINTS, _MODTS, _ORDER, _UNIT)
        ):
            end = offset + count * item.size
            sections.append(item.iter_unpack(payload[offset:end]))
            offset = end
        blocks, lists, homes, tombs, mints, modts, order, units = sections

        usage = state._adjust_usage
        segment_blocks = state.segment_blocks
        for bid, seg, off, stored, length, flags, succ in blocks:
            state.blocks[bid] = BlockEntry(
                segment=seg,
                offset=off,
                stored_length=stored,
                length=length,
                compressed=bool(flags & 1),
                successor=None if succ == _NONE else succ,
                compress_writes=bool(flags & 2),
            )
            if seg >= 0:
                # Through _adjust_usage so the live-byte total stays in
                # sync (free_slots is inert until init_slots runs).
                usage(seg, stored)
                segment_blocks.setdefault(seg, set()).add(bid)
        for lid, first, hints in lists:
            state.lists[lid] = ListEntry(
                first=None if first == _NONE else first, hints=ListHints.unpack(hints)
            )
        for code, ident, segment in homes:
            key = (_KIND_NAMES[code], ident)
            state.homes[key] = segment
            state.segment_keys.setdefault(segment, set()).add(key)
        for code, ident, death, home in tombs:
            state.put_tombstone(Tombstone(_TOMB_NAMES[code], ident, death, home))
        state.summary_min_ts.update(mints)
        state.segment_mod_ts.update(modts)
        state.list_order = [lid for (lid,) in order if lid in state.lists]
        for aru, slot in units:
            state.units.setdefault(aru, set()).add(slot)
            state.slot_units.setdefault(slot, set()).add(aru)


def _parse_header(copy: int, raw: bytes) -> CopyHeader | None:
    """A copy's header sector, or None when it is not a valid one."""
    try:
        magic, has_image, sequence, ts, bid, lid, length, crc = _HEADER.unpack_from(raw, 0)
        (count,) = _LISTED.unpack_from(raw, _HEADER.size)
        if magic != CHECKPOINT_MAGIC or count > MAX_LISTED:
            return None
        start = _HEADER.size + _LISTED.size
        listed = struct.unpack_from(f"<{count}I", raw, start)
        end = start + 4 * count
        (header_crc,) = _CRC.unpack_from(raw, end)
    except struct.error:
        return None
    if zlib.crc32(raw[:end]) != header_crc:
        return None
    return CopyHeader(copy, sequence, bool(has_image), ts, bid, lid, length, crc, listed)
