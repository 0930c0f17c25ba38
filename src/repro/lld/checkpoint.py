"""Clean-shutdown checkpoint region (paper section 3.6).

On explicit shutdown LLD writes its data structures, a timestamp, and a
validity marker to a special region at the front of the disk. Startup after
a clean shutdown loads this image, invalidates the marker (so a later crash
cannot be mistaken for a clean state), and runs immediately. After a
failure the marker is absent or invalid and startup falls back to one-sweep
recovery. No checkpoints are ever taken during *normal operation*.
"""

from __future__ import annotations

import struct
import zlib
from typing import TYPE_CHECKING

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

_HEADER = struct.Struct("<4sB3xQQQII")  # magic, valid, bid, lid, ts, payload_len, crc
_COUNTS = struct.Struct("<IIIIIII")
_BLOCK = struct.Struct("<IiIIIBI")
_LIST = struct.Struct("<IIB")
_HOME = struct.Struct("<BII")
_TOMB = struct.Struct("<BIQI")
_MINTS = struct.Struct("<IQ")
_MODTS = struct.Struct("<IQ")
_ORDER = struct.Struct("<I")
_UNIT = struct.Struct("<QI")

_NONE = 0xFFFFFFFF
_KIND_CODES = {KIND_LINK: 1, KIND_FIRST: 2, KIND_META: 3, KIND_COMMIT: 4}
_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}
_TOMB_CODES = {"block": 1, "list": 2}
_TOMB_NAMES = {code: kind for kind, code in _TOMB_CODES.items()}


class CheckpointTooLargeError(LDError):
    """The serialized state does not fit in the checkpoint region."""


class CheckpointRegion:
    """Reads and writes the clean-shutdown state image."""

    def __init__(self, disk: SimulatedDisk, layout: "DiskLayout", config: LLDConfig) -> None:
        self.disk = disk
        self.lba = layout.checkpoint_lba
        self.sectors = layout.checkpoint_sectors
        self.capacity = self.sectors * SECTOR
        self.config = config

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def _serialize(self, state: LLDState) -> bytes:
        parts: list[bytes] = [
            _COUNTS.pack(
                len(state.blocks),
                len(state.lists),
                len(state.homes),
                len(state.tombstones),
                len(state.summary_min_ts),
                len(state.segment_mod_ts),
                len(state.list_order),
            )
        ]
        for bid, entry in state.blocks.items():
            flags = (1 if entry.compressed else 0) | (2 if entry.compress_writes else 0)
            succ = _NONE if entry.successor is None else entry.successor
            parts.append(
                _BLOCK.pack(
                    bid,
                    entry.segment,
                    entry.offset,
                    entry.stored_length,
                    entry.length,
                    flags,
                    succ,
                )
            )
        for lid, lst in state.lists.items():
            first = _NONE if lst.first is None else lst.first
            parts.append(_LIST.pack(lid, first, lst.hints.pack()))
        for (kind, ident), segment in state.homes.items():
            parts.append(_HOME.pack(_KIND_CODES[kind], ident, segment))
        for tomb in state.tombstones.values():
            parts.append(
                _TOMB.pack(
                    _TOMB_CODES[tomb.kind],
                    tomb.ident,
                    tomb.death_timestamp,
                    tomb.home_segment,
                )
            )
        for segment, ts in state.summary_min_ts.items():
            parts.append(_MINTS.pack(segment, ts))
        for segment, ts in state.segment_mod_ts.items():
            parts.append(_MODTS.pack(segment, ts))
        for lid in state.list_order:
            parts.append(_ORDER.pack(lid))
        # Which slots hold records of which ARU: a trailing section, absent
        # where no summary holds any (an image without ARUs is unchanged).
        units = [(aru, slot) for aru, slots in state.units.items() for slot in slots]
        if units:
            parts.append(_ORDER.pack(len(units)))
            parts.extend(_UNIT.pack(aru, slot) for aru, slot in units)
        return b"".join(parts)

    def save(self, state: LLDState) -> None:
        """Write a valid state image; raises if the region is too small."""
        payload = self._serialize(state)
        header = _HEADER.pack(
            CHECKPOINT_MAGIC,
            1,
            state.next_bid,
            state.next_lid,
            state.next_ts,
            len(payload),
            zlib.crc32(payload),
        )
        image = header + payload
        if len(image) > self.capacity:
            raise CheckpointTooLargeError(
                f"state image of {len(image)} bytes exceeds checkpoint region "
                f"of {self.capacity} bytes"
            )
        pad = (-len(image)) % SECTOR
        self.disk.write(self.lba, image + b"\x00" * pad)

    def try_load(self, state: LLDState) -> bool:
        """Load a valid image into ``state``; False if none exists."""
        head_image = self.disk.read(self.lba, 1)
        try:
            magic, valid, next_bid, next_lid, next_ts, payload_len, crc = _HEADER.unpack_from(
                head_image, 0
            )
        except struct.error:
            return False
        if magic != CHECKPOINT_MAGIC or not valid:
            return False
        total = _HEADER.size + payload_len
        nsectors = (total + SECTOR - 1) // SECTOR
        if nsectors > self.sectors:
            return False
        image = head_image + (self.disk.read(self.lba + 1, nsectors - 1) if nsectors > 1 else b"")
        payload = image[_HEADER.size : _HEADER.size + payload_len]
        if len(payload) != payload_len or zlib.crc32(payload) != crc:
            return False
        self._deserialize(state, payload, next_bid, next_lid, next_ts)
        return True

    def _deserialize(
        self,
        state: LLDState,
        payload: bytes,
        next_bid: int,
        next_lid: int,
        next_ts: int,
    ) -> None:
        offset = 0
        (nblocks, nlists, nhomes, ntombs, nmints, nmodts, norder) = _COUNTS.unpack_from(
            payload, offset
        )
        offset += _COUNTS.size

        state.next_bid = next_bid
        state.next_lid = next_lid
        state.next_ts = next_ts

        for _ in range(nblocks):
            bid, seg, off, stored, length, flags, succ = _BLOCK.unpack_from(payload, offset)
            offset += _BLOCK.size
            entry = BlockEntry(
                segment=seg,
                offset=off,
                stored_length=stored,
                length=length,
                compressed=bool(flags & 1),
                successor=None if succ == _NONE else succ,
                compress_writes=bool(flags & 2),
            )
            state.blocks[bid] = entry
            if seg >= 0:
                # Through _adjust_usage so the live-byte total stays in
                # sync (free_slots is inert until init_slots runs).
                state._adjust_usage(seg, stored)
                state.segment_blocks.setdefault(seg, set()).add(bid)
        for _ in range(nlists):
            lid, first, hints = _LIST.unpack_from(payload, offset)
            offset += _LIST.size
            state.lists[lid] = ListEntry(
                first=None if first == _NONE else first,
                hints=ListHints.unpack(hints),
            )
        for _ in range(nhomes):
            code, ident, segment = _HOME.unpack_from(payload, offset)
            offset += _HOME.size
            key = (_KIND_NAMES[code], ident)
            state.homes[key] = segment
            state.segment_keys.setdefault(segment, set()).add(key)
        for _ in range(ntombs):
            code, ident, death, home = _TOMB.unpack_from(payload, offset)
            offset += _TOMB.size
            kind = _TOMB_NAMES[code]
            state.put_tombstone(
                Tombstone(kind=kind, ident=ident, death_timestamp=death, home_segment=home)
            )
        for _ in range(nmints):
            segment, ts = _MINTS.unpack_from(payload, offset)
            offset += _MINTS.size
            state.summary_min_ts[segment] = ts
        for _ in range(nmodts):
            segment, ts = _MODTS.unpack_from(payload, offset)
            offset += _MODTS.size
            state.segment_mod_ts[segment] = ts
        order: list[int] = []
        for _ in range(norder):
            (lid,) = _ORDER.unpack_from(payload, offset)
            offset += _ORDER.size
            order.append(lid)
        state.list_order = [lid for lid in order if lid in state.lists]
        if offset < len(payload):
            (nunits,) = _ORDER.unpack_from(payload, offset)
            offset += _ORDER.size
            for _ in range(nunits):
                aru, slot = _UNIT.unpack_from(payload, offset)
                offset += _UNIT.size
                state.units.setdefault(aru, set()).add(slot)
                state.slot_units.setdefault(slot, set()).add(aru)

    def invalidate(self) -> None:
        """Destroy the validity marker (first sector of the region)."""
        self.disk.write(self.lba, b"\x00" * SECTOR)
