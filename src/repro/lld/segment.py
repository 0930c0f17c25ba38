"""Segments: on-disk layout and the in-memory segment being filled.

Each segment slot on disk holds its summary at a fixed offset (the start of
the slot), followed by the data area. Fixed summary locations are what make
one-sweep recovery possible (paper §3.2): recovery reads
``summary_capacity`` bytes per slot and nothing else.

Hot-path CPU architecture (DESIGN.md §11): the open segment keeps its
entire slot image — summary area followed by data area — in **one**
zero-initialized buffer laid out exactly as the slot is on disk (a window
of the log writer's row buffer, so that a whole stripe row is one view).
Records are packed into the summary area *once*, at append time, with a
running CRC32; the 16 mutable header bytes (record count, body length,
CRC, next) are patched in place when an image is needed. ``image()``,
``summary_delta_image()``, and ``data_tail()`` therefore return
``memoryview`` slices of the live buffer: a partial flush reaches
:meth:`repro.disk.SimulatedDisk.write` with **zero intermediate bytes
copies**. The per-entry codec this replaced lives on in
``tests/lld/reference_codec.py`` as the readable wire-format
specification and the byte-identity oracle of the property tests
(DESIGN.md §11).
"""

from __future__ import annotations

import struct
import zlib
from collections import Counter

from repro.disk.disk import SimulatedDisk
from repro.ld.errors import OutOfSpaceError
from repro.lld.config import SECTOR, LLDConfig
from repro.lld.records import Record, decode_records, encode_records_into

SUMMARY_MAGIC = b"LDS1"
#: magic, nrecords, body_len, crc32, next. The CRC runs over the body and
#: then the ``next`` field: the slot the log opens after this segment
#: (:data:`NO_NEXT` while it has not chosen one), which a recovery from a
#: checkpoint follows past the slots the checkpoint listed.
_SUMMARY_HEADER = struct.Struct("<4sIIII")
#: The mutable header fields (record count, body length, CRC, next) at
#: offset 4; the magic before them is written once per template and never
#: patched.
_SUMMARY_MUTABLE = struct.Struct("<IIII")
_NEXT = struct.Struct("<I")
_HEADER_SIZE = _SUMMARY_HEADER.size
NO_NEXT = 0xFFFFFFFF

#: Cached all-empty summary images per capacity (the reseal/scrub
#: template): header with zero records, zero body, CRC32 of b"" (== 0),
#: zero padding. Scrubs and slot invalidation reuse one immutable object
#: instead of re-serializing an empty record list each time.
_EMPTY_SUMMARIES: dict[int, bytes] = {}


def empty_summary(capacity: int) -> bytes:
    """The cached empty-summary image of exactly ``capacity`` bytes (no
    records, no ``next``)."""
    image = _EMPTY_SUMMARIES.get(capacity)
    if image is None:
        image = serialize_summary([], capacity)
        _EMPTY_SUMMARIES[capacity] = image
    return image


def _summary_crc(body_crc: int, next_slot: int) -> int:
    """The header CRC: the body's, continued over the ``next`` field."""
    return zlib.crc32(_NEXT.pack(next_slot), body_crc)


def serialize_summary(
    records: list[Record], capacity: int, next_slot: int = NO_NEXT
) -> bytes:
    """Pack records into a summary image of exactly ``capacity`` bytes.

    One preallocated buffer, one combined-Struct write per record, one
    CRC pass.
    """
    body_len = sum(r.SIZE for r in records)
    total = _HEADER_SIZE + body_len
    if total > capacity:
        raise ValueError(f"summary of {total} bytes exceeds capacity {capacity}")
    buf = bytearray(capacity)
    end = encode_records_into(buf, _HEADER_SIZE, records)
    crc = _summary_crc(zlib.crc32(memoryview(buf)[_HEADER_SIZE:end]), next_slot)
    _SUMMARY_HEADER.pack_into(buf, 0, SUMMARY_MAGIC, len(records), body_len, crc, next_slot)
    return bytes(buf)


def decode_summary_into(image, out: list[Record]) -> bool:
    """Batch-decode a summary image, appending its records to ``out``.

    Returns False (with ``out`` untouched) for invalid/foreign bytes:
    bad magic, truncated body, checksum mismatch, or a CRC-consistent
    body whose records fail to parse — the cases recovery must tolerate
    (never-written slots, torn writes). ``image`` may be any buffer
    object; a ``memoryview`` decodes without copying a single byte.
    """
    if len(image) < _HEADER_SIZE:
        return False
    magic, nrecords, body_len, crc, next_slot = _SUMMARY_HEADER.unpack_from(image, 0)
    if magic != SUMMARY_MAGIC:
        return False
    end = _HEADER_SIZE + body_len
    if end > len(image):
        return False
    if _summary_crc(zlib.crc32(memoryview(image)[_HEADER_SIZE:end]), next_slot) != crc:
        return False
    try:
        records, offset = decode_records(image, _HEADER_SIZE, end, nrecords)
    except (ValueError, struct.error):
        # A CRC-valid body whose records fail to parse mid-record (e.g. a
        # torn write that happened to keep the checksum consistent) must
        # degrade to skip-segment, never propagate out of the sweep.
        return False
    if offset != end:
        return False
    out.extend(records)
    return True


def summary_next(image) -> int | None:
    """The ``next`` field of a summary :func:`decode_summary_into` accepted:
    the slot the log opened after it, or None (it was open, or scrubbed)."""
    next_slot = _SUMMARY_HEADER.unpack_from(image, 0)[4]
    return None if next_slot == NO_NEXT else next_slot


def parse_summary(image) -> list[Record] | None:
    """Decode a summary image; returns None for invalid/foreign bytes."""
    out: list[Record] = []
    return out if decode_summary_into(image, out) else None


class DiskLayout:
    """Maps segment slots and block locations to disk LBAs."""

    def __init__(self, disk: SimulatedDisk, config: LLDConfig) -> None:
        self.config = config
        checkpoint_sectors = config.checkpoint_slots * config.sectors_per_segment
        self.checkpoint_lba = 0
        self.checkpoint_sectors = checkpoint_sectors
        self.data_start_lba = checkpoint_sectors
        available = disk.geometry.total_sectors - checkpoint_sectors
        self.segment_count = available // config.sectors_per_segment
        if self.segment_count < 4:
            raise ValueError(
                f"disk too small: only {self.segment_count} segment slots "
                f"(need at least 4)"
            )
        # Spindle awareness: a multi-disk volume exposes spindle_of(), a
        # bare disk does not. slot_spindles maps each slot to the member
        # holding its first LBA — exact when the stripe chunk equals the
        # slot size (the volume builders arrange this), a placement hint
        # otherwise.
        spindle_of = getattr(disk, "spindle_of", None)
        self.spindle_count = getattr(disk, "spindle_count", 1)
        if spindle_of is not None and self.spindle_count > 1:
            self.slot_spindles: list[int] | None = [
                spindle_of(self.slot_lba(seg)) for seg in range(self.segment_count)
            ]
        else:
            self.slot_spindles = None
        # Row awareness: a parity volume exports the size of a write that
        # needs no pre-read (``full_stripe_sectors``; a bare disk, a stripe
        # and a mirror export none). Slots start at whole multiples of the
        # slot size, so when that size is a whole multiple (> 1) of the
        # slot, slots tile the stripe rows exactly: ``slot_rows`` maps each
        # slot to its ``(row, position in the row)`` and ``row_width``
        # consecutive sealed segments can leave as one full-stripe write.
        # Any other geometry has no rows: ``row_width`` 1, ``slot_rows``
        # None, and placement and the log writer behave as on one disk.
        slot_sectors = config.sectors_per_segment
        stripe_sectors = getattr(disk.geometry, "full_stripe_sectors", 0)
        width = stripe_sectors // slot_sectors
        if width > 1 and stripe_sectors % slot_sectors == 0:
            first = self.data_start_lba // slot_sectors
            self.row_width = width
            self.slot_rows: list[tuple[int, int]] | None = [
                divmod(first + seg, width) for seg in range(self.segment_count)
            ]
        else:
            self.row_width = 1
            self.slot_rows = None

    def slot_lba(self, segment: int) -> int:
        """First LBA of segment slot ``segment``."""
        if not 0 <= segment < self.segment_count:
            raise ValueError(f"segment {segment} out of range [0, {self.segment_count})")
        return self.data_start_lba + segment * self.config.sectors_per_segment

    def block_extent(self, segment: int, offset: int, length: int) -> tuple[int, int, int]:
        """Sector range covering ``length`` bytes at data ``offset`` in a slot.

        Returns ``(lba, nsectors, byte_skew)``: read ``nsectors`` from
        ``lba`` and slice at ``byte_skew``. Blocks are packed at arbitrary
        byte offsets (variable-sized to support compression, paper Figure
        2), so small blocks may be misaligned — reading them still costs
        whole sectors, which reproduces the paper's i-node read penalty.
        """
        byte_pos = self.slot_lba(segment) * SECTOR + self.config.summary_capacity + offset
        lba = byte_pos // SECTOR
        skew = byte_pos % SECTOR
        nsectors = (skew + length + SECTOR - 1) // SECTOR
        return lba, max(1, nsectors), skew

    @property
    def capacity_bytes(self) -> int:
        """Total block-data capacity across all segments."""
        return self.segment_count * self.config.data_capacity


def pick_slot(ranks: dict[int, int], layout, current: int) -> int:
    """Placement: the free slot the log should open after ``current``.

    Pure. ``ranks`` maps each slot the log may open to what recycling it
    costs (lowest wins: 0 = no on-disk summary, 1 = a pure-stale one);
    ``current`` is the slot being left (-1 at start-up).

    Among the cheapest slots a single disk takes the next one after
    ``current`` (sequential layout). A ``layout`` with stripe rows fills
    them in order, because a row written whole costs no pre-read: the next
    cheapest slot of ``current``'s row while there is one, else the lowest
    slot — after ``current`` before wrapping — of the row with the most
    cheapest slots left, the row likeliest to be filled whole. Any other
    multi-spindle ``layout`` round-robins whole slots across the member
    disks, so consecutive sealed segments — and the cleaner traffic chasing
    them — land on different spindles and their writes overlap in simulated
    time. Within a spindle the sequential bias holds.
    """
    if not ranks:
        raise OutOfSpaceError("no free segments left")
    best = min(ranks.values())
    candidates = sorted(slot for slot, rank in ranks.items() if rank == best)
    rows = layout.slot_rows
    if rows is not None:
        if current >= 0:
            row = rows[current][0]
            for slot in candidates:
                if slot > current and rows[slot][0] == row:
                    return slot
        room = Counter(rows[slot][0] for slot in candidates)
        return min(
            candidates, key=lambda slot: (-room[rows[slot][0]], slot <= current, slot)
        )
    spindles = layout.slot_spindles
    if spindles is None or current < 0:
        return next((slot for slot in candidates if slot > current), candidates[0])
    n = layout.spindle_count
    after = spindles[current] + 1
    return min(
        candidates,
        key=lambda slot: ((spindles[slot] - after) % n, slot <= current, slot),
    )


class OpenSegment:
    """The segment currently being filled in main memory.

    The in-memory representation *is* the slot image: one zero-filled
    buffer holding the summary area (with its header template — magic
    written once, mutable fields patched on demand) followed by the data
    area. Appends pack record bytes and copy block data straight into
    their final on-disk positions, so every image the flush paths need is
    a ``memoryview`` slice of this buffer, never a rebuilt ``bytes``.
    """

    def __init__(self, index: int, config: LLDConfig, buffer: memoryview | None = None) -> None:
        self.index = index
        self.config = config
        summary_capacity = config.summary_capacity
        # Slot image: [summary area][data area], zero-initialized so
        # padding (summary tail, final data sector) is free. The log
        # writer passes ``buffer``, a zeroed ``segment_size`` window of its
        # row buffer, so that neighbouring segments are contiguous in
        # memory as their slots are on disk; alone, the segment owns one.
        if buffer is None:
            buffer = memoryview(bytearray(config.segment_size))
        self._image_view = buffer
        buffer[0:4] = SUMMARY_MAGIC  # header template, written once
        self._summary_capacity = summary_capacity
        #: Data area as a writable zero-copy window into the slot image.
        self.data = self._image_view[summary_capacity:]
        self.used = 0
        self.records: list[Record] = []
        # Summary bytes already committed to records (plus header).
        self.summary_used = _HEADER_SIZE
        #: Running CRC32 over the packed record bytes (records are
        #: append-only, so the checksum never needs a full re-pass).
        self._crc = 0
        #: Oldest record timestamp, maintained incrementally.
        self._min_ts: int | None = None
        #: The slot the log opens after this one, chosen at the seal before
        #: the write that carries it (``LogWriter.seal``); None while open.
        self.next: int | None = None
        # Durable watermark: how much of this segment is already on disk
        # and unchanged since the last flush. Data and records are append-
        # only inside an open segment, so a flush — and the seal after it —
        # only needs to write the summary (when records were added) and the
        # data tail past the watermark. NVRAM absorption resets it; the
        # next slot's segment starts with its own.
        self.durable_data = 0
        self.durable_records = 0
        self.durable_summary_used = _HEADER_SIZE
        self.durable_next: int | None = None

    def fits(self, data_len: int, record_bytes: int) -> bool:
        """Can ``data_len`` data bytes plus ``record_bytes`` of records fit?"""
        return (
            self.used + data_len <= self.config.data_capacity
            and self.summary_used + record_bytes <= self._summary_capacity
        )

    def append_data(self, data: bytes) -> int:
        """Copy block data into the segment; returns its data offset.

        The single necessary copy of the write path: payload bytes land
        directly at their final position in the slot image.
        """
        if self.used + len(data) > self.config.data_capacity:
            raise ValueError("segment data area overflow")
        offset = self.used
        self.data[offset : offset + len(data)] = data
        self.used += len(data)
        return offset

    def append_record(self, record: Record) -> None:
        """Log a record into the summary (packed exactly once, here)."""
        end = self.summary_used + record.SIZE
        if end > self._summary_capacity:
            raise ValueError("segment summary overflow")
        record.pack_into(self._image_view, self.summary_used)
        self._crc = zlib.crc32(self._image_view[self.summary_used : end], self._crc)
        self.summary_used = end
        self.records.append(record)
        ts = record.timestamp
        if self._min_ts is None or ts < self._min_ts:
            self._min_ts = ts

    def _patch_summary_header(self) -> None:
        """Refresh the mutable header fields over the packed record bytes."""
        next_slot = NO_NEXT if self.next is None else self.next
        _SUMMARY_MUTABLE.pack_into(
            self._image_view, 4,
            len(self.records), self.summary_used - _HEADER_SIZE,
            _summary_crc(self._crc, next_slot), next_slot,
        )

    def read_data(self, offset: int, length: int) -> bytes:
        """Serve a block from the in-memory copy (no disk access)."""
        if offset + length > self.used:
            raise ValueError("read beyond filled portion of open segment")
        return bytes(self.data[offset : offset + length])

    @property
    def fill_fraction(self) -> float:
        """Data-area fill level, the partial-segment threshold input."""
        return self.used / self.config.data_capacity

    @property
    def is_empty(self) -> bool:
        return self.used == 0 and not self.records

    def image(self):
        """Summary + used data, padded to whole sectors — a zero-copy view.

        This is the single contiguous write LLD issues per segment (full
        or partial). The returned ``memoryview`` aliases the live buffer;
        consumers that retain image bytes past the call (the sector
        store, NVRAM, the crash-sim journal) copy at their boundary.
        """
        self._patch_summary_header()
        end = self._summary_capacity + self.used
        end += (-end) % SECTOR
        return self._image_view[:end]

    def blank_magic(self) -> None:
        """Make the summary unparseable where it stands: a sealed segment
        written like this occupies its slot without being part of the log,
        until :meth:`header_sector` is written over its first sector."""
        self._image_view[0:4] = bytes(4)

    def header_sector(self):
        """Sector 0 of the image, magic in place: header and first records.
        One sector, so writing it is atomic in the crash model: the commit
        of a segment whose body went out under a blanked magic, and of a
        seal that adds only ``next`` to a summary already on its slot."""
        self._image_view[0:4] = SUMMARY_MAGIC
        self._patch_summary_header()
        return self._image_view[:SECTOR]

    def min_timestamp(self) -> int | None:
        """Oldest record timestamp in the summary (None when empty)."""
        return self._min_ts

    # ------------------------------------------------------------------
    # Durable watermark (delta partial flushes)
    # ------------------------------------------------------------------

    @property
    def summary_dirty(self) -> bool:
        """Records were appended, or ``next`` set, since the last flush of
        this slot."""
        return len(self.records) > self.durable_records or self.next != self.durable_next

    @property
    def records_dirty(self) -> bool:
        """Records were appended since the last flush of this slot."""
        return len(self.records) > self.durable_records

    @property
    def data_dirty(self) -> bool:
        """Data bytes were appended past the durable watermark."""
        return self.used > self.durable_data

    @property
    def never_flushed(self) -> bool:
        """No part of this segment's current image is on disk yet."""
        return self.durable_data == 0 and self.durable_records == 0

    def mark_durable(self) -> None:
        """Record that everything appended so far is now on disk."""
        self.durable_data = self.used
        self.durable_records = len(self.records)
        self.durable_summary_used = self.summary_used
        self.durable_next = self.next

    def reset_durable(self) -> None:
        """Forget the watermark (slot content on disk is stale/absent)."""
        self.durable_data = 0
        self.durable_records = 0
        self.durable_summary_used = _HEADER_SIZE
        self.durable_next = None

    def summary_delta_image(self):
        """Summary prefix covering header + all record bytes, whole sectors.

        Record bytes already on disk are unchanged (records are append-
        only and immutable once logged), but the header — record count,
        body length, CRC — changes with every append, so the delta write
        starts at sector 0 and runs through the sector holding the last
        record byte: one contiguous write, much shorter than the full
        ``summary_capacity`` for lightly-filled summaries. Zero-copy: the
        record bytes are already packed in place, only the 16 mutable
        header bytes are patched.
        """
        self._patch_summary_header()
        nsectors = (self.summary_used + SECTOR - 1) // SECTOR
        return self._image_view[: nsectors * SECTOR]

    def data_tail(self):
        """New data past the watermark: ``(data-area sector, padded view)``.

        The tail starts at the sector containing the first non-durable
        byte; re-writing that boundary sector is safe because the durable
        bytes sharing it are unchanged (appends only). The final sector's
        padding is the zero-initialized data buffer itself — the returned
        ``memoryview`` costs no copy.
        """
        start_sector = self.durable_data // SECTOR
        start = start_sector * SECTOR
        end = self.used + (-self.used) % SECTOR
        return start_sector, self.data[start:end]
