"""Segment-summary records: the on-disk metadata log of LLD.

Every record carries a logical timestamp (a monotonically increasing
operation counter — the paper's "timestamp") and the id of the atomic
recovery unit it belongs to (0 = not part of an explicit ARU). Records
express *absolute* state, exactly like the paper's link tuples ("a
timestamp, a block number, and the new value for the successor field"), so
recovery is last-writer-wins per key:

=============  =========================================================
``LINK``       new successor value for a block (also implies existence)
``BLOCK``      new physical location/length of a block's data
``BLOCK_DEAD`` tombstone: the block number was freed
``LIST_FIRST`` new head block of a list (also implies existence)
``LIST_META``  list exists, with its clustering/compression hints
``LIST_DEAD``  tombstone: the list was freed
``COMMIT``     an explicit ARU committed (paper's EndARU tag)
=============  =========================================================

The codec — :meth:`Record.pack_into` / :func:`encode_records_into` /
:func:`decode_records` — uses one precompiled combined
:class:`struct.Struct` per record type (header + payload in a single C
call) writing straight into a caller-owned buffer, so a whole summary is
encoded or decoded in one pass with no intermediate ``bytes`` objects.
The wire format is spelled out field group by field group in
``tests/lld/reference_codec.py``, the oracle the property tests hold this
codec byte-identical to.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

#: Wire encoding of "no block/list" in id fields.
NONE_ID = 0xFFFFFFFF

TYPE_LINK = 1
TYPE_BLOCK = 2
TYPE_BLOCK_DEAD = 3
TYPE_LIST_FIRST = 4
TYPE_LIST_META = 5
TYPE_LIST_DEAD = 6
TYPE_COMMIT = 7

FLAG_COMPRESSED = 0x01
FLAG_CLEANER = 0x02  # written by the cleaner/reorganizer, not the file system


def _enc(value: int | None) -> int:
    return NONE_ID if value is None else value


@dataclass
class Record:
    """Base record; concrete types define ``TYPE`` and payload packing."""

    timestamp: int = 0
    aru: int = 0
    flags: int = 0

    TYPE = 0
    #: The payload after the ``<BBIQ`` header (type, flags, ARU, timestamp).
    _PAYLOAD = struct.Struct("<")
    #: Combined header+payload Struct, memoized per class at import time
    #: (see ``_finalize_wire``); one ``pack_into``/``unpack_from`` call
    #: covers the whole record.
    _WIRE = struct.Struct("<BBIQ")
    SIZE = _WIRE.size

    def _payload_values(self) -> tuple:
        return ()

    def pack_into(self, buf, offset: int) -> int:
        """Encode into ``buf`` with one combined-Struct write: the header
        and the payload, which little-endian formats concatenate without
        padding. Returns the offset past the record.
        """
        wire = self._WIRE
        wire.pack_into(
            buf,
            offset,
            self.TYPE,
            self.flags,
            self.aru,
            self.timestamp,
            *self._payload_values(),
        )
        return offset + wire.size

    @property
    def packed_size(self) -> int:
        return self._WIRE.size


@dataclass
class LinkRecord(Record):
    """Link tuple: block ``bid`` now has successor ``successor``."""

    bid: int = 0
    successor: int | None = None

    TYPE = TYPE_LINK
    _PAYLOAD = struct.Struct("<II")

    def _payload_values(self) -> tuple:
        return (self.bid, _enc(self.successor))


@dataclass
class BlockRecord(Record):
    """Block data written: ``bid`` lives at (``segment``, ``offset``)."""

    bid: int = 0
    segment: int = 0
    offset: int = 0
    stored_length: int = 0
    length: int = 0

    TYPE = TYPE_BLOCK
    _PAYLOAD = struct.Struct("<IIIII")

    def _payload_values(self) -> tuple:
        return (self.bid, self.segment, self.offset, self.stored_length, self.length)

    @property
    def compressed(self) -> bool:
        return bool(self.flags & FLAG_COMPRESSED)


@dataclass
class BlockDeadRecord(Record):
    """Tombstone: block number ``bid`` was freed at ``death_timestamp``.

    ``death_timestamp`` survives cleaner re-logging so the tombstone-drop
    rule (no summary may still hold records older than the death) stays
    anchored to the original deletion.
    """

    bid: int = 0
    death_timestamp: int = 0

    TYPE = TYPE_BLOCK_DEAD
    _PAYLOAD = struct.Struct("<IQ")

    def _payload_values(self) -> tuple:
        return (self.bid, self.death_timestamp)


@dataclass
class ListFirstRecord(Record):
    """List ``lid`` now starts at block ``first``."""

    lid: int = 0
    first: int | None = None

    TYPE = TYPE_LIST_FIRST
    _PAYLOAD = struct.Struct("<II")

    def _payload_values(self) -> tuple:
        return (self.lid, _enc(self.first))


@dataclass
class ListMetaRecord(Record):
    """List ``lid`` exists with packed hints ``hints``."""

    lid: int = 0
    hints: int = 0

    TYPE = TYPE_LIST_META
    _PAYLOAD = struct.Struct("<IB")

    def _payload_values(self) -> tuple:
        return (self.lid, self.hints)


@dataclass
class ListDeadRecord(Record):
    """Tombstone: list ``lid`` was freed at ``death_timestamp``."""

    lid: int = 0
    death_timestamp: int = 0

    TYPE = TYPE_LIST_DEAD
    _PAYLOAD = struct.Struct("<IQ")

    def _payload_values(self) -> tuple:
        return (self.lid, self.death_timestamp)


@dataclass
class CommitRecord(Record):
    """Explicit ARU ``aru`` committed (the paper's EndARU marker)."""

    TYPE = TYPE_COMMIT
    _PAYLOAD = struct.Struct("<")

    def _payload_values(self) -> tuple:
        return ()


_RECORD_TYPES: dict[int, type[Record]] = {
    cls.TYPE: cls
    for cls in (
        LinkRecord,
        BlockRecord,
        BlockDeadRecord,
        ListFirstRecord,
        ListMetaRecord,
        ListDeadRecord,
        CommitRecord,
    )
}


def _finalize_wire() -> None:
    """Memoize one combined header+payload Struct per record class."""
    for cls in _RECORD_TYPES.values():
        payload_fmt = cls._PAYLOAD.format.lstrip("<")
        cls._WIRE = struct.Struct("<BBIQ" + payload_fmt)
        cls.SIZE = cls._WIRE.size


_finalize_wire()


# ----------------------------------------------------------------------
# Batch codec
# ----------------------------------------------------------------------
#
# Decoding dispatches on the type byte through a dense table of
# (combined Struct, maker) pairs. Each maker builds the record from the
# full unpacked tuple ``(type, flags, aru, timestamp, *payload)`` with a
# single positional dataclass call — no kwargs, no post-hoc attribute
# assignment. Dataclass field order is (timestamp, aru, flags, *payload
# fields), fixed by the class definitions above.


def _make_link(v) -> LinkRecord:
    return LinkRecord(v[3], v[2], v[1], v[4], None if v[5] == NONE_ID else v[5])


def _make_block(v) -> BlockRecord:
    return BlockRecord(v[3], v[2], v[1], v[4], v[5], v[6], v[7], v[8])


def _make_block_dead(v) -> BlockDeadRecord:
    return BlockDeadRecord(v[3], v[2], v[1], v[4], v[5])


def _make_list_first(v) -> ListFirstRecord:
    return ListFirstRecord(v[3], v[2], v[1], v[4], None if v[5] == NONE_ID else v[5])


def _make_list_meta(v) -> ListMetaRecord:
    return ListMetaRecord(v[3], v[2], v[1], v[4], v[5])


def _make_list_dead(v) -> ListDeadRecord:
    return ListDeadRecord(v[3], v[2], v[1], v[4], v[5])


def _make_commit(v) -> CommitRecord:
    return CommitRecord(v[3], v[2], v[1])


#: Dense type-byte dispatch: ``_DECODERS[type]`` is (wire Struct, maker)
#: or None for unknown types.
_DECODERS: list[tuple[struct.Struct, object] | None] = [None] * 256
for _cls, _maker in (
    (LinkRecord, _make_link),
    (BlockRecord, _make_block),
    (BlockDeadRecord, _make_block_dead),
    (ListFirstRecord, _make_list_first),
    (ListMetaRecord, _make_list_meta),
    (ListDeadRecord, _make_list_dead),
    (CommitRecord, _make_commit),
):
    _DECODERS[_cls.TYPE] = (_cls._WIRE, _maker)
del _cls, _maker


def encode_records_into(buf, offset: int, records) -> int:
    """Pack ``records`` back to back into ``buf`` starting at ``offset``.

    Returns the offset past the last record. The caller is responsible
    for capacity (sum the ``SIZE`` class constants); output bytes are
    identical to concatenating :meth:`Record.pack` results.
    """
    for record in records:
        offset = record.pack_into(buf, offset)
    return offset


def decode_records(buf, offset: int, end: int, nrecords: int) -> tuple[list[Record], int]:
    """Decode ``nrecords`` consecutive records from ``buf[offset:end]``.

    One pass, one combined-Struct ``unpack_from`` per record. ``buf`` may
    be any buffer object (bytes, bytearray, memoryview) — no slicing, no
    intermediate copies. Raises :class:`ValueError` on truncation or an
    unknown type byte.
    """
    out: list[Record] = []
    append = out.append
    decoders = _DECODERS
    for _ in range(nrecords):
        if offset >= end:
            raise ValueError("truncated record header")
        entry = decoders[buf[offset]]
        if entry is None:
            raise ValueError(f"unknown record type {buf[offset]}")
        wire, make = entry
        next_offset = offset + wire.size
        if next_offset > end:
            raise ValueError("truncated record payload")
        append(make(wire.unpack_from(buf, offset)))
        offset = next_offset
    return out, offset
