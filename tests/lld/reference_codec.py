"""The per-entry reference codec: the summary wire format, spelled out.

One ``struct`` call per field group, header and payload packed apart and
joined — the readable specification of the on-disk format, and the oracle
``repro.lld``'s batch codec (``Record.pack_into`` /
``encode_records_into`` / ``decode_records``, ``serialize_summary`` /
``parse_summary``) is held byte-identical to by ``test_records.py``,
``test_records_property.py`` and ``test_segment.py``. No code under
``src/`` calls it.

A record is ``<BBIQ`` (type, flags, ARU, timestamp) followed by its
class's ``_PAYLOAD`` (the dataclass fields after the three header ones,
in order; an id field that may be None is stored as ``NONE_ID``). A
summary is ``<4sIIII`` (``SUMMARY_MAGIC``, record count, body length,
CRC-32 of the body followed by the ``next`` field, ``next``: the slot the
log opened after this segment, ``NO_NEXT`` for none), the records back to
back, zero padding to its capacity.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import fields

from repro.lld.records import (
    NONE_ID,
    BlockDeadRecord,
    BlockRecord,
    CommitRecord,
    LinkRecord,
    ListDeadRecord,
    ListFirstRecord,
    ListMetaRecord,
    Record,
)
from repro.lld.segment import NO_NEXT, SUMMARY_MAGIC

HEADER = struct.Struct("<BBIQ")  # type, flags, aru, timestamp
SUMMARY_HEADER = struct.Struct("<4sIIII")  # magic, nrecords, body_len, crc32, next
NEXT = struct.Struct("<I")

TYPES = {
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

#: Payload fields whose ``None`` travels as ``NONE_ID``.
OPTIONAL_IDS = ("successor", "first")


def pack(record: Record) -> bytes:
    """Encode one record: header + payload, concatenated."""
    head = HEADER.pack(record.TYPE, record.flags, record.aru, record.timestamp)
    return head + record._PAYLOAD.pack(*record._payload_values())


def unpack_record(buf: bytes, offset: int) -> tuple[Record, int]:
    """Decode one record at ``offset``; returns (record, next offset)."""
    if offset + HEADER.size > len(buf):
        raise ValueError("truncated record header")
    rtype, flags, aru, timestamp = HEADER.unpack_from(buf, offset)
    cls = TYPES.get(rtype)
    if cls is None:
        raise ValueError(f"unknown record type {rtype}")
    offset += HEADER.size
    payload = cls._PAYLOAD
    if offset + payload.size > len(buf):
        raise ValueError("truncated record payload")
    names = [f.name for f in fields(cls)][3:]  # after timestamp, aru, flags
    values = {
        name: None if name in OPTIONAL_IDS and value == NONE_ID else value
        for name, value in zip(names, payload.unpack_from(buf, offset))
    }
    record = cls(timestamp=timestamp, aru=aru, flags=flags, **values)
    return record, offset + payload.size


def summary_crc(body: bytes, next_slot: int) -> int:
    """The header's CRC: over the body, then the ``next`` field."""
    return zlib.crc32(body + NEXT.pack(next_slot))


def serialize_summary_legacy(
    records: list[Record], capacity: int, next_slot: int = NO_NEXT
) -> bytes:
    """Encode a summary: pack each record, join, pad to ``capacity``."""
    body = b"".join(pack(record) for record in records)
    header = SUMMARY_HEADER.pack(
        SUMMARY_MAGIC, len(records), len(body), summary_crc(body, next_slot), next_slot
    )
    image = header + body
    if len(image) > capacity:
        raise ValueError(f"summary of {len(image)} bytes exceeds capacity {capacity}")
    return image + b"\x00" * (capacity - len(image))


def parse_summary_legacy(image: bytes) -> list[Record] | None:
    """Decode a summary, one ``unpack_record`` per record; None for bytes
    that are not a whole, checksummed summary."""
    if len(image) < SUMMARY_HEADER.size:
        return None
    magic, nrecords, body_len, crc, next_slot = SUMMARY_HEADER.unpack_from(image, 0)
    if magic != SUMMARY_MAGIC:
        return None
    start = SUMMARY_HEADER.size
    if start + body_len > len(image):
        return None
    body = bytes(image[start : start + body_len])
    if summary_crc(body, next_slot) != crc:
        return None
    records: list[Record] = []
    offset = 0
    try:
        for _ in range(nrecords):
            record, offset = unpack_record(body, offset)
            records.append(record)
    except (ValueError, struct.error):
        return None
    if offset != body_len:
        return None
    return records
