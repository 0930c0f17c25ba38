"""Round-trip tests for segment-summary records (tests/lld/reference_codec.py)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lld.records import (
    FLAG_CLEANER,
    FLAG_COMPRESSED,
    BlockDeadRecord,
    BlockRecord,
    CommitRecord,
    LinkRecord,
    ListDeadRecord,
    ListFirstRecord,
    ListMetaRecord,
    decode_records,
)

from tests.lld.reference_codec import pack, unpack_record

ids = st.integers(min_value=0, max_value=0xFFFFFFFE)
opt_ids = st.one_of(st.none(), ids)
timestamps = st.integers(min_value=0, max_value=2**60)


def roundtrip(record):
    """Through the reference codec, checked against the batch decoder."""
    packed = pack(record)
    assert len(packed) == record.packed_size
    out, consumed = unpack_record(packed, 0)
    assert consumed == len(packed)
    assert decode_records(packed, 0, len(packed), 1) == ([out], len(packed))
    return out


@given(ids, opt_ids, timestamps)
def test_link_roundtrip(bid, succ, ts):
    rec = LinkRecord(bid=bid, successor=succ)
    rec.timestamp = ts
    out = roundtrip(rec)
    assert (out.bid, out.successor, out.timestamp) == (bid, succ, ts)


@given(ids, ids, st.integers(min_value=0, max_value=2**20), timestamps)
def test_block_roundtrip(bid, seg, offset, ts):
    rec = BlockRecord(bid=bid, segment=seg, offset=offset, stored_length=100, length=200)
    rec.timestamp = ts
    rec.flags = FLAG_COMPRESSED
    out = roundtrip(rec)
    assert out.bid == bid
    assert out.segment == seg
    assert out.offset == offset
    assert out.stored_length == 100
    assert out.length == 200
    assert out.compressed


def test_block_flags():
    rec = BlockRecord(bid=1)
    assert not rec.compressed
    rec.flags = FLAG_COMPRESSED | FLAG_CLEANER
    assert rec.compressed


@given(ids, timestamps, timestamps)
def test_block_dead_roundtrip(bid, death, ts):
    rec = BlockDeadRecord(bid=bid, death_timestamp=death)
    rec.timestamp = ts
    out = roundtrip(rec)
    assert (out.bid, out.death_timestamp, out.timestamp) == (bid, death, ts)


@given(ids, opt_ids)
def test_list_first_roundtrip(lid, first):
    out = roundtrip(ListFirstRecord(lid=lid, first=first))
    assert (out.lid, out.first) == (lid, first)


@given(ids, st.integers(min_value=0, max_value=7))
def test_list_meta_roundtrip(lid, hints):
    out = roundtrip(ListMetaRecord(lid=lid, hints=hints))
    assert (out.lid, out.hints) == (lid, hints)


@given(ids, timestamps)
def test_list_dead_roundtrip(lid, death):
    out = roundtrip(ListDeadRecord(lid=lid, death_timestamp=death))
    assert (out.lid, out.death_timestamp) == (lid, death)


def test_commit_roundtrip():
    rec = CommitRecord()
    rec.aru = 42
    out = roundtrip(rec)
    assert isinstance(out, CommitRecord)
    assert out.aru == 42


def test_unpack_truncated_header():
    with pytest.raises(ValueError):
        unpack_record(b"\x01\x00", 0)


def test_unpack_truncated_payload():
    packed = pack(LinkRecord(bid=1, successor=2))
    with pytest.raises(ValueError):
        unpack_record(packed[:-2], 0)


def test_unpack_unknown_type():
    bogus = bytes([99]) + pack(LinkRecord(bid=1))[1:]
    with pytest.raises(ValueError):
        unpack_record(bogus, 0)


def test_unpack_sequence():
    records = [LinkRecord(bid=i, successor=i + 1) for i in range(5)]
    buf = b"".join(pack(r) for r in records)
    offset = 0
    for expected in records:
        record, offset = unpack_record(buf, offset)
        assert record.bid == expected.bid
    assert offset == len(buf)
