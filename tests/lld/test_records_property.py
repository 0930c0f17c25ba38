"""Property-based round-trip tests for the segment-summary wire format.

Two contracts, checked with seeded (derandomized) hypothesis runs:

* encode -> decode is the identity for every record type over its full
  field domain — both record-at-a-time (``pack``/``unpack_record``) and
  through the summary container (``serialize_summary``/``parse_summary``).
* decoding adversarial bytes — truncations, bit flips, garbage — never
  raises out of ``parse_summary``; it degrades to ``None`` (skip the
  segment), which is what one-sweep recovery relies on after a torn or
  interrupted summary write.
* the codec equals the wire-format specification: the batch
  ``pack_into`` encoders produce byte-identical output to the per-entry
  reference ``pack``, and the batch and reference summary parsers agree
  on every input — valid, truncated, torn (spliced across two summaries),
  bit-flipped, or garbage. The reference implementations
  (``tests/lld/reference_codec.py``) are the oracle that pins the on-disk
  format.
"""


from hypothesis import given, settings, strategies as st

from repro.lld.records import (
    NONE_ID,
    BlockDeadRecord,
    BlockRecord,
    CommitRecord,
    LinkRecord,
    ListDeadRecord,
    ListFirstRecord,
    ListMetaRecord,
)
from repro.lld.segment import NO_NEXT, SUMMARY_MAGIC, parse_summary, serialize_summary

from tests.lld.reference_codec import (
    SUMMARY_HEADER,
    pack,
    parse_summary_legacy,
    serialize_summary_legacy,
    summary_crc,
    unpack_record,
)

U8 = st.integers(min_value=0, max_value=0xFF)
U32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
U64 = st.integers(min_value=0, max_value=0xFFFFFFFFFFFFFFFF)
# Id fields encode None as NONE_ID, so the domain excludes the sentinel.
IDS = st.integers(min_value=0, max_value=0xFFFFFFFE)
OPT_IDS = st.one_of(st.none(), IDS)
HEADER_FIELDS = {"timestamp": U64, "aru": U32, "flags": U8}

RECORDS = st.one_of(
    st.builds(LinkRecord, bid=IDS, successor=OPT_IDS, **HEADER_FIELDS),
    st.builds(
        BlockRecord,
        bid=IDS,
        segment=U32,
        offset=U32,
        stored_length=U32,
        length=U32,
        **HEADER_FIELDS,
    ),
    st.builds(BlockDeadRecord, bid=IDS, death_timestamp=U64, **HEADER_FIELDS),
    st.builds(ListFirstRecord, lid=IDS, first=OPT_IDS, **HEADER_FIELDS),
    st.builds(ListMetaRecord, lid=IDS, hints=U8, **HEADER_FIELDS),
    st.builds(ListDeadRecord, lid=IDS, death_timestamp=U64, **HEADER_FIELDS),
    st.builds(CommitRecord, **HEADER_FIELDS),
)

CAPACITY = 4096


@settings(derandomize=True, max_examples=200)
@given(record=RECORDS)
def test_single_record_round_trip(record):
    buf = pack(record)
    assert len(buf) == record.packed_size
    decoded, end = unpack_record(buf, 0)
    assert end == len(buf)
    assert decoded == record


@settings(derandomize=True, max_examples=100)
@given(records=st.lists(RECORDS, max_size=40))
def test_summary_round_trip(records):
    image = serialize_summary(records, CAPACITY)
    assert len(image) == CAPACITY
    assert parse_summary(image) == records


@settings(derandomize=True, max_examples=100)
@given(records=st.lists(RECORDS, max_size=40), cut=st.integers(min_value=0))
def test_truncated_summary_never_raises(records, cut):
    image = serialize_summary(records, CAPACITY)
    truncated = image[: cut % len(image)]
    result = parse_summary(truncated)
    assert result is None or result == records


@settings(derandomize=True, max_examples=150)
@given(
    records=st.lists(RECORDS, min_size=1, max_size=40),
    position=st.integers(min_value=0),
    bit=st.integers(min_value=0, max_value=7),
)
def test_bit_flipped_summary_never_raises(records, position, bit):
    image = bytearray(serialize_summary(records, CAPACITY))
    position %= len(image)
    image[position] ^= 1 << bit
    result = parse_summary(bytes(image))
    # A flip in the zero padding past the body is invisible; any flip in
    # the header or body must be rejected, never propagate an exception.
    assert result is None or result == records


@settings(derandomize=True, max_examples=100)
@given(garbage=st.binary(max_size=2 * CAPACITY))
def test_garbage_summary_never_raises(garbage):
    assert parse_summary(garbage) is None or isinstance(parse_summary(garbage), list)


@settings(derandomize=True, max_examples=100)
@given(
    records=st.lists(RECORDS, min_size=1, max_size=10),
    rtype=st.integers(min_value=8, max_value=255),
)
def test_crc_valid_body_with_unknown_type_degrades_to_skip(records, rtype):
    """A CRC-consistent body whose records don't parse must yield None.

    This models a format-version skew (or a torn write that happened to
    keep the checksum valid): the sweep must skip the segment, not die.
    """
    body = b"".join(pack(r) for r in records)
    # Corrupt the first record's type byte, then re-checksum so the CRC
    # gate passes and the failure happens inside record parsing.
    body = bytes([rtype]) + body[1:]
    header = SUMMARY_HEADER.pack(
        SUMMARY_MAGIC, len(records), len(body), summary_crc(body, NO_NEXT), NO_NEXT
    )
    image = (header + body).ljust(CAPACITY, b"\x00")
    assert parse_summary(image) is None


# ----------------------------------------------------------------------
# Old-vs-new codec equivalence (the batch pack_into generation must be
# byte-identical to the per-entry reference it replaced)
# ----------------------------------------------------------------------


@settings(derandomize=True, max_examples=200)
@given(record=RECORDS)
def test_pack_into_byte_identical_to_pack(record):
    buf = bytearray(record.SIZE)
    end = record.pack_into(buf, 0)
    assert end == record.SIZE == record.packed_size
    assert bytes(buf) == pack(record)


@settings(derandomize=True, max_examples=100)
@given(records=st.lists(RECORDS, max_size=40))
def test_batch_summary_byte_identical_to_legacy(records):
    assert serialize_summary(records, CAPACITY) == serialize_summary_legacy(
        records, CAPACITY
    )


def test_summary_overflow_identical_to_legacy():
    from repro.lld.records import BlockRecord as BR
    import pytest

    records = [BR(bid=i) for i in range(1000)]
    with pytest.raises(ValueError) as batch_err:
        serialize_summary(records, CAPACITY)
    with pytest.raises(ValueError) as legacy_err:
        serialize_summary_legacy(records, CAPACITY)
    assert str(batch_err.value) == str(legacy_err.value)


@settings(derandomize=True, max_examples=100)
@given(records=st.lists(RECORDS, max_size=40))
def test_parsers_agree_on_valid_summaries(records):
    image = serialize_summary(records, CAPACITY)
    assert parse_summary(image) == parse_summary_legacy(image) == records
    # A memoryview (recovery's zero-copy sweep input) decodes identically.
    assert parse_summary(memoryview(image)) == records


@settings(derandomize=True, max_examples=100)
@given(records=st.lists(RECORDS, max_size=40), cut=st.integers(min_value=0))
def test_parsers_agree_on_truncated_summaries(records, cut):
    image = serialize_summary(records, CAPACITY)
    truncated = image[: cut % len(image)]
    assert parse_summary(truncated) == parse_summary_legacy(truncated)


@settings(derandomize=True, max_examples=100)
@given(
    old=st.lists(RECORDS, min_size=1, max_size=40),
    new=st.lists(RECORDS, min_size=1, max_size=40),
    tear=st.integers(min_value=1),
)
def test_parsers_agree_on_torn_summaries(old, new, tear):
    """A torn write — new summary's prefix over the old one's suffix.

    This is the crash shape torn_write_protection exists for; whatever
    verdict the parser reaches (usually reject, occasionally a consistent
    read of one generation), both generations must reach the same one and
    neither may raise.
    """
    old_image = serialize_summary(old, CAPACITY)
    new_image = serialize_summary(new, CAPACITY)
    torn = new_image[: tear % CAPACITY] + old_image[tear % CAPACITY :]
    assert parse_summary(torn) == parse_summary_legacy(torn)


@settings(derandomize=True, max_examples=150)
@given(
    records=st.lists(RECORDS, min_size=1, max_size=40),
    position=st.integers(min_value=0),
    bit=st.integers(min_value=0, max_value=7),
)
def test_parsers_agree_on_bit_flips(records, position, bit):
    image = bytearray(serialize_summary(records, CAPACITY))
    image[position % len(image)] ^= 1 << bit
    flipped = bytes(image)
    assert parse_summary(flipped) == parse_summary_legacy(flipped)


@settings(derandomize=True, max_examples=100)
@given(garbage=st.binary(max_size=2 * CAPACITY))
def test_parsers_agree_on_garbage(garbage):
    assert parse_summary(garbage) == parse_summary_legacy(garbage)
