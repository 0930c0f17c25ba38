"""``_xor_buffers`` against a reference that spells the rule out: the same
bytes for any mix of ``bytes``, ``bytearray``, ``memoryview`` (whole, or a
slice of a larger buffer), a stripe cache answer's views end to end and
``None`` (blank) operands, a lone operand returned as it is, none at all
as ``None`` — whatever the function does to convert its operands, and
however its windows fall — and into a destination that may be one of the
operands."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.volume.volume import XOR_WINDOW, _xor_buffers


def flat(buf) -> bytes:
    """An operand's bytes: a list of views stands for its parts end to end."""
    return b"".join(bytes(part) for part in buf) if isinstance(buf, list) else bytes(buf)


def reference(buffers):
    """Byte by byte: no int, no buffer protocol."""
    operands = [flat(buf) for buf in buffers if buf is not None]
    if len(operands) < 2:
        return next((buf for buf in buffers if buf is not None), None)
    out = bytearray(len(operands[0]))
    for buf in operands:
        for i, byte in enumerate(buf):
            out[i] ^= byte
    return bytes(out)


KINDS = ("bytes", "bytearray", "memoryview", "slice", "none")


def shaped(raw: bytes, kind: str):
    if kind == "bytes":
        return raw
    if kind == "bytearray":
        return bytearray(raw)
    if kind == "memoryview":
        return memoryview(raw)
    if kind == "slice":  # a view into a larger buffer, as a request's payload is
        return memoryview(b"\xff" + raw + b"\xff")[1:-1]
    return None


@st.composite
def operands(draw):
    size = draw(st.sampled_from([1, 7, 512, 4096]))
    count = draw(st.integers(min_value=0, max_value=5))
    raws = [draw(st.binary(min_size=size, max_size=size)) for _ in range(count)]
    kinds = [draw(st.sampled_from(KINDS)) for _ in range(count)]
    return [shaped(raw, kind) for raw, kind in zip(raws, kinds)]


@given(operands())
@settings(max_examples=300, deadline=None)
def test_the_same_bytes_as_the_reference(buffers):
    got, want = _xor_buffers(buffers), reference(buffers)
    if want is None:
        assert got is None
    elif len([buf for buf in buffers if buf is not None]) == 1:
        assert got is want  # a lone operand comes back as it is
    else:
        assert isinstance(got, bytes) and got == bytes(want)


#: Sizes either side of a window boundary, and one that ends 7 bytes into
#: its fourth window.
WINDOWED = [XOR_WINDOW - 512, XOR_WINDOW + 512, 3 * XOR_WINDOW + 7]
WINDOWED_KINDS = ("bytes", "slice", "preread", "cache", "none")


def preread(raw: bytes) -> memoryview:
    """A member read landed in a reused buffer larger than itself."""
    view = memoryview(bytearray(b"\xaa" * (len(raw) + 4096)))[: len(raw)]
    view[:] = raw
    return view


def cache_views(raw: bytes, cuts: list[int]) -> list[memoryview]:
    """A stripe cache answer: views into larger extents, cut where an
    extent or a blank run ends."""
    edges = [0, *sorted(set(c for c in cuts if 0 < c < len(raw))), len(raw)]
    return [memoryview(b"\x55" + raw[a:b] + b"\x55")[1:-1] for a, b in zip(edges, edges[1:])]


@st.composite
def windowed_operands(draw):
    """``(size, operands)``: two to four operands of one windowed size, of
    any kind — a reused buffer and a stripe cache answer among them."""
    size = draw(st.sampled_from(WINDOWED))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    kinds = draw(st.lists(st.sampled_from(WINDOWED_KINDS), min_size=2, max_size=4))
    buffers = []
    for kind in kinds:
        raw = rng.randbytes(size)
        if kind == "preread":
            buffers.append(preread(raw))
        elif kind == "cache":
            cuts = [rng.randrange(1, size) for _ in range(rng.randrange(5))]
            buffers.append(cache_views(raw, cuts))
        else:
            buffers.append(shaped(raw, kind))
    return size, buffers


@given(windowed_operands())
@settings(max_examples=25, deadline=None)
def test_window_boundaries_and_cache_views(case):
    """Operands across window boundaries, in reused buffers and as cache
    views: the reference's bytes, as new ``bytes`` whenever there is
    anything to XOR (a lone cache answer is joined)."""
    _size, buffers = case
    got, want = _xor_buffers(buffers), reference(buffers)
    present = [buf for buf in buffers if buf is not None]
    if want is None:
        assert got is None
    elif len(present) == 1 and not isinstance(present[0], list):
        assert got is present[0]
    else:
        assert isinstance(got, bytes) and got == flat(want)


@given(windowed_operands(), st.integers(min_value=0, max_value=4))
@settings(max_examples=25, deadline=None)
def test_into_a_destination_that_may_be_an_operand(case, at):
    """Parity lands in a reused buffer — in place over one of the row's own
    pre-read buffers when ``at`` picks an operand: every window is read
    from every operand before it is written."""
    size, buffers = case
    dest = preread(random.Random(at).randbytes(size))
    if at < len(buffers):
        buffers[at] = dest
    want = reference(buffers)
    got = _xor_buffers(buffers, dest)
    if want is None:
        assert got is None
    else:  # a lone operand is copied: the caller may patch ``dest`` next
        assert got is dest and bytes(got) == flat(want)
