"""``_xor_buffers`` against a reference that spells the rule out: the same
bytes for any mix of ``bytes``, ``bytearray``, ``memoryview`` (whole, or a
slice of a larger buffer) and ``None`` (blank) operands, a lone operand
returned as it is, none at all as ``None`` — whatever the function does
to convert its operands."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.volume.volume import _xor_buffers


def reference(buffers):
    """Byte by byte: no int, no buffer protocol."""
    operands = [bytes(buf) for buf in buffers if buf is not None]
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
