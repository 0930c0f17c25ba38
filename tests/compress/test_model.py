"""Tests for the compression bandwidth/pipeline model."""

import pytest

from repro.compress import CompressionModel
from repro.compress.model import COMPRESS_BW, DECOMPRESS_BW
from repro.compress.data import compressible_bytes
from repro.sim import VirtualClock


def test_serial_compression_charges_time():
    clock = VirtualClock()
    model = CompressionModel(clock)
    model.compress_bytes(b"a" * 2048)
    assert clock.now == pytest.approx(2048 / COMPRESS_BW)


def test_decompression_charges_output_time():
    clock = VirtualClock()
    model = CompressionModel(clock)
    data = compressible_bytes(1024, seed=2)
    packed = model.compress_bytes(data)
    t_before = clock.now
    out = model.decompress_bytes(packed, len(data))
    assert out == data
    assert clock.now - t_before == pytest.approx(1024 / DECOMPRESS_BW)


def test_pipelined_compression_overlaps():
    clock = VirtualClock()
    model = CompressionModel(clock)
    model.compress_bytes(b"b" * 1024, pipelined=True)
    # No wait charged yet; the pipeline holds the backlog.
    assert clock.now == 0.0
    model.drain_pipeline()
    assert clock.now == pytest.approx(1024 / COMPRESS_BW)


def test_achieved_ratio_tracks_aggregate():
    model = CompressionModel(VirtualClock())
    data = compressible_bytes(32 * 1024, ratio=0.6, seed=9)
    model.compress_bytes(data)
    assert 0.4 <= model.achieved_ratio <= 0.8


def test_roundtrip_through_model():
    model = CompressionModel(VirtualClock())
    data = compressible_bytes(8192, seed=11)
    packed = model.compress_bytes(data)
    assert model.decompress_bytes(packed, len(data)) == data
