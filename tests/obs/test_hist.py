"""LatencyHistogram: bounded buckets, quantiles, merge/subtract, round-trip."""

import math
import random

import pytest

from repro.obs.hist import SUBBUCKETS, LatencyHistogram, is_histogram_dict


def test_empty_histogram():
    hist = LatencyHistogram()
    assert not hist
    assert len(hist) == 0
    assert hist.quantile(0.5) == 0.0
    assert hist.mean == 0.0
    assert "empty" in repr(hist)


def test_record_tracks_exact_extrema_and_mean():
    hist = LatencyHistogram()
    for value in (0.010, 0.020, 0.030):
        hist.record(value)
    assert hist.count == 3
    assert hist.min == 0.010
    assert hist.max == 0.030
    assert abs(hist.mean - 0.020) < 1e-12


def test_zero_and_negative_samples_land_in_zero_bucket():
    hist = LatencyHistogram()
    hist.record(0.0)
    hist.record(-1.0)
    hist.record(0.005)
    assert hist.zeros == 2
    assert hist.count == 3
    assert hist.min == 0.0
    # Low quantiles hit the zero bucket; high ones the real sample.
    assert hist.quantile(0.0) == 0.0
    assert hist.quantile(0.99) > 0.0


def test_quantile_relative_error_is_within_a_bucket():
    rng = random.Random(7)
    values = [rng.uniform(1e-4, 1.0) for _ in range(5000)]
    hist = LatencyHistogram()
    for v in values:
        hist.record(v)
    values.sort()
    width = 2.0 ** (1.0 / SUBBUCKETS) - 1.0
    for q in (0.5, 0.9, 0.99):
        exact = values[round(q * (len(values) - 1))]
        approx = hist.quantile(q)
        assert abs(approx - exact) / exact <= width, (q, exact, approx)


def test_quantiles_never_exceed_tracked_extrema():
    # A bucket representative can overshoot the true max; the report must not.
    hist = LatencyHistogram()
    for v in (0.001, 0.001, 1.7325):
        hist.record(v)
    for q in (0.0, 0.5, 0.9, 0.99, 1.0):
        assert hist.min <= hist.quantile(q) <= hist.max or hist.quantile(q) == 0.0
    assert hist.quantile(0.99) <= hist.max
    assert hist.quantile(1.0) == hist.max


def test_memory_is_bounded_by_index_clamp():
    hist = LatencyHistogram()
    for exponent in range(-400, 400):  # far beyond the clamp range
        hist.record(2.0**exponent)
    assert hist.count == 800
    assert len(hist.buckets) <= (64 * SUBBUCKETS) * 2 + 1
    assert min(hist.buckets) == -64 * SUBBUCKETS
    assert max(hist.buckets) == 64 * SUBBUCKETS


def test_merge_is_count_exact():
    a, b = LatencyHistogram(), LatencyHistogram()
    for v in (0.001, 0.002):
        a.record(v)
    for v in (0.004, 0.008):
        b.record(v)
    b.record(0.0)
    merged = LatencyHistogram.from_dict(a.as_dict()).merge(b)
    assert merged.count == 5
    assert merged.zeros == 1
    assert merged.min == 0.0
    assert merged.max == 0.008
    assert abs(merged.total - (a.total + b.total)) < 1e-15


def test_subtract_recovers_the_window():
    hist = LatencyHistogram()
    for v in (0.001, 0.002):
        hist.record(v)
    before = LatencyHistogram.from_dict(hist.as_dict())
    for v in (0.100, 0.200, 0.400):
        hist.record(v)
    window = hist.subtract(before)
    assert window.count == 3
    # Window quantiles describe only post-snapshot samples.
    assert window.quantile(0.5) == pytest.approx(0.200, rel=0.05)
    assert window.quantile(0.0) > 0.002  # the old samples are gone
    # Subtracting a non-subset clamps at zero rather than going negative.
    degenerate = before.subtract(hist)
    assert degenerate.count == 0
    assert not degenerate.buckets


def test_as_dict_from_dict_round_trip():
    hist = LatencyHistogram()
    for v in (0.0, 0.003, 0.009, 0.027):
        hist.record(v)
    payload = hist.as_dict()
    assert is_histogram_dict(payload)
    assert payload["p50"] <= payload["p99"] <= payload["max"]
    assert all(isinstance(k, str) for k in payload["buckets"])
    clone = LatencyHistogram.from_dict(payload)
    assert clone.count == hist.count
    assert clone.zeros == hist.zeros
    assert clone.buckets == hist.buckets
    assert clone.as_dict() == payload


def test_from_dict_empty_payload():
    clone = LatencyHistogram.from_dict({})
    assert clone.count == 0
    assert clone.min == math.inf
    assert clone.quantile(0.99) == 0.0


def test_is_histogram_dict_rejects_lookalikes():
    assert not is_histogram_dict({"count": 3})
    assert not is_histogram_dict({"buckets": {}})
    assert not is_histogram_dict({"count": 3, "buckets": [1, 2]})
    assert not is_histogram_dict(42)
    assert is_histogram_dict(LatencyHistogram().as_dict())
