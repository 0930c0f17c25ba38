"""Op streams are a pure function of the seed."""

import pytest

from benchmarks.e2e.workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_stream_depends_on_the_seed_and_nothing_else(name):
    cls = WORKLOADS[name]
    assert cls(1993, 0.1).stream() == cls(1993, 0.1).stream()
    assert cls(1993, 0.1).tail() == cls(1993, 0.1).tail()
    assert cls(1993, 0.1).stream() != cls(7, 0.1).stream()
    assert cls(1993, 0.1).total_ops() == cls(7, 0.1).total_ops()


def test_full_size_streams_have_enough_latency_samples():
    for cls in WORKLOADS.values():
        assert cls(1993).total_ops() >= 2_000  # >= 20 samples beyond p99
