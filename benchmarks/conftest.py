"""Shared fixtures for the paper-reproduction benchmarks.

Each benchmark regenerates one table or figure from the paper's evaluation.
Workloads are scaled copies of the paper's (default 1/10th; set
``REPRO_BENCH_SCALE`` to change). All throughput numbers are *simulated*
time from the virtual clock; pytest-benchmark additionally records the wall
time of running the simulation itself.
"""

import pytest

from repro.bench import BuildSpec, default_scale


@pytest.fixture(scope="session")
def spec() -> BuildSpec:
    return BuildSpec.from_scale(default_scale())


def emit(text: str) -> None:
    """Print a results table under pytest's captured output."""
    print()
    print(text)


def read_data_area(lld, slot: int) -> bytes:
    """One long read of a slot's whole data area: how a reader that fetches
    a segment at a time pays for it."""
    config = lld.config
    lba = lld.layout.slot_lba(slot) + config.summary_sectors
    return lld.disk.read(lba, config.sectors_per_segment - config.summary_sectors)
