"""Shared fixtures for LLD tests: small disks, fast configs."""

import pytest

from repro.disk import SimulatedDisk, fast_test_disk
from repro.lld import LLD, LLDConfig
from repro.sim import VirtualClock


def small_config(**overrides) -> LLDConfig:
    """A 64 KB-segment config that keeps tests fast but realistic."""
    defaults = dict(
        segment_size=64 * 1024,
        summary_capacity=4096,
        block_size=4096,
        checkpoint_slots=1,
    )
    defaults.update(overrides)
    return LLDConfig(**defaults)


def make_lld(capacity_mb: int = 4, nvram=None, **config_overrides) -> LLD:
    """A fresh, initialized LLD on a fresh simulated disk."""
    disk = SimulatedDisk(fast_test_disk(capacity_mb=capacity_mb), VirtualClock())
    lld = LLD(disk, small_config(**config_overrides), nvram=nvram)
    lld.initialize()
    return lld


def reopen(lld: LLD, after_crash: bool = True) -> LLD:
    """Simulate crash (or clean shutdown) and bring up a new instance."""
    if after_crash:
        lld.crash()
    else:
        lld.shutdown()
    fresh = LLD(lld.disk, lld.config)
    fresh.initialize()
    return fresh


@pytest.fixture
def lld() -> LLD:
    return make_lld()
