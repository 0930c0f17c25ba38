"""§5.2: LLD recovery vs Loge recovery.

Paper: "recovery in our LLD implementation is at least one order of
magnitude faster than in Loge, since LLD only reads the segment summaries"
while Loge must scan the whole disk for its per-block headers.
"""

import pytest

from repro.bench import BuildSpec
from repro.disk import SimulatedDisk, hp_c3010
from repro.ld.hints import LIST_HEAD
from repro.lld import LLD, LLDConfig
from repro.loge import LogeDisk
from repro.sim import VirtualClock
from benchmarks.conftest import emit


def write_blocks(ld, count: int, payload: bytes) -> list[int]:
    lid = ld.new_list()
    bids = []
    prev = LIST_HEAD
    for _ in range(count):
        bid = ld.new_block(lid, prev)
        ld.write(bid, payload)
        bids.append(bid)
        prev = bid
    return bids


def run(partition_mb: int):
    payload = b"\x3c" * 4096
    count = (partition_mb * 1024 * 1024 // 4096) // 4  # 25% full

    disk_lld = SimulatedDisk(hp_c3010(capacity_mb=partition_mb), VirtualClock())
    lld = LLD(disk_lld, LLDConfig())
    lld.initialize()
    write_blocks(lld, count, payload)
    lld.flush()
    lld.crash()
    t0 = disk_lld.clock.now
    fresh_lld = LLD(disk_lld, lld.config)
    fresh_lld.initialize()
    lld_seconds = disk_lld.clock.now - t0

    disk_loge = SimulatedDisk(hp_c3010(capacity_mb=partition_mb), VirtualClock())
    loge = LogeDisk(disk_loge)
    loge.initialize()
    write_blocks(loge, count, payload)
    loge.crash()
    t0 = disk_loge.clock.now
    fresh_loge = LogeDisk(disk_loge)
    fresh_loge.initialize()
    loge_seconds = disk_loge.clock.now - t0

    return lld_seconds, loge_seconds


def test_lld_recovers_an_order_of_magnitude_faster(spec, benchmark):
    partition_mb = max(16, int(spec.partition_mb / 2))
    lld_seconds, loge_seconds = benchmark.pedantic(
        run, args=(partition_mb,), rounds=1, iterations=1
    )
    ratio = loge_seconds / lld_seconds
    emit(
        f"recovery on a {partition_mb} MB partition (simulated): "
        f"LLD {lld_seconds:.2f} s, Loge {loge_seconds:.2f} s -> {ratio:.1f}x"
    )
    assert ratio >= 8.0, "paper claims at least one order of magnitude"
