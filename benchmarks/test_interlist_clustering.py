"""§2.1 inter-list clustering: "LD tries to physically place a list close
to its neighbors in the list of lists."

MINIX LLD creates each file's list with its directory's list as the
predecessor, so files of one directory are neighbours in the list of
lists. After the idle-time reorganizer runs, reading a whole directory
touches physically adjacent storage. The ablation compares against lists
inserted at the head of the list of lists (no clustering hint).
"""

import pytest

from repro.bench import BuildSpec, render_table
from repro.disk import SimulatedDisk, hp_c3010
from repro.ld.hints import LIST_HEAD
from repro.lld import LLD, LLDConfig
from repro.sim import VirtualClock
from benchmarks.conftest import emit, read_data_area


def build_two_interleaved_dirs(spec, clustered: bool):
    """Files of dirs A and B created alternately; returns (lld, a_blocks)."""
    disk = SimulatedDisk(hp_c3010(capacity_mb=spec.partition_mb), VirtualClock())
    lld = LLD(disk, LLDConfig(segment_size=spec.segment_size))
    lld.initialize()
    dir_a = lld.new_list()
    dir_b = lld.new_list()
    a_blocks = []
    payload = b"\x6c" * 4096
    last_a, last_b = dir_a, dir_b
    # Enough files that one directory spans several segments.
    files = max(300, int(3000 * spec.scale))
    for i in range(files):
        for which, pred_dir in (("a", last_a), ("b", last_b)):
            pred = pred_dir if clustered else LIST_HEAD
            lid = lld.new_list(pred_lid=pred)
            bid = lld.new_block(lid, LIST_HEAD)
            lld.write(bid, payload)
            if which == "a":
                a_blocks.append(bid)
                last_a = lid
            else:
                last_b = lid
    lld.flush()
    return lld, a_blocks


def directory_scan_cost(spec, clustered: bool) -> tuple[int, float]:
    """(segments holding dir A, seconds to stream those segments).

    A batched reader (read-ahead, or a segment-at-a-time read)
    fetches whole segments; clustering pays off by shrinking the set of
    segments a directory scan must touch.
    """
    lld, a_blocks = build_two_interleaved_dirs(spec, clustered)
    lld.reorganize()  # idle-time layout pass follows the list of lists
    lld.shutdown()
    fresh = LLD(lld.disk, lld.config)
    fresh.initialize()
    segments = sorted(
        {fresh.state.blocks[bid].segment for bid in a_blocks}
    )
    clock = fresh.disk.clock
    t0 = clock.now
    for slot in segments:
        read_data_area(fresh, slot)
    return len(segments), clock.now - t0


def test_interlist_clustering(spec, benchmark):
    def run():
        return (
            directory_scan_cost(spec, clustered=True),
            directory_scan_cost(spec, clustered=False),
        )

    (seg_hint, time_hint), (seg_plain, time_plain) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    emit(
        render_table(
            "Inter-list clustering — whole-directory scan after reorganize",
            ["segments touched", "seconds"],
            {
                "lists clustered by directory": {
                    "segments touched": float(seg_hint),
                    "seconds": time_hint,
                },
                "no clustering hint": {
                    "segments touched": float(seg_plain),
                    "seconds": time_plain,
                },
            },
            note="paper §2.1: lists are placed near their list-of-lists neighbours",
        )
    )
    # Clustering concentrates the directory into fewer segments, so a
    # batched scan reads less and finishes sooner.
    assert seg_hint < seg_plain
    assert time_hint < time_plain
