"""Crash-state explorer: recording, enumeration, and LLD invariants.

The end-to-end tests run the standard matrix workload on a recorded LLD,
materialize every enumerated crash image, recover each one, and check the
four durability invariants. The regression pair at the bottom pins the
defect the explorer surfaced in the paper-faithful write path: an
in-place summary rewrite that tears after the header sector loses
*acknowledged* records, and the ``torn_write_protection`` protocol
eliminates exactly that failure.
"""

import hashlib
from collections import Counter

import pytest

from repro.bench import make_scheduler
from repro.crashsim import (
    CrashStateEnumerator,
    LLDCrashChecker,
    MirrorRecording,
    OracleDriver,
    ParityRecording,
    RecordingDisk,
    run_matrix_workload,
    run_multitenant_matrix_workload,
)
from repro.disk import SimulatedDisk, fast_test_disk
from repro.lld import LLD, LLDConfig
from repro.sched import LDServer
from repro.sim import VirtualClock
from repro.volume import Volume

from tests.lld.conftest import small_config


def recorded_lld(**config_overrides):
    """A fresh LLD on a RecordingDisk, plus its oracle driver."""
    config = small_config(**config_overrides)
    disk = SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock())
    recording = RecordingDisk(disk)
    lld = LLD(recording, config)
    lld.initialize()
    return lld, recording, OracleDriver(lld, recording)


def small_workload(driver):
    return run_matrix_workload(
        driver, n_small=6, n_overwrites=2, generations=2, n_fill=8
    )


# ----------------------------------------------------------------------
# RecordingDisk
# ----------------------------------------------------------------------


class TestRecordingDisk:
    def test_journals_writes_with_epochs(self):
        disk = SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock())
        recording = RecordingDisk(disk)
        recording.write(0, b"a" * 512)
        recording.write(8, b"b" * 1024)
        recording.barrier("first")
        recording.write(2, b"c" * 512)
        assert [e.seq for e in recording.events] == [0, 1, 2]
        assert [e.epoch for e in recording.events] == [0, 0, 1]
        assert [e.nsectors for e in recording.events] == [1, 2, 1]
        assert recording.barriers[0].label == "first"
        assert recording.barriers[0].position == 2

    def test_empty_epochs_are_skipped(self):
        disk = SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock())
        recording = RecordingDisk(disk)
        recording.barrier("idle")
        recording.barrier("idle")
        recording.write(0, b"x" * 512)
        recording.barrier("real")
        recording.barrier("idle-again")
        assert len(recording.barriers) == 1
        assert recording.epoch_count == 1
        assert recording.epoch_bounds() == [(0, 1)]

    def test_writes_pass_through_and_reads_do_not_journal(self):
        disk = SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock())
        recording = RecordingDisk(disk)
        recording.write(5, b"y" * 512)
        assert disk.peek(5, 1) == b"y" * 512
        recording.read(5, 1)
        recording.peek(5, 1)
        assert recording.position == 1
        # Inner-disk counters are visible through the wrapper.
        assert recording.stats.writes == 1
        assert recording.stats.reads == 1

    def test_base_image_snapshot(self):
        disk = SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock())
        disk.write(3, b"pre" + b"\x00" * 509)
        recording = RecordingDisk(disk)
        recording.write(7, b"post" + b"\x00" * 508)
        base = recording.base_image()
        assert 3 in base and 7 not in base

    def test_lld_barriers_land_at_choke_points(self):
        lld, recording, driver = recorded_lld(torn_write_protection=True)
        small_workload(driver)
        labels = {b.label for b in recording.barriers}
        assert "summary-guard" in labels
        assert "segment-image" in labels
        # The flush-end barrier usually closes an epoch some earlier
        # barrier (segment-image) already closed, so RecordingDisk
        # coalesces it away — but the disk still counted every announce.
        assert recording.stats.barriers >= len(recording.barriers)
        # Every acknowledgement must sit on an epoch boundary: the oracle
        # snapshot positions coincide with recorded barrier positions.
        boundary_positions = {b.position for b in recording.barriers}
        assert all(p.seq in boundary_positions for p in driver.oracle.points)


# ----------------------------------------------------------------------
# CrashStateEnumerator
# ----------------------------------------------------------------------


class TestEnumerator:
    def build(self):
        disk = SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock())
        recording = RecordingDisk(disk)
        recording.write(0, b"a" * 512)
        recording.write(8, b"b" * 2048)  # 4 sectors -> 3 torn states
        recording.barrier("one")
        recording.write(16, b"c" * 512)
        recording.write(24, b"d" * 512)
        recording.write(32, b"e" * 512)
        recording.barrier("two")
        return disk, recording

    def test_prefixes_and_torn_counts(self):
        _disk, recording = self.build()
        states = CrashStateEnumerator(recording).enumerate()
        kinds = Counter(s.kind for s in states)
        assert kinds["prefix"] == len(recording.events) + 1
        assert kinds["torn"] == 3  # splits 1..3 of the 4-sector write
        # Proper subsets that are themselves in-order prefixes dedup
        # against the prefix states: epoch one keeps only {w1}; epoch two
        # keeps {w3}, {w4}, {w2,w4}, {w3,w4}.
        assert kinds["reorder"] == 5

    def test_plans_are_distinct(self):
        _disk, recording = self.build()
        states = CrashStateEnumerator(recording).enumerate()
        assert len({s.plan for s in states}) == len(states)

    def test_full_prefix_reproduces_the_live_disk(self):
        disk, recording = self.build()
        enum = CrashStateEnumerator(recording)
        states = enum.enumerate()
        full = next(
            s
            for s in states
            if s.kind == "prefix" and s.covered_seq == len(recording.events)
        )
        image = enum.materialize(full)
        for lba in (0, 8, 9, 10, 11, 16, 24, 32):
            assert image.peek(lba, 1) == disk.peek(lba, 1)

    def test_torn_state_applies_sector_prefix(self):
        _disk, recording = self.build()
        enum = CrashStateEnumerator(recording)
        torn = [s for s in states_of_kind(enum, "torn") if s.detail == "w1+2/4"]
        assert len(torn) == 1
        image = enum.materialize(torn[0])
        assert image.peek(8, 2) == b"b" * 1024  # first two sectors landed
        assert image.peek(10, 2) == b"\x00" * 1024  # rest did not

    def test_max_states_cap(self):
        _disk, recording = self.build()
        states = CrashStateEnumerator(recording, max_states=4).enumerate()
        assert len(states) == 4

    def test_torn_split_sampling_keeps_boundaries(self):
        enum = CrashStateEnumerator.__new__(CrashStateEnumerator)
        enum.max_torn_splits_per_write = 4
        splits = enum._torn_splits(128)
        assert len(splits) == 4
        assert splits[0] == 1 and splits[-1] == 127


def states_of_kind(enum, kind):
    return [s for s in enum.enumerate() if s.kind == kind]


# ----------------------------------------------------------------------
# End-to-end: matrix workload, recovery, invariants
# ----------------------------------------------------------------------


class TestInvariants:
    def explore(self, **config_overrides):
        lld, recording, driver = recorded_lld(**config_overrides)
        small_workload(driver)
        enum = CrashStateEnumerator(recording)
        checker = LLDCrashChecker(lld.config, driver.oracle)
        return enum.explore(checker)

    def test_protected_write_path_has_no_violations(self):
        report = self.explore(torn_write_protection=True)
        assert report.states_total > 100
        assert report.states_by_kind.get("prefix", 0) > 0
        assert report.states_by_kind.get("torn", 0) > 0
        assert report.states_by_kind.get("reorder", 0) > 0
        assert report.violations == []

    def test_every_state_recovers_and_reports_cost(self):
        report = self.explore(torn_write_protection=True)
        assert len(report.recovery_seconds) == report.states_total
        assert report.recovery_seconds_max > 0
        # Tolerance: mean is a float sum, max is exact.
        assert 0 < report.recovery_seconds_mean <= report.recovery_seconds_max + 1e-9

    def test_oracle_snapshots_cover_the_run(self):
        lld, recording, driver = recorded_lld(torn_write_protection=True)
        small_workload(driver)
        points = driver.oracle.points
        assert len(points) > 10
        assert all(a.seq <= b.seq for a, b in zip(points, points[1:]))
        assert points[-1].seq == recording.position
        # Suffix-match indexing: a crash covering everything honours the
        # final snapshot; one covering nothing honours none.
        assert driver.oracle.latest_covered_index(recording.position) == len(points) - 1
        assert driver.oracle.latest_covered_index(0) == -1


# ----------------------------------------------------------------------
# Regression: the torn-summary defect the explorer surfaced
# ----------------------------------------------------------------------


class TestTornSummaryRegression:
    """The explorer found that the paper-faithful in-place summary
    rewrite loses acknowledged records under a torn write (the new
    header lands, the new body does not, the CRC rejects the slot and
    recovery skips everything it held). This pair of tests pins both the
    detection and the fix."""

    def test_unprotected_write_path_loses_acked_data_under_torn_writes(self):
        lld, recording, driver = recorded_lld(torn_write_protection=False)
        small_workload(driver)
        enum = CrashStateEnumerator(recording)
        checker = LLDCrashChecker(lld.config, driver.oracle)
        report = enum.explore(checker)
        lost = [v for v in report.violations if v.invariant == "acked-durability"]
        assert lost, "explorer must catch the torn-summary data loss"
        assert all(v.kind in ("torn", "reorder") for v in report.violations)
        # Every prefix state (no tearing, no reordering) is still sound:
        # the defect needs a mid-write crash to manifest.
        assert not [v for v in report.violations if v.kind == "prefix"]

    def test_protection_eliminates_the_defect(self):
        report = TestInvariants().explore(torn_write_protection=True)
        assert report.violations == []

    def test_protection_splits_summary_updates_at_the_header(self):
        lld, recording, driver = recorded_lld(torn_write_protection=True)
        small_workload(driver)
        guard_positions = [
            b.position for b in recording.barriers if b.label == "summary-guard"
        ]
        assert guard_positions, "protected flushes must issue the guard barrier"
        for position in guard_positions:
            # The write right after the guard is the atomic header flip.
            flip = recording.events[position]
            assert flip.nsectors == 1


# ----------------------------------------------------------------------
# The mirror itself: both matrix workloads' acknowledgement history
# ----------------------------------------------------------------------

MATRIX_CONFIG = dict(
    segment_size=64 * 1024, summary_capacity=4096, block_size=4096,
    checkpoint_slots=1, torn_write_protection=True,
)

#: Digest of ``driver.oracle.points`` (seq, label, blocks, lists) for the
#: workloads and devices of ``benchmarks/test_crash_matrix.py``, captured
#: when the single-LLD and the multi-tenant driver were still two classes.
#: The ``single-*`` arms were re-captured when ``run_matrix_workload``
#: gained its last phase (an ARU across a seal, its COMMIT's slot cleaned,
#: then recycled); their history up to that phase is pinned apart, by the
#: digests captured before it (``BEFORE_RECYCLING``). The ``multi-*``
#: arms were re-captured when an abort began to log the values its unit
#: replaced: every point's label, blocks and lists are as before, and the
#: journal positions after the abort moved by one or two writes.
POINTS_GOLDEN = {
    "single-disk": "ea040b1dfc721c13",
    "single-mirror": "2e1f66d991d31df1",
    "single-raid5": "17881edd5e59b180",
    "multi-qos-2-queued": "03d2de22ce8da170",
    "multi-qos-2-bare": "03d2de22ce8da170",
    "multi-fifo-1-queued": "8f812ad2766833fb",
}

BEFORE_RECYCLING = {
    "single-disk": "65601408ae682e58",
    "single-mirror": "ca9e2371311b09b1",
    "single-raid5": "a08d2ae58af6fdad",
}


def matrix_points(arm: str) -> list:
    def disk():
        return SimulatedDisk(fast_test_disk(capacity_mb=8), VirtualClock())

    kind, *rest = arm.split("-")
    if kind == "multi":
        scheduler, group_commit, device = rest
        volume = recording = RecordingDisk(disk())
        if device == "queued":
            volume = Volume([recording], VirtualClock())
    elif rest == ["disk"]:
        volume = recording = RecordingDisk(disk())
        workload = dict(n_small=24, n_overwrites=8, generations=4, n_fill=24)
    elif rest == ["mirror"]:
        volume = Volume([disk(), disk()], VirtualClock(), layout="mirror")
        recording = MirrorRecording(volume)
        workload = dict(n_small=12, n_overwrites=4, generations=3, n_fill=12)
    else:
        volume = Volume([disk() for _ in range(4)], VirtualClock(), layout="raid5", chunk_sectors=128)
        recording = ParityRecording(volume)
        workload = dict(n_small=8, n_overwrites=3, generations=2, n_fill=8)
    lld = LLD(volume, LLDConfig(**MATRIX_CONFIG))
    lld.initialize()
    driver = OracleDriver(lld, recording)
    if kind == "multi":
        server = LDServer(lld, make_scheduler(scheduler), group_commit=int(group_commit))
        a, b = server.open_session("a"), server.open_session("b")
        run_multitenant_matrix_workload(driver, a, b, n_small=12, n_overwrites=4, generations=3, n_fill=14)
    else:
        run_matrix_workload(driver, **workload)
    return [(p.seq, p.label, sorted(p.blocks.items()), sorted(p.lists.items())) for p in driver.oracle.points]


def _digest(points: list) -> str:
    return hashlib.sha256(repr(points).encode()).hexdigest()[:16]


@pytest.mark.parametrize("arm", sorted(POINTS_GOLDEN))
def test_matrix_workloads_acknowledge_the_pinned_history(arm):
    points = matrix_points(arm)
    assert _digest(points) == POINTS_GOLDEN[arm]
    if arm in BEFORE_RECYCLING:
        labels = [point[1] for point in points]
        assert labels[-1] == "recycled" and "cleaned" in labels
        last_fill = max(i for i, label in enumerate(labels) if label.startswith("fill-"))
        assert _digest(points[: last_fill + 1]) == BEFORE_RECYCLING[arm]
