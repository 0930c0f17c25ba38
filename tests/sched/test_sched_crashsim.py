"""Crash-matrix exploration with the scheduler in the write path.

The multi-tenant generalization of ``tests/lld/test_crashsim.py``: two
tenant sessions drive one LLD through an :class:`~repro.sched.LDServer`
(deferrable flush intents pooling in the cross-tenant group commit,
interleaved ARUs, an aborted ARU), a :class:`RecordingDisk` journals
every sector write, and every enumerated crash image must recover to
*some* acknowledged global snapshot — queueing and group commit must not
open any new crash window.

On a bare disk a commit is on the medium when ``flush`` returns; behind a
one-member :class:`~repro.volume.Volume` — the same LBA space and the same
journal, but writes that complete after they are issued — the server
acknowledges it later and dispatches the other tenant meanwhile, a read
parked behind the commit's writes among them, and the matrix walks the
states inside that window too.
"""

import pytest

from repro.bench import make_scheduler
from repro.crashsim import (
    CrashStateEnumerator,
    LLDCrashChecker,
    OracleDriver,
    RecordingDisk,
    run_multitenant_matrix_workload,
)
from repro.disk import SimulatedDisk, fast_test_disk
from repro.lld import LLD
from repro.sched import LDServer
from repro.sim import VirtualClock
from repro.volume import Volume

from tests.lld.conftest import small_config


def recorded_server(scheduler_name="qos", *, group_commit=1, queued=False):
    config = small_config(torn_write_protection=True)
    disk = SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock())
    recording = RecordingDisk(disk)
    device = Volume([recording], VirtualClock()) if queued else recording
    lld = LLD(device, config)
    lld.initialize()
    server = LDServer(
        lld, make_scheduler(scheduler_name), group_commit=group_commit
    )
    return server, lld, recording


def explore(scheduler_name: str, group_commit: int, queued: bool = False, **workload_kw):
    server, lld, recording = recorded_server(
        scheduler_name, group_commit=group_commit, queued=queued
    )
    a = server.open_session("a")
    b = server.open_session("b")
    driver = OracleDriver(lld, recording)
    run_multitenant_matrix_workload(driver, a, b, **workload_kw)
    enum = CrashStateEnumerator(recording)
    checker = LLDCrashChecker(lld.config, driver.oracle)
    return enum.explore(checker), driver, recording, server


class TestSchedulerCrashMatrix:
    def test_qos_with_group_commit_has_no_violations(self):
        report, driver, _recording, server = explore("qos", group_commit=2)
        assert report.states_total > 100
        assert report.states_by_kind.get("prefix", 0) > 0
        assert report.states_by_kind.get("torn", 0) > 0
        assert report.states_by_kind.get("reorder", 0) > 0
        assert report.violations == []
        # The group commit actually deferred intents (the workload's
        # pooled rounds), so the zero-violation run exercised it.
        assert server.stats.flushes_deferred > 0
        assert server.stats.group_commits > 0

    def test_fifo_baseline_has_no_violations(self):
        report, *_ = explore(
            "fifo", group_commit=1, n_small=3, generations=2, n_fill=4
        )
        assert report.states_total > 50
        assert report.violations == []

    @pytest.mark.parametrize("scheduler", ["qos", "fifo"])
    def test_crash_inside_a_deferred_commit_has_no_violations(self, scheduler):
        """The window between a commit's dispatch and its acknowledgement:
        its intents may or may not be durable, nothing acknowledged earlier
        is lost, the other tenant's write dispatched inside it belongs to
        the next epoch, and its read, parked at the disks while the crash
        can strike, returned the acknowledged bytes."""
        report, driver, recording, server = explore(scheduler, group_commit=2, queued=True)
        stats = server.stats
        assert stats.commits_deferred == stats.group_commits > 0
        assert driver.overlapped == 2  # both phase-G commits had a write inside
        assert driver.parked_reads == 2  # ... and a read still at the disks
        assert stats.reads_parked >= 2
        assert report.states_total > 100
        assert report.violations == []
        # Every journal position is a crash state, so the walk covers each
        # overlapped commit from its first write to its acknowledgement;
        # past that point recovery owes exactly the snapshot frozen when
        # the commit was issued — without the write dispatched inside it,
        # which only the next commit acknowledges.
        points = {p.label: p for p in driver.oracle.points}
        for i in range(2):
            covered, later = points[f"overlap-{i}"], points[f"after-overlap-{i}"]
            assert covered.seq < later.seq <= recording.position
            assert covered.blocks != later.blocks

    def test_bare_disk_leaves_no_window_and_the_same_phases_hold(self):
        _report, driver, _recording, server = explore("qos", group_commit=2)
        assert server.stats.commits_deferred == 0
        assert server.stats.reads_parked == 0
        assert driver.overlapped == driver.parked_reads == 0
        assert {"overlap-0", "overlap-1"} <= {p.label for p in driver.oracle.points}

    def test_acks_land_on_barrier_positions(self):
        _report, driver, recording, _server = explore("qos", group_commit=2)
        boundary_positions = {b.position for b in recording.barriers}
        assert len(driver.oracle.points) > 10
        assert all(
            p.seq in boundary_positions for p in driver.oracle.points
        )
