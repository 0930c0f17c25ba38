"""Crash-state matrix: exhaustive torn/reordered-write exploration.

Runs the standard matrix workload (lists, overwrites, deletes, ARUs —
committed, mid-flushed, and aborted — a bulk fill, and an ARU across a
seal whose COMMIT's slot is cleaned, then recycled) on an LLD with
``torn_write_protection`` enabled, enumerates every crash image the
recorded journal admits (epoch prefixes, torn multi-sector writes, and
bounded intra-epoch reorderings), recovers each one, and checks the four
durability invariants against the acknowledgement oracle:

1. recovery never raises,
2. every atomic recovery unit is all-or-nothing,
3. every block acknowledged durable reads back with acknowledged bytes,
4. the recovered state is prefix-consistent with the acknowledged history.

Bounded to run as a CI smoke job (well under two minutes); emits
``BENCH_crash_matrix.json`` for CI to diff.
"""

import json
from collections import Counter
from pathlib import Path

from repro.bench import crash_matrix_summary, render_table, write_json_report
from repro.crashsim import (
    CrashStateEnumerator,
    ExplorationReport,
    LLDCrashChecker,
    MirrorRecording,
    OracleDriver,
    ParityRecording,
    RecordingDisk,
    explore_degraded_mirror,
    explore_degraded_parity,
    run_checkpoint_matrix_workload,
    run_matrix_workload,
    run_multitenant_matrix_workload,
)
from repro.crashsim.volume import (
    enumerate_parity_crash_states,
    materialize_parity_crash_state,
)
from repro.disk import SimulatedDisk, fast_test_disk
from repro.lld import LLD, LLDConfig
from repro.lld import recovery
from repro.sched import LDServer, QoSElevatorScheduler
from repro.sim import VirtualClock
from repro.volume import Volume
from benchmarks.conftest import emit

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_crash_matrix.json"

MIN_STATES = 500

CONFIG = dict(
    segment_size=64 * 1024,
    summary_capacity=4096,
    block_size=4096,
    checkpoint_slots=1,
    torn_write_protection=True,
)

WORKLOAD = dict(n_small=24, n_overwrites=8, generations=4, n_fill=24)


def run():
    disk = SimulatedDisk(fast_test_disk(capacity_mb=8), VirtualClock())
    recording = RecordingDisk(disk)
    lld = LLD(recording, LLDConfig(**CONFIG))
    lld.initialize()
    driver = OracleDriver(lld, recording)
    run_matrix_workload(driver, **WORKLOAD)
    enum = CrashStateEnumerator(recording, reorder_samples_per_epoch=24)
    checker = LLDCrashChecker(lld.config, driver.oracle)
    report = enum.explore(checker)
    return recording, driver, report


def test_crash_matrix(benchmark):
    recording, driver, report = benchmark.pedantic(run, rounds=1, iterations=1)

    emit(
        render_table(
            "Crash-state matrix (torn_write_protection=on)",
            ["value"],
            {
                "journal writes": {"value": float(recording.position)},
                "barrier epochs": {"value": float(recording.epoch_count)},
                "ack points": {"value": float(len(driver.oracle.points))},
                "crash states": {"value": float(report.states_total)},
                "  prefix": {"value": float(report.states_by_kind.get("prefix", 0))},
                "  torn": {"value": float(report.states_by_kind.get("torn", 0))},
                "  reorder": {"value": float(report.states_by_kind.get("reorder", 0))},
                "violations": {"value": float(len(report.violations))},
                "recovery mean (ms)": {"value": report.recovery_seconds_mean * 1000},
                "recovery max (ms)": {"value": report.recovery_seconds_max * 1000},
            },
            note="every state: recover, then check the four durability invariants",
        )
    )

    payload = {
        "benchmark": "crash_matrix",
        "config": CONFIG,
        "workload": WORKLOAD,
        "journal_writes": recording.position,
        "barrier_epochs": recording.epoch_count,
        "ack_points": len(driver.oracle.points),
        **crash_matrix_summary(report),
    }
    emit(f"wrote {write_json_report(REPORT_PATH, payload)}")

    # Acceptance: a real matrix (all three crash kinds, >= MIN_STATES
    # distinct states) with zero invariant violations.
    assert report.states_total >= MIN_STATES
    assert report.states_by_kind.get("prefix", 0) > 0
    assert report.states_by_kind.get("torn", 0) > 0
    assert report.states_by_kind.get("reorder", 0) > 0
    assert report.violations == []
    assert len(report.recovery_seconds) == report.states_total


# ----------------------------------------------------------------------
# Degraded mirror: per-disk crash states, one member dropped
# ----------------------------------------------------------------------

MIRROR_WORKLOAD = dict(n_small=12, n_overwrites=4, generations=3, n_fill=12)

MIN_MIRROR_STATES = 200


def run_mirror():
    members = [
        SimulatedDisk(fast_test_disk(capacity_mb=8), VirtualClock()) for _ in range(2)
    ]
    volume = Volume(members, VirtualClock(), layout="mirror")
    recording = MirrorRecording(volume)
    lld = LLD(volume, LLDConfig(**CONFIG))
    lld.initialize()
    driver = OracleDriver(lld, recording)
    run_matrix_workload(driver, **MIRROR_WORKLOAD)
    recording.assert_isomorphic()
    reports = {
        survivor: explore_degraded_mirror(
            recording,
            lld.config,
            driver.oracle,
            survivor=survivor,
            reorder_samples_per_epoch=12,
        )
        for survivor in range(len(recording.members))
    }
    return recording, driver, reports


def test_degraded_mirror_matrix(benchmark):
    """Every crash state of either member, recovered with the other dropped.

    The mirrored volume fans acknowledged writes to both members, so any
    single survivor — caught at any crash point its journal admits —
    must satisfy all four durability invariants through a degraded mount.
    """
    recording, driver, reports = benchmark.pedantic(run_mirror, rounds=1, iterations=1)

    rows = {
        "journal writes (per member)": {"value": float(recording.position)},
        "ack points": {"value": float(len(driver.oracle.points))},
    }
    for survivor, report in sorted(reports.items()):
        rows[f"survivor {survivor}: crash states"] = {
            "value": float(report.states_total)
        }
        rows[f"survivor {survivor}: violations"] = {
            "value": float(len(report.violations))
        }
    emit(
        render_table(
            "Degraded mirror matrix (2-way, one member dropped)",
            ["value"],
            rows,
            note="per-member journals are isomorphic; either survivor must recover",
        )
    )

    # Merge into the crash-matrix report (test_crash_matrix writes first
    # in file order; stay robust if it did not run this session).
    try:
        payload = json.loads(REPORT_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        payload = {"benchmark": "crash_matrix"}
    payload["degraded_mirror"] = {
        "config": CONFIG,
        "workload": MIRROR_WORKLOAD,
        "members": len(recording.members),
        "journal_writes_per_member": recording.position,
        "ack_points": len(driver.oracle.points),
        "survivors": {
            str(survivor): crash_matrix_summary(report)
            for survivor, report in sorted(reports.items())
        },
    }
    emit(f"wrote {write_json_report(REPORT_PATH, payload)}")

    for survivor, report in reports.items():
        assert report.states_total >= MIN_MIRROR_STATES, (survivor, report.states_total)
        assert report.states_by_kind.get("prefix", 0) > 0
        assert report.states_by_kind.get("torn", 0) > 0
        assert report.states_by_kind.get("reorder", 0) > 0
        assert report.violations == [], (survivor, report.violations[:3])


# ----------------------------------------------------------------------
# Degraded RAID-5: epoch-aligned crash cuts, resync, then lose a member
# ----------------------------------------------------------------------

PARITY_WORKLOAD = dict(n_small=8, n_overwrites=3, generations=2, n_fill=8)

PARITY_N = 4
PARITY_CHUNK_SECTORS = 128
#: Member size. The workload ends by going round the whole log, and every
#: crash state of a parity volume is resynced whole, so three 1 MB data
#: members (44 slots) keep the arm inside the smoke budget.
PARITY_MEMBER_MB = 1

#: Rotation means every member holds parity for some rows, so two fail
#: indices already exercise both data-chunk and parity-chunk loss while
#: keeping the arm inside the CI smoke budget.
PARITY_FAIL_INDICES = (0, 2)

MIN_PARITY_STATES = 250


def run_parity():
    members = [
        SimulatedDisk(fast_test_disk(capacity_mb=PARITY_MEMBER_MB), VirtualClock())
        for _ in range(PARITY_N)
    ]
    volume = Volume(
        members,
        VirtualClock(),
        layout="raid5",
        chunk_sectors=PARITY_CHUNK_SECTORS,
    )
    recording = ParityRecording(volume)
    lld = LLD(volume, LLDConfig(**CONFIG))
    lld.initialize()
    driver = OracleDriver(lld, recording)
    run_matrix_workload(driver, **PARITY_WORKLOAD)
    reports = {
        fail: explore_degraded_parity(
            recording,
            lld.config,
            driver.oracle,
            fail=fail,
            subset_samples_per_epoch=6,
        )
        for fail in PARITY_FAIL_INDICES
    }
    return recording, driver, reports


def test_degraded_parity_matrix(benchmark):
    """Every epoch-aligned crash image, resynced, then one member failed.

    Parity rows straddle members, so member journals are *not* isomorphic
    and per-member crash points cannot be mixed freely (the RAID-5 write
    hole). Crash states are therefore globally epoch-aligned cuts of the
    volume's barrier history, plus torn/partial writes *within* the crash
    epoch. Recovery matches md's policy: resync parity with all members
    present, then fail a member and mount degraded — every state must
    satisfy all four durability invariants via pure XOR reconstruction.
    """
    recording, driver, reports = benchmark.pedantic(run_parity, rounds=1, iterations=1)

    rows = {
        "journal writes (sum)": {"value": float(recording.position)},
        "barrier epochs": {"value": float(recording.epoch_count)},
        "ack points": {"value": float(len(driver.oracle.points))},
    }
    for fail, report in sorted(reports.items()):
        rows[f"fail member {fail}: crash states"] = {
            "value": float(report.states_total)
        }
        rows[f"fail member {fail}: violations"] = {
            "value": float(len(report.violations))
        }
    emit(
        render_table(
            "Degraded RAID-5 matrix (N=4, resync then fail)",
            ["value"],
            rows,
            note="crash → parity resync (md-style) → fail member → degraded mount",
        )
    )

    # Merge into the crash-matrix report (stay robust if the other
    # matrix tests did not run this session).
    try:
        payload = json.loads(REPORT_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        payload = {"benchmark": "crash_matrix"}
    payload["degraded_parity"] = {
        "config": CONFIG,
        "workload": PARITY_WORKLOAD,
        "members": PARITY_N,
        "member_mb": PARITY_MEMBER_MB,
        "layout": "raid5",
        "chunk_sectors": PARITY_CHUNK_SECTORS,
        "journal_writes_total": recording.position,
        "barrier_epochs": recording.epoch_count,
        "ack_points": len(driver.oracle.points),
        "failed_members": {
            str(fail): crash_matrix_summary(report)
            for fail, report in sorted(reports.items())
        },
    }
    emit(f"wrote {write_json_report(REPORT_PATH, payload)}")

    for fail, report in reports.items():
        assert report.states_total >= MIN_PARITY_STATES, (fail, report.states_total)
        assert report.states_by_kind.get("cut", 0) > 0
        assert report.states_by_kind.get("torn", 0) > 0
        assert report.states_by_kind.get("subset", 0) > 0
        assert report.violations == [], (fail, report.violations[:3])


# ----------------------------------------------------------------------
# Scheduler in the write path: two tenants, group commit, same matrix
# ----------------------------------------------------------------------

SCHED_WORKLOAD = dict(
    n_small=12, n_overwrites=4, generations=3, n_fill=14
)

MIN_SCHED_STATES = 300


def run_scheduler_matrix():
    disk = SimulatedDisk(fast_test_disk(capacity_mb=8), VirtualClock())
    recording = RecordingDisk(disk)
    # A one-member volume over the recorder: the same LBA space and the
    # same journal, but writes complete after they are issued, so the
    # server acknowledges every commit later than it dispatched it and the
    # workload's last phase lands the other tenant's write in between.
    lld = LLD(Volume([recording], VirtualClock()), LLDConfig(**CONFIG))
    lld.initialize()
    server = LDServer(lld, QoSElevatorScheduler(), group_commit=2)
    a = server.open_session("a")
    b = server.open_session("b")
    driver = OracleDriver(lld, recording)
    run_multitenant_matrix_workload(driver, a, b, **SCHED_WORKLOAD)
    enum = CrashStateEnumerator(recording, reorder_samples_per_epoch=16)
    checker = LLDCrashChecker(lld.config, driver.oracle)
    return recording, driver, server, enum.explore(checker)


def test_scheduler_crash_matrix(benchmark):
    """The request queue and group commit open no new crash window.

    Two tenant sessions run the multi-tenant matrix workload through a
    QoS server with cross-tenant group commit; every crash image of the
    recorded journal must still satisfy all four durability invariants
    against the *global* acknowledgement oracle.
    """
    recording, driver, server, report = benchmark.pedantic(
        run_scheduler_matrix, rounds=1, iterations=1
    )

    emit(
        render_table(
            "Crash matrix through the LD server (qos, group_commit=2)",
            ["value"],
            {
                "journal writes": {"value": float(recording.position)},
                "ack points": {"value": float(len(driver.oracle.points))},
                "flush intents deferred": {
                    "value": float(server.stats.flushes_deferred)
                },
                "group commits": {"value": float(server.stats.group_commits)},
                "commits acknowledged late": {
                    "value": float(server.stats.commits_deferred)
                },
                "writes inside a commit": {"value": float(driver.overlapped)},
                "crash states": {"value": float(report.states_total)},
                "violations": {"value": float(len(report.violations))},
            },
            note="two tenants, global oracle: one tenant's commit acks the other",
        )
    )

    # Merge into the crash-matrix report (stay robust if the other
    # matrix tests did not run this session).
    try:
        payload = json.loads(REPORT_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        payload = {"benchmark": "crash_matrix"}
    payload["scheduler"] = {
        "config": CONFIG,
        "workload": SCHED_WORKLOAD,
        "scheduler": "qos-elevator",
        "group_commit": 2,
        "tenants": 2,
        "journal_writes": recording.position,
        "ack_points": len(driver.oracle.points),
        "flushes_deferred": server.stats.flushes_deferred,
        "group_commits": server.stats.group_commits,
        "commits_deferred": server.stats.commits_deferred,
        "overlapped_writes": driver.overlapped,
        **crash_matrix_summary(report),
    }
    emit(f"wrote {write_json_report(REPORT_PATH, payload)}")

    assert report.states_total >= MIN_SCHED_STATES
    assert report.states_by_kind.get("prefix", 0) > 0
    assert report.states_by_kind.get("torn", 0) > 0
    assert report.states_by_kind.get("reorder", 0) > 0
    assert report.violations == []
    # The zero-violation run actually exercised the deferred-commit path.
    assert server.stats.flushes_deferred > 0
    assert server.stats.group_commits > 0
    # ... and the window between a commit's dispatch and its
    # acknowledgement, with another tenant's write inside it and a read
    # parked at the disks.
    assert server.stats.commits_deferred == server.stats.group_commits
    assert driver.overlapped == 2
    assert driver.parked_reads == 2


# ----------------------------------------------------------------------
# Running checkpoints: two slots, every state recovered both ways
# ----------------------------------------------------------------------

CHECKPOINT_CONFIG = dict(CONFIG, checkpoint_slots=2)
CHECKPOINT_MB = 2

MIN_CHECKPOINT_STATES = 500
MIN_CHECKPOINT_ROW_STATES = 300


def run_checkpoint_bare():
    disk = SimulatedDisk(fast_test_disk(capacity_mb=CHECKPOINT_MB), VirtualClock())
    recording = RecordingDisk(disk)
    lld = LLD(recording, LLDConfig(**CHECKPOINT_CONFIG))
    lld.initialize()
    driver = OracleDriver(lld, recording)
    out = run_checkpoint_matrix_workload(driver)
    enum = CrashStateEnumerator(recording, reorder_samples_per_epoch=4)
    checker = LLDCrashChecker(lld.config, driver.oracle)
    report = enum.explore(checker)
    # A newer copy with a bad CRC: every prefix state whose newest copy
    # holds an image, again with a payload sector of that copy corrupted.
    # Recovery must sweep — the older copy's chain may have been
    # overwritten since — and still meet the contract.
    corrupted = ExplorationReport()
    for state in enum.enumerate():
        if state.kind != "prefix":
            continue
        image = enum.materialize(state)
        region = LLD(image, lld.config).checkpoint
        header = region.newest_copy()
        if header is None:
            continue
        image.corrupt(region.lbas[header.copy] + 1)
        before = checker.from_checkpoint
        outcome = checker(image, state)
        corrupted.states_total += 1
        corrupted.states_by_kind["prefix"] = corrupted.states_total
        corrupted.violations.extend(outcome.violations)
        corrupted.recovery_seconds.append(outcome.recovery_seconds)
        assert checker.from_checkpoint == before, state
    return recording, driver, out, checker, report, corrupted, unchained(recording, driver)


def unchained(recording, driver) -> ExplorationReport:
    """The mutant: recovery reads the listed summaries and stops there.
    Every prefix state of the bare arm, checked with it; it must be
    caught."""
    enum = CrashStateEnumerator(recording, reorder_samples_per_epoch=0)
    checker = LLDCrashChecker(driver.ld.config, driver.oracle)
    follow = recovery.summary_next
    recovery.summary_next = lambda image: None
    try:
        states = [state for state in enum.enumerate() if state.kind == "prefix"]
        return ExplorationReport.collect(states, lambda state: checker(enum.materialize(state), state))
    finally:
        recovery.summary_next = follow


def run_checkpoint_rows():
    members = [
        SimulatedDisk(fast_test_disk(capacity_mb=PARITY_MEMBER_MB), VirtualClock())
        for _ in range(PARITY_N)
    ]
    volume = Volume(
        members, VirtualClock(), layout="raid5", chunk_sectors=PARITY_CHUNK_SECTORS
    )
    recording = ParityRecording(volume)
    lld = LLD(volume, LLDConfig(**CHECKPOINT_CONFIG))
    lld.initialize()
    assert lld.layout.row_width == 3 and lld.log.reserve == 9
    driver = OracleDriver(lld, recording)
    out = run_checkpoint_matrix_workload(driver)
    checker = LLDCrashChecker(lld.config, driver.oracle)

    def check(state):
        image = materialize_parity_crash_state(recording, state)
        image.resync_parity()
        return checker(image, state)

    report = ExplorationReport.collect(
        enumerate_parity_crash_states(recording, subset_samples_per_epoch=2), check
    )
    return recording, driver, out, checker, report


def test_checkpoint_matrix(benchmark):
    """Two checkpoint slots: every crash state recovered from the newest
    checkpoint and its tail — the listed summaries and the chain past
    them — and by the full sweep; both meet the client contract and agree
    on the tables, on a bare disk and on RAID-5 rows. A recovery that
    does not follow the chain must be caught."""

    def run_both():
        return run_checkpoint_bare(), run_checkpoint_rows()

    bare, rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    recording, driver, out, checker, report, corrupted, mutant = bare
    row_recording, row_driver, row_out, row_checker, row_report = rows

    emit(
        render_table(
            "Checkpoint matrix (two slots: checkpoint and tail vs full sweep)",
            ["bare", "raid5 rows"],
            {
                "journal writes": {
                    "bare": float(recording.position),
                    "raid5 rows": float(row_recording.position),
                },
                "checkpoints written": {
                    "bare": float(out["checkpoints_written"]),
                    "raid5 rows": float(row_out["checkpoints_written"]),
                },
                "checkpoints deferred (ARU open)": {
                    "bare": float(out["checkpoints_refused"]),
                    "raid5 rows": float(row_out["checkpoints_refused"]),
                },
                "restarts": {
                    "bare": float(out["restarts"]),
                    "raid5 rows": float(row_out["restarts"]),
                },
                "  with a start-up checkpoint": {
                    "bare": float(out["startup_checkpoints"]),
                    "raid5 rows": float(row_out["startup_checkpoints"]),
                },
                "crash states": {
                    "bare": float(report.states_total),
                    "raid5 rows": float(row_report.states_total),
                },
                "  from a checkpoint": {
                    "bare": float(checker.from_checkpoint),
                    "raid5 rows": float(row_checker.from_checkpoint),
                },
                "newest copy corrupted": {"bare": float(corrupted.states_total), "raid5 rows": 0.0},
                "violations": {
                    "bare": float(len(report.violations) + len(corrupted.violations)),
                    "raid5 rows": float(len(row_report.violations)),
                },
                "mutant (no chain): violations": {
                    "bare": float(len(mutant.violations)),
                    "raid5 rows": 0.0,
                },
            },
            note="each state twice: as LLD recovers it, and with the region blanked",
        )
    )

    try:
        payload = json.loads(REPORT_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        payload = {"benchmark": "crash_matrix"}
    payload["checkpoint"] = {
        "config": CHECKPOINT_CONFIG,
        "bare": {
            "disk_mb": CHECKPOINT_MB,
            "journal_writes": recording.position,
            "ack_points": len(driver.oracle.points),
            "checkpoints_written": out["checkpoints_written"],
            "checkpoints_refused": out["checkpoints_refused"],
            "restarts": out["restarts"],
            "startup_checkpoints": out["startup_checkpoints"],
            "from_checkpoint": checker.from_checkpoint,
            **crash_matrix_summary(report),
            "corrupted_newest_copy": crash_matrix_summary(corrupted),
            "mutant_no_chain": {
                "states_explored": mutant.states_total,
                "violation_count": len(mutant.violations),
                "by_invariant": dict(Counter(v.invariant for v in mutant.violations)),
            },
        },
        "raid5_rows": {
            "members": PARITY_N,
            "member_mb": PARITY_MEMBER_MB,
            "chunk_sectors": PARITY_CHUNK_SECTORS,
            "journal_writes_total": row_recording.position,
            "ack_points": len(row_driver.oracle.points),
            "checkpoints_written": row_out["checkpoints_written"],
            "checkpoints_refused": row_out["checkpoints_refused"],
            "restarts": row_out["restarts"],
            "startup_checkpoints": row_out["startup_checkpoints"],
            "from_checkpoint": row_checker.from_checkpoint,
            **crash_matrix_summary(row_report),
        },
    }
    emit(f"wrote {write_json_report(REPORT_PATH, payload)}")

    assert report.states_total >= MIN_CHECKPOINT_STATES
    assert row_report.states_total >= MIN_CHECKPOINT_ROW_STATES
    assert report.states_by_kind.get("torn", 0) > 0
    assert row_report.states_by_kind.get("torn", 0) > 0
    # Most states, on both devices, recover from a checkpoint.
    assert checker.from_checkpoint > report.states_total // 2
    assert row_checker.from_checkpoint > row_report.states_total // 2
    assert corrupted.states_total > 0
    assert report.violations == [] and corrupted.violations == []
    assert row_report.violations == [], row_report.violations[:3]
    assert out["restarts"] == row_out["restarts"] == 2
    assert mutant.violations, "a recovery that does not follow the chain went unnoticed"

