"""§4.2 recovery: time for LD + MINIX to start after a failure.

Paper: 12 seconds, dominated by reading 788 segment-summary blocks in one
sweep and rebuilding the block-number map. The reproduced number scales
with the partition size. The paper's LLD has one checkpoint region,
written at shutdown only, so its figure is taken on a one-slot build —
which never checkpoints while running and recovers by the sweep. The
claims verified here:

* recovery reads only the summaries (not the whole disk),
* recovery time is roughly linear in the number of segment slots,
* a clean shutdown restarts much faster than crash recovery,
* on the default build (two slots: running checkpoints, DESIGN.md §17) the
  same crash recovers from a checkpoint and the summaries of the slots it
  reserved, in at most half the sweep's time.
"""

from pathlib import Path

import pytest

from repro.bench import BuildSpec, build_minix_lld, write_json_report
from repro.bench.builders import fresh_disk
from repro.bench.recovery import crash_and_recover, populate
from repro.bench.report import render_table
from repro.fs.minix import make_minix_lld
from repro.lld import LLD, LLDConfig
from repro.obs import registry_of
from benchmarks.conftest import emit

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_recovery_time.json"


def build_one_slot(spec):
    """``build_minix_lld(spec)`` with the paper's single checkpoint region."""
    config = LLDConfig(
        segment_size=spec.segment_size, block_size=spec.block_size, checkpoint_slots=1
    )
    lld = LLD(fresh_disk(spec), config)
    lld.initialize()
    fs = make_minix_lld(
        lld, cache_bytes=spec.cache_bytes, ninodes=min(spec.ninodes, spec.block_size * 8)
    )
    return fs, lld


def run(spec, build=build_one_slot):
    """Populate, crash and recover; also returns the crashed LLD's stats."""
    fs, lld = build(spec)
    populate(fs, files=max(50, int(2000 * spec.scale)), file_bytes=8192)
    stats = lld.stats
    fresh_fs, fresh_lld, timing = crash_and_recover(fs, lld)
    return fresh_fs, fresh_lld, timing, stats


def start_up(spec, shutdown: bool) -> float:
    """Simulated seconds a one-slot LLD takes to start on a populated
    disk that was shut down cleanly, or crashed."""
    fs, lld = build_one_slot(spec)
    populate(fs, files=max(50, int(1000 * spec.scale)))
    if shutdown:
        lld.shutdown()
    else:
        lld.crash()
    clock = lld.disk.clock
    t0 = clock.now
    LLD(lld.disk, lld.config).initialize()
    return clock.now - t0


def test_recovery_after_crash(spec, benchmark):
    fresh_fs, fresh_lld, timing, _stats = benchmark.pedantic(
        run, args=(spec,), rounds=1, iterations=1
    )
    _fs, _lld, ckpt, ckpt_stats = run(spec, build_minix_lld)
    clean_seconds = start_up(spec, shutdown=True)

    slots = fresh_lld.layout.segment_count
    emit(
        render_table(
            "Recovery after failure (simulated seconds)",
            ["value"],
            {
                "LD one-sweep recovery": {"value": timing.ld_seconds},
                "MINIX mount": {"value": timing.fs_mount_seconds},
                "total": {"value": timing.total_seconds},
                "segment summaries read": {"value": float(timing.report.summaries_valid)},
                "segment slots scanned": {"value": float(slots)},
                "LD checkpoint + tail (default build)": {"value": ckpt.ld_seconds},
                "  summaries read": {"value": float(ckpt.report.segments_scanned)},
                "LD start-up after a clean shutdown": {"value": clean_seconds},
            },
            note="paper: 12 s for 788 summaries on a 400 MB partition (one-slot build)",
        )
    )
    # RecoveryReport flows through the same registry collect() path as the
    # read/write-path metrics: layer-prefixed, deterministically ordered.
    metrics = registry_of(fresh_fs, recovery=timing.report).collect()
    report = {
        "benchmark": "recovery_time",
        "scale": spec.scale,
        "ld_seconds": timing.ld_seconds,
        "fs_mount_seconds": timing.fs_mount_seconds,
        "total_seconds": timing.total_seconds,
        "segment_slots": slots,
        # The one-slot build's start-up after a clean shutdown: the image
        # alone (its first opening retires it).
        "clean_start_seconds": clean_seconds,
        "metrics": metrics,
        # The default build's recovery of the same crash, and the gate's
        # ceiling for it: half the sweep.
        "checkpoint": {
            "ld_seconds": ckpt.ld_seconds,
            "ld_seconds_ceiling": timing.ld_seconds / 2,
            "fs_mount_seconds": ckpt.fs_mount_seconds,
            "checkpoint_sequence": ckpt.report.checkpoint_sequence,
            "segments_scanned": ckpt.report.segments_scanned,
            "records_seen": ckpt.report.records_seen,
            "checkpoints_written": ckpt_stats.checkpoints_written,
        },
    }
    emit(f"wrote {write_json_report(REPORT_PATH, report)}")

    assert metrics["recovery.records_applied"] == timing.report.records_applied
    assert timing.report.records_applied > 0
    # One-sweep: the read volume is ~ summaries, far below the whole disk.
    summary_sectors = slots * fresh_lld.config.summary_sectors
    disk_sectors = fresh_lld.disk.geometry.total_sectors
    assert summary_sectors < disk_sectors / 20
    # Per-summary cost in the same ballpark as the paper's
    # (12 s / 788 summaries ~ 15 ms each, one revolution-ish per read).
    per_summary_ms = timing.ld_seconds * 1000.0 / max(1, slots)
    assert 2.0 <= per_summary_ms <= 40.0
    assert timing.report.checkpoint_sequence == 0
    # The default build: a checkpoint and its tail, well under the sweep.
    assert ckpt.report.checkpoint_sequence > 0
    assert ckpt.report.segments_scanned < slots / 4
    assert ckpt.ld_seconds <= timing.ld_seconds / 2
    assert ckpt.report.records_applied > 0


def test_clean_startup_much_faster_than_recovery(spec, benchmark):
    def run_both():
        # The same populated disk, shut down cleanly and crashed (the
        # sweep: a one-slot build checkpoints only at shutdown).
        return start_up(spec, shutdown=True), start_up(spec, shutdown=False)

    clean_time, crash_time = benchmark.pedantic(run_both, rounds=1, iterations=1)
    emit(
        f"clean startup: {clean_time * 1000:.1f} ms vs crash recovery: "
        f"{crash_time * 1000:.1f} ms (simulated)"
    )
    assert clean_time < crash_time / 3
