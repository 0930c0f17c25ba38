"""Python CPU cost of the LD hot paths: what the *host* pays per operation.

The simulated-I/O benchmarks charge virtual time; this one measures
process-time per operation for the write, read, flush, and recovery
paths of the one codec generation the tree carries. It used to run a
second, in-tree reference generation (per-entry record codecs, summary
rebuilt per flush) beside it and gate the ratio; that arm is deleted
(DESIGN.md §17) and its last committed figures are kept verbatim under
``frozen_baseline`` in the report, for the record only — they were
measured on another day's machine state and nothing compares against
them. CPU claims are judged end to end, calibrated and per layer, on
``cpu_us_per_op`` in ``benchmarks/e2e``.

Still verified here: stats bookkeeping (``DiskStats.record_request`` and
the LLD write counters) costs < 3% of write-path CPU, measured
analytically like ``test_obs_overhead``: per-call cost × exact call
count ÷ workload CPU.

Results land in ``BENCH_cpu_profile.json`` through the unified
MetricsRegistry path.
"""

import gc
import time
from pathlib import Path

from repro.bench import render_table, stack_registry, write_json_report
from repro.bench.builders import BuildSpec, build_minix_lld, fresh_disk
from repro.disk.stats import DiskStats
from repro.ld.hints import LIST_HEAD
from repro.lld import LLD, LLDConfig
from benchmarks.conftest import emit

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_cpu_profile.json"

COLUMNS = ["µs/op"]

FILE_BYTES = 1024
STATS_COST_LIMIT = 0.03

#: The deleted reference-codec arm's last committed figures, verbatim.
FROZEN_BASELINE = {
    "commit": "437b929",
    "arm": "per-entry reference codecs, summary rebuilt per flush",
    "bytes_copied": 3277824,
    "flush_us_per_op": 149.53141999999977,
    "fs_write_us_per_op": 259.51295000000044,
    "read_us_per_op": 12.346359999999557,
    "recovery_ms": 4.195299000000041,
    "recovery_records": 890,
    "stats_cost_fraction": 0.010899444049489558,
    "write_ops": 100,
    "write_us_per_op": 122.6385899999999,
}


def _cpu(fn, *args):
    """Process-time of one call, GC parked (same discipline as obs bench)."""
    gc.collect()
    gc.disable()
    t0 = time.process_time()
    out = fn(*args)
    elapsed = time.process_time() - t0
    gc.enable()
    return elapsed, out


def _ld_config(spec: BuildSpec) -> LLDConfig:
    return LLDConfig(
        segment_size=spec.segment_size,
        block_size=spec.block_size,
        checkpoint_slots=2,
    )


def run_ld_write_path(spec: BuildSpec):
    """Raw LD fsync loop: new_block + write + flush per op.

    Every op packs records into the open summary and runs a delta
    partial flush, with no file-system layer diluting the measurement.
    """
    lld = LLD(fresh_disk(spec), _ld_config(spec))
    lld.initialize()
    payload = bytes(range(256)) * (spec.block_size // 256)
    lid = lld.new_list()
    count = spec.small_file_count(1000)

    def work():
        prev = LIST_HEAD
        for _ in range(count):
            bid = lld.new_block(lid, prev)
            prev = bid
            lld.write(bid, payload)
            lld.flush()

    elapsed, _ = _cpu(work)
    return lld, count, elapsed


def run_fs_write_path(spec: BuildSpec):
    """Full-stack fsync workload (the BENCH_write_path shape)."""
    fs, lld = build_minix_lld(spec)
    count = spec.small_file_count(1000)

    def work():
        for i in range(count):
            fd = fs.open(f"/f{i}", create=True)
            fs.write(fd, bytes([i % 251 + 1]) * FILE_BYTES)
            fs.close(fd)
            fs.sync()

    elapsed, _ = _cpu(work)
    return fs, lld, count, elapsed


def run_read_path(fs, count: int):
    """Read back every file written by the full-stack write phase."""

    def work():
        for i in range(count):
            fd = fs.open(f"/f{i}")
            fs.read(fd, FILE_BYTES)
            fs.close(fd)

    elapsed, _ = _cpu(work)
    return elapsed


def run_flush_path(spec: BuildSpec):
    """Partial-flush component: one buffered write, many durable points.

    Each op re-flushes a growing open summary — the shape on which a
    rebuild-the-summary-per-flush codec goes quadratic.
    """
    lld = LLD(fresh_disk(spec), _ld_config(spec))
    lld.initialize()
    lid = lld.new_list()
    payload = b"\xa5" * 256
    count = spec.small_file_count(1000)
    prev = LIST_HEAD
    bids = []
    for _ in range(count):
        bid = lld.new_block(lid, prev)
        prev = bid
        bids.append(bid)

    def work():
        for bid in bids:
            lld.write(bid, payload)
            lld.flush()

    elapsed, _ = _cpu(work)
    return count, elapsed


def run_recovery_path(lld: LLD):
    """Crash the written stack and time the one-sweep recovery's CPU."""
    lld.crash()
    fresh = LLD(lld.disk, lld.config)
    elapsed, _ = _cpu(fresh.initialize)
    records = fresh.recovery_report.records_seen if fresh.recovery_report else 0
    return fresh, records, elapsed


def stats_cost_fraction(lld: LLD, write_cpu: float) -> float:
    """Analytic stats cost: per-call ns × exact call count ÷ workload CPU.

    ``record_request`` runs once per disk request; the LLD write counters
    (seven ``+=`` per logical write) are bounded by the same
    microbenchmark shape, so one measured per-call figure times the exact
    request+write count bounds the whole stats bill.
    """
    probe = DiskStats()
    iterations = 50_000
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(iterations):
            probe.record_request(8, True)
        best = min(best, time.perf_counter() - t0)
    per_call = best / iterations
    calls = lld.disk.stats.requests + lld.stats.blocks_written
    return per_call * calls / write_cpu if write_cpu else 0.0


def test_cpu_profile(spec, benchmark):
    cur: dict = {}
    stacks = {}

    def run_all():
        lld_w, n_w, cpu_w = run_ld_write_path(spec)
        cur["write_us_per_op"] = cpu_w / n_w * 1e6
        cur["write_ops"] = n_w
        cur["stats_cost_fraction"] = stats_cost_fraction(lld_w, cpu_w)
        n_f, cpu_f = run_flush_path(spec)
        cur["flush_us_per_op"] = cpu_f / n_f * 1e6
        # Full stack: write, then read back, then recover.
        fs, lld_fs, n_fs, cpu_fs = run_fs_write_path(spec)
        cur["fs_write_us_per_op"] = cpu_fs / n_fs * 1e6
        cur["read_us_per_op"] = run_read_path(fs, n_fs) / n_fs * 1e6
        recovered, n_rec, cpu_rec = run_recovery_path(lld_fs)
        cur["recovery_ms"] = cpu_rec * 1e3
        cur["recovery_records"] = n_rec
        stacks["fs"], stacks["lld"] = fs, recovered
        return cur

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = {
        "write (LD fsync)": "write_us_per_op",
        "write (full stack)": "fs_write_us_per_op",
        "read (full stack)": "read_us_per_op",
        "flush (buffered)": "flush_us_per_op",
    }
    emit(
        render_table(
            f"Hot-path CPU — {cur['write_ops']} ops/phase",
            COLUMNS,
            {label: {"µs/op": cur[key]} for label, key in rows.items()},
            note=(
                f"recovery {cur['recovery_ms']:.2f} ms over "
                f"{cur['recovery_records']} records; stats cost "
                f"{cur['stats_cost_fraction']:.1%} of write CPU"
            ),
        )
    )

    # The report flows through the unified registry: the stack's layer
    # counters plus a derived `cpu` source carrying this benchmark's own
    # figures.
    registry = stack_registry(fs=stacks["fs"], lld=stacks["lld"])
    registry.register("cpu", lambda: {"current": cur})

    report = {
        "benchmark": "cpu_profile",
        "scale": spec.scale,
        "file_bytes": FILE_BYTES,
        "current": cur,
        "frozen_baseline": FROZEN_BASELINE,
        "metrics": registry.collect(),
    }
    emit(f"wrote {write_json_report(REPORT_PATH, report)}")

    assert cur["stats_cost_fraction"] < STATS_COST_LIMIT, cur
