"""Delta write path: small synced writes with and without delta flushes.

The paper's partial-segment strategy (§3.2) rewrites the whole open
segment on every below-threshold Flush, so a small-write fsync workload
pays O(n^2) bytes per segment fill. This benchmark measures what the
durable-watermark delta writer saves on exactly that workload — many
small files, each made durable with its own sync — and what group commit
(``flush_batch``) adds on top by coalescing syncs into one physical
Flush.

Acceptance: the delta path writes at most 1/3 of the baseline's physical
data bytes at default scale, and the state recovered after a crash is
byte-identical between the two paths. Results land in
``BENCH_write_path.json`` for CI to diff.
"""

from pathlib import Path

from repro.bench import (
    render_table,
    write_json_report,
    write_path_summary,
)
from repro.bench.builders import build_minix_lld
from repro.fs.minix import LDStore, MinixFS
from repro.fs.minix.inode import INODE_SIZE
from repro.lld import LLD
from repro.obs import registry_of
from benchmarks.conftest import emit

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_write_path.json"

COLUMNS = ["Sim. time (s)", "Phys. MB", "Disk writes", "Write amp"]

FILE_BYTES = 1024  # one small file per fsync


def run_fsync_workload(spec, delta: bool, flush_batch: int = 1):
    """``count`` tiny file creates, each followed by ``sync``.

    Returns the stack plus a *workload-only* metrics window: the registry
    is collected before the first create and diffed after the final
    barrier (``collect_delta``), so mkfs/mount setup I/O is excluded.
    """
    fs, lld = build_minix_lld(
        spec, delta_partial_flush=delta, flush_batch=flush_batch
    )
    registry = registry_of(fs)
    before = registry.collect()
    count = spec.small_file_count(1000)
    t0 = lld.disk.clock.now
    for i in range(count):
        fd = fs.open(f"/f{i}", create=True)
        fs.write(fd, bytes([i % 251 + 1]) * FILE_BYTES)
        fs.close(fd)
        fs.sync()
    fs.store.barrier()  # final durability point for batched runs
    elapsed = lld.disk.clock.now - t0
    window = registry.collect_delta(before)
    return fs, lld, count, elapsed, window


def _mask_mtimes(block: bytes) -> bytes:
    """Zero the mtime field of every i-node record in a packed block.

    The two write paths advance the virtual clock differently (that is
    the point of the benchmark), so i-node timestamps legitimately
    diverge; everything else must match byte for byte.
    """
    out = bytearray(block)
    for off in range(0, len(out) - INODE_SIZE + 1, INODE_SIZE):
        out[off + 8 : off + 12] = b"\x00\x00\x00\x00"
    return bytes(out)


def recovered_ld_image(lld: LLD) -> dict:
    """Crash, recover, and capture everything a client could observe."""
    lld.crash()
    fresh = LLD(lld.disk, lld.config)
    fresh.initialize()
    fs = MinixFS(LDStore(fresh), readahead=False)
    fs.mount()
    files = {}
    for name in sorted(fs.readdir("/")):
        fd = fs.open("/" + name)
        files[name] = fs.read(fd, 1 << 20)
        fs.close(fd)
    inode_first = fs.store._inode_first_bid
    inode_last = inode_first + fs.store._inode_bid_count
    blocks = {}
    for bid in sorted(fresh.state.blocks):
        data = fresh.read(bid)
        if inode_first <= bid < inode_last:
            data = _mask_mtimes(data)
        blocks[bid] = data
    lists = {lid: fresh.list_blocks(lid) for lid in sorted(fresh.state.lists)}
    return {"blocks": blocks, "lists": lists, "files": files}


def summarize(lld, elapsed: float) -> dict:
    out = write_path_summary(lld.stats.as_dict(), lld.disk.stats.as_dict())
    out["sim_time"] = elapsed
    return out


def run_comparison(spec):
    results = {}
    images = {}
    for label, delta in (("full image (paper)", False), ("delta flush", True)):
        _fs, lld, count, elapsed, window = run_fsync_workload(spec, delta=delta)
        results[label] = summarize(lld, elapsed)
        if delta:
            # Workload-only registry window over the delta stack (setup
            # I/O diffed out, captured before the crash below adds
            # recovery I/O to the disk counters).
            results["_metrics"] = window
        images[label] = recovered_ld_image(lld)
    assert images["full image (paper)"] == images["delta flush"]
    results["_count"] = count
    results["_recovered_identical"] = True
    return results


def run_group_commit_sweep(spec) -> list[dict]:
    sweep = []
    for batch in (1, 4, 16):
        fs, lld, count, elapsed, _window = run_fsync_workload(
            spec, delta=True, flush_batch=batch
        )
        entry = summarize(lld, elapsed)
        entry["flush_batch"] = batch
        entry["syncs"] = fs.store.stats.syncs
        entry["syncs_deferred"] = fs.store.stats.syncs_deferred
        entry["group_commits"] = fs.store.stats.group_commits
        sweep.append(entry)
    return sweep


def test_write_path(spec, benchmark):
    results = benchmark.pedantic(run_comparison, args=(spec,), rounds=1, iterations=1)
    sweep = run_group_commit_sweep(spec)

    rows = {}
    for label in ("full image (paper)", "delta flush"):
        s = results[label]
        rows[label] = {
            "Sim. time (s)": s["sim_time"],
            "Phys. MB": s["data_bytes_physical"] / (1024 * 1024),
            "Disk writes": s["disk_writes"],
            "Write amp": s["write_amplification"],
        }
    for entry in sweep:
        if entry["flush_batch"] == 1:
            continue
        rows[f"delta + batch={entry['flush_batch']}"] = {
            "Sim. time (s)": entry["sim_time"],
            "Phys. MB": entry["data_bytes_physical"] / (1024 * 1024),
            "Disk writes": entry["disk_writes"],
            "Write amp": entry["write_amplification"],
        }
    emit(
        render_table(
            f"Delta write path — {results['_count']} small-file fsyncs",
            COLUMNS,
            rows,
            note="recovered state byte-identical (modulo i-node mtimes)",
        )
    )

    base = results["full image (paper)"]
    delta = results["delta flush"]
    report = {
        "benchmark": "write_path",
        "scale": spec.scale,
        "file_count": results["_count"],
        "file_bytes": FILE_BYTES,
        "baseline": base,
        "delta": delta,
        "group_commit_sweep": sweep,
        "physical_bytes_ratio": (
            base["data_bytes_physical"] / delta["data_bytes_physical"]
            if delta["data_bytes_physical"]
            else None
        ),
        "sim_time_speedup": (
            base["sim_time"] / delta["sim_time"] if delta["sim_time"] else None
        ),
        "recovered_state_identical": results["_recovered_identical"],
        # Layer-prefixed workload-only window (collect_delta) over the
        # delta stack — the unified path all benchmark metrics flow through.
        "metrics": results["_metrics"],
    }
    emit(f"wrote {write_json_report(REPORT_PATH, report)}")

    # Acceptance: >= 3x fewer physical data bytes, identical recovery.
    assert delta["data_bytes_physical"] * 3 <= base["data_bytes_physical"]
    assert results["_recovered_identical"]
    # The delta path never makes durability weaker: every sync still flushed.
    assert delta["flushes"] >= results["_count"]
    # Group commit trades durability points for fewer, larger flushes.
    batched = next(e for e in sweep if e["flush_batch"] == 16)
    unbatched = next(e for e in sweep if e["flush_batch"] == 1)
    assert batched["flushes"] < unbatched["flushes"]
    assert batched["data_bytes_physical"] < unbatched["data_bytes_physical"]
