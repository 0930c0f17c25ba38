"""Vectored read path: coalesced list reads vs. a per-block read loop.

The paper keeps block lists clustered on disk (the cleaner even reorders
along chains, §3.5) but its MINIX hands the LD one ``Read`` per block —
which is why MINIX LLD loses every read phase of the paper's Table 5.
This benchmark measures what the clustering is worth once ``read_list``
fetches each physically contiguous run with a single multi-sector
request, and what the (off-by-default) LD cache plus successor read-ahead
add on top.

The ``fs_demand`` arm measures the same thing from above the file system:
``MinixFS.read`` maps a whole request and ``LDStore.read_zones`` fetches
its missing zones with one ``read_blocks`` (DESIGN.md §7), so an 8 KB
``fs.read`` on a cold cache is one LD request of two zones and — where the
two are adjacent in the log — one disk request.

Acceptance: sequential read of a clustered large file through
``read_list`` takes at most 1/3 of the per-block loop's simulated time
and at least 4x fewer disk requests; a cold 8 KB ``fs.read`` is one LD
request, and sequentially at most 0.55 disk requests per block. Results
land in ``BENCH_read_path.json`` for CI to diff.
"""

import random
from pathlib import Path

from repro.bench import render_table, write_json_report
from repro.bench.builders import build_minix_lld, fresh_disk
from repro.btree import BTree
from repro.ld.hints import LIST_HEAD
from repro.lld import LLD, LLDConfig
from repro.obs import registry_of
from benchmarks.conftest import emit

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_read_path.json"

COLUMNS = ["Sim. time (s)", "Disk reads", "KB/sec"]


def build_lld(spec, read_cache: bool = False):
    config = LLDConfig(
        segment_size=spec.segment_size,
        block_size=spec.block_size,
        checkpoint_slots=2,
        read_cache_enabled=read_cache,
    )
    lld = LLD(fresh_disk(spec), config)
    lld.initialize()
    return lld


def write_clustered_file(lld, nblocks: int) -> int:
    """One list, appended sequentially: the paper's clustered large file."""
    block = bytes(range(256)) * (lld.config.block_size // 256)
    lid = lld.new_list()
    prev = LIST_HEAD
    for _ in range(nblocks):
        bid = lld.new_block(lid, prev)
        lld.write(bid, block)
        prev = bid
    lld.flush()
    return lid


def timed_read(lld, fn):
    """Run ``fn`` and return (datas, sim_seconds, disk_reads)."""
    t0 = lld.disk.clock.now
    r0 = lld.disk.stats.reads
    datas = fn()
    return datas, lld.disk.clock.now - t0, lld.disk.stats.reads - r0


def run_comparison(spec):
    file_mb = spec.large_file_mb(80)
    nblocks = file_mb * 1024 * 1024 // spec.block_size

    baseline = build_lld(spec)
    lid = write_clustered_file(baseline, nblocks)
    bids = baseline.list_blocks(lid)
    base_data, base_time, base_reads = timed_read(
        baseline, lambda: [baseline.read(b) for b in bids]
    )

    vectored = build_lld(spec)
    lid_v = write_clustered_file(vectored, nblocks)
    vec_data, vec_time, vec_reads = timed_read(
        vectored, lambda: vectored.read_list(lid_v)
    )

    cached = build_lld(spec, read_cache=True)
    lid_c = write_clustered_file(cached, nblocks)
    bids_c = cached.list_blocks(lid_c)
    # Per-block loop, but read-ahead fills the cache along the way.
    ra_data, ra_time, ra_reads = timed_read(
        cached, lambda: [cached.read(b) for b in bids_c]
    )

    assert base_data == vec_data == ra_data
    return {
        "file_mb": file_mb,
        "nblocks": nblocks,
        "per-block loop": (base_time, base_reads),
        "read_list (vectored)": (vec_time, vec_reads),
        "loop + cache/read-ahead": (ra_time, ra_reads),
        "_lld": vectored,
        "_cached": cached,
        "_baseline": baseline,
    }


def run_btree_preload(spec):
    """Warm a whole B-tree with one vectored sweep, then scan it."""
    lld = build_lld(spec, read_cache=True)
    tree = BTree.create(lld)
    value = b"v" * 64
    for key in range(2000):
        tree.insert(key * 7, value)
    lld.flush()
    pages = tree.preload()
    _, scan_time, scan_reads = timed_read(
        lld, lambda: sum(1 for _ in tree.items())
    )
    return {"pages": pages, "scan_time": scan_time, "scan_reads": scan_reads}


FS_REQUEST = 8 * 1024


def run_fs_demand(spec):
    """Cold 8 KB ``fs.read`` calls over MINIX -> LDStore -> LLD -> one disk."""
    fs, lld = build_minix_lld(spec)
    total = spec.large_file_mb(80) * 1024 * 1024
    payload = bytes(range(256)) * (FS_REQUEST // 256)
    fd = fs.open("/large", create=True)
    for _ in range(total // FS_REQUEST):
        fs.write(fd, payload)
    sequential = list(range(0, total, FS_REQUEST))
    shuffled = sequential[:]
    random.Random(11).shuffle(shuffled)
    extra = fs.store.stats.extra
    arms = {}
    for label, offsets in (("sequential", sequential), ("random", shuffled)):
        fs.drop_caches()
        fills, zones = extra.get("vectored_fills", 0), extra.get("vectored_zones", 0)
        t0, r0 = lld.disk.clock.now, lld.disk.stats.reads
        for offset in offsets:
            fs.seek(fd, offset)
            assert fs.read(fd, FS_REQUEST) == payload
        ld_requests = extra["vectored_fills"] - fills
        arms[label] = {
            "sim_time": lld.disk.clock.now - t0,
            "disk_reads": lld.disk.stats.reads - r0,
            "ld_requests": ld_requests,
            "zones_per_ld_request": (extra["vectored_zones"] - zones) / ld_requests,
        }
    fs.close(fd)
    return {"request_bytes": FS_REQUEST, "requests": len(sequential), **arms}


def test_read_path(spec, benchmark):
    results = benchmark.pedantic(run_comparison, args=(spec,), rounds=1, iterations=1)
    btree = run_btree_preload(spec)
    fs_demand = run_fs_demand(spec)

    file_kb = results["file_mb"] * 1024
    rows = {}
    for label in ("per-block loop", "read_list (vectored)", "loop + cache/read-ahead"):
        seconds, reads = results[label]
        rows[label] = {
            "Sim. time (s)": seconds,
            "Disk reads": reads,
            "KB/sec": file_kb / seconds if seconds else 0.0,
        }
    for label in ("sequential", "random"):
        arm = fs_demand[label]
        rows[f"fs.read 8 KB, {label}"] = {
            "Sim. time (s)": arm["sim_time"],
            "Disk reads": arm["disk_reads"],
            "KB/sec": file_kb / arm["sim_time"],
        }
    emit(
        render_table(
            f"Vectored read path — {results['file_mb']} MB clustered file",
            COLUMNS,
            rows,
            note=(
                f"b-tree: preload {btree['pages']} pages, then full scan in "
                f"{btree['scan_reads']} disk reads"
            ),
        )
    )

    base_time, base_reads = results["per-block loop"]
    vec_time, vec_reads = results["read_list (vectored)"]

    report = {
        "benchmark": "read_path",
        "scale": spec.scale,
        "file_mb": results["file_mb"],
        "nblocks": results["nblocks"],
        "baseline": {"sim_time": base_time, "disk_reads": base_reads},
        "vectored": {"sim_time": vec_time, "disk_reads": vec_reads},
        "cached_loop": {
            "sim_time": results["loop + cache/read-ahead"][0],
            "disk_reads": results["loop + cache/read-ahead"][1],
        },
        "speedup": base_time / vec_time if vec_time else None,
        "reads_ratio": base_reads / vec_reads if vec_reads else None,
        "btree_preload": btree,
        "lld_stats": results["_lld"].stats.as_dict(),
        "cached_lld_stats": results["_cached"].stats.as_dict(),
        "vectored_disk": results["_lld"].disk.stats.as_dict(),
        "baseline_disk": results["_baseline"].disk.stats.as_dict(),
        "fs_demand": fs_demand,
        # The unified registry view of the vectored stack — the same
        # collect() path every benchmark's layer metrics flow through.
        "metrics": registry_of(results["_lld"]).collect(),
    }
    emit(f"wrote {write_json_report(REPORT_PATH, report)}")

    # Acceptance: >= 3x faster and >= 4x fewer disk requests.
    assert vec_time <= base_time / 3
    assert base_reads >= 4 * vec_reads
    # Read-ahead gets the per-block loop most of the same win.
    assert results["loop + cache/read-ahead"][1] < base_reads
    # The preloaded b-tree scans without touching the disk again.
    assert btree["scan_reads"] == 0
    # Every cold 8 KB fs.read is one LD request naming both zones, and a
    # sequential pass pays about one disk request per two blocks.
    for label in ("sequential", "random"):
        assert fs_demand[label]["ld_requests"] == fs_demand["requests"]
        assert fs_demand[label]["zones_per_ld_request"] == 2.0
    assert fs_demand["sequential"]["disk_reads"] <= 0.55 * results["nblocks"]
