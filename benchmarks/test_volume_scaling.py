"""Volume scaling: throughput and latency vs spindle count.

The tentpole claim of the multi-disk volume layer: requests dispatched to
different spindles in one batch overlap in simulated time, so a striped
volume's sequential bandwidth scales near-linearly with member count
(Dagenais' RAID-performance measurements, PAPERS.md) while a 1-member
volume is *figure-identical* to the bare disk it wraps.

Four arms, all recorded in ``BENCH_volume_scaling.json``:

* **raw scaling** — sequential 1 MB reads and writes through bare striped
  volumes at N ∈ {1, 2, 4, 8}: simulated MB/s, p50/p99 request latency,
  per-spindle request/busy balance.
* **identity** — the same operation sequence against a bare
  ``SimulatedDisk`` and a 1-member volume must land both clocks and the
  member's ``DiskStats`` on identical figures (the no-regression gate for
  interposing the layer).
* **LLD end-to-end** — the paper stack (MINIX over LLD) on 1 vs 4
  spindles with segment-granular striping: file-write throughput plus the
  recovery sweep's simulated time. The fsync-heavy write path is
  barrier-serialized by design (each durability point drains every
  spindle), so its figure is a parity check; the parallel win the LLD
  stack banks is the recovery sweep, whose batched summary reads overlap
  across all members.
* **LLD on RAID-5** — the raw LD streaming blocks onto a 4-member RAID-5
  with segment-granular chunks, then one ``Flush``: the log leaves a
  stripe row at a time (DESIGN.md §8), so most of it reaches the volume
  as full-stripe writes. Simulated seconds, the volume's full-stripe and
  read-modify-write counts and its parity write amplification — the one
  place outside ``benchmarks/e2e`` that pins LLD-on-RAID-5 timing.

Acceptance (CI-gated): ≥3x simulated sequential read AND write throughput
at N=4 vs N=1, exact N=1 figure identity, and ≥2x faster recovery sweep
at N=4.
"""

import json
import os
import random
from pathlib import Path

from repro.bench import render_table, write_json_report
from repro.bench.builders import BuildSpec, build_minix_lld, fresh_volume
from repro.disk import SimulatedDisk, hp_c3010
from repro.ld import LIST_HEAD
from repro.lld import LLD, LLDConfig
from repro.sim import VirtualClock
from repro.volume import Volume
from repro.volume.volume import REBUILD_STEP_SECTORS
from benchmarks.conftest import emit

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_volume_scaling.json"

SPINDLE_COUNTS = (1, 2, 4, 8)
MEMBER_MB = 64
CHUNK_SECTORS = 256  # 128 KB stripe chunk
REQUEST_SECTORS = 2048  # 1 MB sequential requests
N_REQUESTS = 24

SPEEDUP_FLOOR_AT_4 = 3.0

PARITY_N = 4
LLD_RAID5_MB = 10  # twenty 0.5 MB segments: six stripe rows and a partial one
#: Full-stripe writes must beat the RMW small-write path by this much at
#: N=4 (ISSUE 9 acceptance): RMW pays 2 reads + 2 writes per fragment
#: where a full stripe pays N writes for N-1 chunks of payload.
FULL_VS_RMW_FLOOR = 2.0
REBUILD_RATES = (0.0, 0.5, 2.0, 8.0)
#: The stepped rebuild arm's chunk: 512 KB, the e2e stack's, which the
#: scanner rebuilds in eight steps of ``REBUILD_STEP_SECTORS``.
STEPPED_CHUNK_SECTORS = 1024
#: Its foreground: random 8 KB reads, the e2e ``degraded_rebuild`` unit.
STEPPED_READ_SECTORS = 16


def make_volume(n: int, layout: str = "stripe", chunk_sectors: int = CHUNK_SECTORS) -> Volume:
    members = [
        SimulatedDisk(hp_c3010(capacity_mb=MEMBER_MB), VirtualClock())
        for _ in range(n)
    ]
    return Volume(members, VirtualClock(), layout=layout, chunk_sectors=chunk_sectors)


def run_raw_arm(n: int) -> dict:
    """Sequential 1 MB writes then reads through an N-spindle stripe."""
    payload = os.urandom(REQUEST_SECTORS * 512)
    total_mb = N_REQUESTS * REQUEST_SECTORS * 512 / (1024 * 1024)

    volume = make_volume(n)
    t0 = volume.clock.now
    for i in range(N_REQUESTS):
        volume.write(i * REQUEST_SECTORS, payload)
    volume.barrier()
    write_seconds = volume.clock.now - t0

    t0 = volume.clock.now
    for i in range(N_REQUESTS):
        volume.read(i * REQUEST_SECTORS, REQUEST_SECTORS)
    read_seconds = volume.clock.now - t0

    rollup = volume.volume_stats.as_dict()
    return {
        "n_disks": n,
        "write_seconds": write_seconds,
        "read_seconds": read_seconds,
        "write_mb_per_s": total_mb / write_seconds,
        "read_mb_per_s": total_mb / read_seconds,
        "write_latency_p50_ms": rollup["write_latency_p50"] * 1000,
        "write_latency_p99_ms": rollup["write_latency_p99"] * 1000,
        "read_latency_p50_ms": rollup["read_latency_p50"] * 1000,
        "read_latency_p99_ms": rollup["read_latency_p99"] * 1000,
        "request_balance": rollup["request_balance"],
        "busy_balance": rollup["busy_balance"],
        "max_queue_depth": rollup["max_queue_depth"],
    }


def run_identity_arm() -> dict:
    """Bare disk vs 1-member volume under one operation sequence."""
    bare = SimulatedDisk(hp_c3010(capacity_mb=MEMBER_MB), VirtualClock())
    volume = make_volume(1)
    payload = os.urandom(REQUEST_SECTORS * 512)
    for i in range(8):
        bare.write(i * REQUEST_SECTORS, payload)
        volume.write(i * REQUEST_SECTORS, payload)
        if i % 3 == 0:
            bare.barrier()
            volume.barrier()
            assert bare.read(i * REQUEST_SECTORS, REQUEST_SECTORS) == volume.read(
                i * REQUEST_SECTORS, REQUEST_SECTORS
            )
    bare.barrier()
    volume.barrier()
    member = volume.disks[0]
    return {
        "bare_clock_s": bare.clock.now,
        "volume_clock_s": volume.clock.now,
        "clock_identical": bare.clock.now == volume.clock.now,
        "stats_identical": bare.stats.as_dict() == member.stats.as_dict(),
    }


def run_lld_arm(spec: BuildSpec, n: int) -> dict:
    """The paper stack over an N-spindle volume: writes + recovery sweep."""
    fs, lld = build_minix_lld(spec, n_disks=n)
    count = spec.small_file_count(300)
    file_bytes = 16 * 1024
    t0 = lld.disk.clock.now
    for i in range(count):
        fd = fs.open(f"/f{i}", create=True)
        fs.write(fd, os.urandom(file_bytes))
        fs.close(fd)
        if i % 8 == 7:
            fs.sync()
    fs.sync()
    write_seconds = lld.disk.clock.now - t0
    written_mb = count * file_bytes / (1024 * 1024)

    # Crash (no checkpoint): the fresh instance must one-sweep recover.
    recovered = LLD(lld.disk, lld.config)
    recovered.initialize()
    assert recovered.recovery_report is not None
    return {
        "n_disks": n,
        "files": count,
        "write_seconds": write_seconds,
        "write_mb_per_s": written_mb / write_seconds,
        "recovery_seconds": recovered.recovery_report.simulated_seconds,
        "recovery_read_requests": recovered.recovery_report.summary_read_requests,
    }


def run_lld_raid5_arm(spec: BuildSpec) -> dict:
    """The raw LD streaming onto RAID-5 with ``chunk == slot``, then a flush."""
    volume = fresh_volume(spec, PARITY_N, layout="raid5")
    lld = LLD(
        volume,
        LLDConfig(
            segment_size=spec.segment_size, block_size=spec.block_size, checkpoint_slots=2
        ),
    )
    lld.initialize()
    payload = bytes(range(256)) * (spec.block_size // 256)
    blocks = LLD_RAID5_MB * 1024 * 1024 // spec.block_size
    lid = lld.new_list()
    pred = LIST_HEAD
    t0 = volume.clock.now
    for _ in range(blocks):
        pred = lld.new_block(lid, pred)
        lld.write(pred, payload)
    lld.flush()
    seconds = volume.clock.now - t0
    rollup = volume.volume_stats.as_dict()
    return {
        "n_disks": PARITY_N,
        "blocks": blocks,
        "seconds": seconds,
        "mb_per_s": LLD_RAID5_MB / seconds,
        "segments_sealed": lld.stats.segments_sealed,
        "rows_written": lld.stats.rows_written,
        "full_stripe_writes": rollup["full_stripe_writes"],
        "rmw_writes": rollup["rmw_writes"],
        "reconstruct_writes": rollup["reconstruct_writes"],
        "parity_write_amp": rollup["total_bytes_written"] / volume.stats.bytes_written,
    }


def run():
    spec = BuildSpec.from_scale(0.1)
    raw = {n: run_raw_arm(n) for n in SPINDLE_COUNTS}
    identity = run_identity_arm()
    lld = {n: run_lld_arm(spec, n) for n in (1, 4)}
    return raw, identity, lld, run_lld_raid5_arm(spec)


def test_volume_scaling(benchmark):
    raw, identity, lld, lld_raid5 = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = {}
    for n, arm in raw.items():
        rows[f"stripe N={n}"] = {
            "Write MB/s": arm["write_mb_per_s"],
            "Read MB/s": arm["read_mb_per_s"],
            "p99 read (ms)": arm["read_latency_p99_ms"],
            "Req balance": arm["request_balance"],
        }
    emit(
        render_table(
            "Volume scaling (sequential 1 MB requests, 128 KB chunks)",
            ["Write MB/s", "Read MB/s", "p99 read (ms)", "Req balance"],
            rows,
            note="simulated throughput; per-spindle overlap model",
        )
    )
    emit(
        render_table(
            "LLD on striped volume (segment-granular placement)",
            ["Write MB/s", "Recovery (ms)", "Sweep reqs"],
            {
                f"LLD N={n}": {
                    "Write MB/s": arm["write_mb_per_s"],
                    "Recovery (ms)": arm["recovery_seconds"] * 1000,
                    "Sweep reqs": float(arm["recovery_read_requests"]),
                }
                for n, arm in lld.items()
            },
            note="same data, spindles split both the flush and the sweep",
        )
    )

    write_speedup_4 = raw[4]["write_mb_per_s"] / raw[1]["write_mb_per_s"]
    read_speedup_4 = raw[4]["read_mb_per_s"] / raw[1]["read_mb_per_s"]
    payload = {
        "benchmark": "volume_scaling",
        "chunk_sectors": CHUNK_SECTORS,
        "request_sectors": REQUEST_SECTORS,
        "n_requests": N_REQUESTS,
        "member_mb": MEMBER_MB,
        "raw": {str(n): arm for n, arm in raw.items()},
        "identity": identity,
        "lld": {str(n): arm for n, arm in lld.items()},
        "lld_raid5": lld_raid5,
        "write_speedup_at_4": write_speedup_4,
        "read_speedup_at_4": read_speedup_4,
        "speedup_floor": SPEEDUP_FLOOR_AT_4,
    }
    emit(f"wrote {write_json_report(REPORT_PATH, payload)}")
    emit(
        f"N=4 speedup: write {write_speedup_4:.2f}x, read {read_speedup_4:.2f}x "
        f"(floor {SPEEDUP_FLOOR_AT_4}x)"
    )

    # Acceptance: ≥3x sequential throughput at 4 spindles, both directions.
    assert write_speedup_4 >= SPEEDUP_FLOOR_AT_4
    assert read_speedup_4 >= SPEEDUP_FLOOR_AT_4
    # Monotone scaling across the swept spindle counts.
    for lo, hi in zip(SPINDLE_COUNTS, SPINDLE_COUNTS[1:]):
        assert raw[hi]["write_mb_per_s"] > raw[lo]["write_mb_per_s"]
        assert raw[hi]["read_mb_per_s"] > raw[lo]["read_mb_per_s"]
    # Spindle utilization stays balanced under the striped workload.
    for arm in raw.values():
        assert arm["request_balance"] >= 0.9
    # N=1 volume is figure-identical to the bare disk.
    assert identity["clock_identical"]
    assert identity["stats_identical"]
    # The LLD stack benefits end to end: the parallel recovery sweep.
    # (The fsync-heavy write path drains every spindle at each durability
    # point, so its figure is a parity check, not a speedup gate.)
    recovery_speedup = lld[1]["recovery_seconds"] / lld[4]["recovery_seconds"]
    emit(f"LLD recovery speedup at N=4: {recovery_speedup:.2f}x (floor 2.0x)")
    assert recovery_speedup >= 2.0
    assert lld[4]["write_seconds"] <= lld[1]["write_seconds"] * 1.10
    # A streaming log reaches RAID-5 mostly as full stripes.
    emit(
        f"LLD on RAID-5: {lld_raid5['mb_per_s']:.2f} MB/s, "
        f"{lld_raid5['full_stripe_writes']} full-stripe / {lld_raid5['rmw_writes']} RMW / "
        f"{lld_raid5['reconstruct_writes']} reconstruct writes, "
        f"parity write amp {lld_raid5['parity_write_amp']:.3f}"
    )
    assert lld_raid5["full_stripe_writes"] >= lld_raid5["segments_sealed"] // PARITY_N
    assert lld_raid5["parity_write_amp"] < 1.6


# ----------------------------------------------------------------------
# RAID-5 parity arms: full-stripe vs RMW, degraded reads, rebuild knob
# ----------------------------------------------------------------------


def written_volume(n_rows: int) -> Volume:
    """An N=4 RAID-5 whose first ``n_rows`` stripe rows were put there by an
    untimed full-stripe ``install``: no sector of them is blank, none is
    resident, so a small write there pre-reads from the members."""
    volume = make_volume(PARITY_N, "raid5")
    row_sectors = (PARITY_N - 1) * CHUNK_SECTORS
    volume.install(0, random.Random(n_rows).randbytes(n_rows * row_sectors * 512))
    return volume


def from_zero(volume: Volume) -> None:
    """Start every clock of ``volume`` over at zero once it is idle: the
    phase that follows is timed from its first request, not as a difference
    of absolute readings, which moves in the last bits whenever the untimed
    set-up before it changes. (For phases of reads and the rebuild scanner
    alone: no ordering barrier follows.)"""
    volume.drain()
    volume.clock = VirtualClock()
    for disk in volume.disks:
        disk.clock = VirtualClock()


def run_parity_write_arm() -> dict:
    """Full-stripe writes vs RMW small writes through an N=4 RAID-5.

    Both arms move the same number of payload bytes; the full-stripe arm
    writes whole rows (parity is XOR of the payload, no pre-reads) while
    the RMW arm writes one quarter-chunk per row (2 pre-reads + 2 writes
    per fragment) into rows written before — the classic RAID-5
    small-write penalty, which the gate pins at ≥2x. The ``blank`` arm
    makes the RMW arm's writes into each row's first data chunk on blank
    members: every old byte, data and parity, is one the volume never
    wrote, answered as zeros from its blank record, so no member is read.
    (Past the first chunk a row's parity ranges come round again, and the
    volume reads back the parity it wrote.)
    """
    row_sectors = (PARITY_N - 1) * CHUNK_SECTORS
    n_rows = 24
    payload = os.urandom(row_sectors * 512)
    total_mb = n_rows * row_sectors * 512 / (1024 * 1024)

    volume = make_volume(PARITY_N, "raid5")
    t0 = volume.clock.now
    for i in range(n_rows):
        volume.write(i * row_sectors, payload)
    volume.barrier()
    full_seconds = volume.clock.now - t0
    full_stats = volume.volume_stats.as_dict()

    small_sectors = CHUNK_SECTORS // 4
    n_small = n_rows * row_sectors // small_sectors
    small_payload = os.urandom(small_sectors * 512)

    def small_writes(volume: Volume, count: int) -> tuple[float, dict]:
        t0 = volume.clock.now
        for i in range(count):
            # One small fragment per stripe row: every write is an RMW.
            volume.write((i % n_rows) * row_sectors + (i // n_rows) * small_sectors,
                         small_payload)
        volume.barrier()
        return volume.clock.now - t0, volume.volume_stats.as_dict()

    rmw_seconds, rmw_stats = small_writes(written_volume(n_rows), n_small)
    rmw_mb = n_small * small_sectors * 512 / (1024 * 1024)
    n_blank = n_rows * CHUNK_SECTORS // small_sectors
    blank_seconds, blank_stats = small_writes(make_volume(PARITY_N, "raid5"), n_blank)
    blank_mb = n_blank * small_sectors * 512 / (1024 * 1024)

    # The same quarter-chunk written twice, row after row: the second
    # write's old data and old parity are what the first one wrote, which
    # the volume's stripe cache still holds — no pre-read at all.
    volume = written_volume(n_rows)
    t0 = volume.clock.now
    rewrite_member_reads = 0
    for i in range(n_rows):
        volume.write(i * row_sectors, small_payload)
        before = volume.volume_stats.sub_reads
        volume.write(i * row_sectors, small_payload)
        rewrite_member_reads += volume.volume_stats.sub_reads - before
    volume.barrier()
    resident_seconds = volume.clock.now - t0
    resident_stats = volume.volume_stats.as_dict()
    resident_mb = 2 * n_rows * small_sectors * 512 / (1024 * 1024)

    # The same quarter-chunk writes, each into the row's chunk on member
    # 0, while member 0 serves a long read (3 MB of its chunks further on):
    # read-modify-write would pre-read behind it, reconstruct-write reads
    # the row's other data chunks from members that are free.
    volume = written_volume(n_rows)
    pmap = volume.parity_map
    far = pmap.rows // 2
    volume.read_batch(
        [
            (pmap.to_logical(0, pmap.row_lba(row)), CHUNK_SECTORS)
            for row in range(far, far + 2 * PARITY_N * 4)
            if pmap.parity_disk(row) != 0
        ],
        wait=False,
    )
    t0 = volume.clock.now
    busy_rows = [row for row in range(n_rows) if pmap.parity_disk(row) != 0]
    for row in busy_rows:
        volume.write(pmap.to_logical(0, pmap.row_lba(row)), small_payload)
    volume.barrier()
    busy_seconds = volume.clock.now - t0
    busy_stats = volume.volume_stats.as_dict()
    busy_mb = len(busy_rows) * small_sectors * 512 / (1024 * 1024)

    return {
        "n_disks": PARITY_N,
        "full_stripe": {
            "mb_per_s": total_mb / full_seconds,
            "seconds": full_seconds,
            "full_stripe_writes": full_stats["full_stripe_writes"],
            "rmw_writes": full_stats["rmw_writes"],
        },
        "rmw": {
            "mb_per_s": rmw_mb / rmw_seconds,
            "seconds": rmw_seconds,
            "full_stripe_writes": rmw_stats["full_stripe_writes"],
            "rmw_writes": rmw_stats["rmw_writes"],
            "reconstruct_writes": rmw_stats["reconstruct_writes"],
        },
        "blank": {
            "mb_per_s": blank_mb / blank_seconds,
            "seconds": blank_seconds,
            "rmw_writes": blank_stats["rmw_writes"],
            "reconstruct_writes": blank_stats["reconstruct_writes"],
            "preread_hits": blank_stats["preread_hits"],
            "member_reads": blank_stats["sub_reads"],
        },
        "rmw_resident": {
            "mb_per_s": resident_mb / resident_seconds,
            "seconds": resident_seconds,
            "rmw_writes": resident_stats["rmw_writes"],
            "preread_hits": resident_stats["preread_hits"],
            "preread_misses": resident_stats["preread_misses"],
            "rewrite_member_reads": rewrite_member_reads,
        },
        "busy_member": {
            "mb_per_s": busy_mb / busy_seconds,
            "seconds": busy_seconds,
            "rmw_writes": busy_stats["rmw_writes"],
            "reconstruct_writes": busy_stats["reconstruct_writes"],
            "busy_member_reads": busy_stats["per_disk"][0]["reads"],
        },
        "full_vs_rmw_x": (total_mb / full_seconds) / (rmw_mb / rmw_seconds),
    }


def run_parity_degraded_arm() -> dict:
    """Sequential reads healthy vs degraded (one member reconstructing)."""
    volume = make_volume(PARITY_N, "raid5")
    payload = os.urandom(REQUEST_SECTORS * 512)
    n_requests = 16
    for i in range(n_requests):
        volume.write(i * REQUEST_SECTORS, payload)
    volume.barrier()
    total_mb = n_requests * REQUEST_SECTORS * 512 / (1024 * 1024)

    from_zero(volume)
    for i in range(n_requests):
        volume.read(i * REQUEST_SECTORS, REQUEST_SECTORS)
    healthy_seconds = volume.clock.now

    volume.fail_member(1)
    from_zero(volume)
    for i in range(n_requests):
        volume.read(i * REQUEST_SECTORS, REQUEST_SECTORS)
    degraded_seconds = volume.clock.now
    stats = volume.volume_stats.as_dict()

    return {
        "healthy_mb_per_s": total_mb / healthy_seconds,
        "degraded_mb_per_s": total_mb / degraded_seconds,
        "degraded_slowdown_x": degraded_seconds / healthy_seconds,
        "reconstructed_reads": stats["reconstructed_reads"],
    }


def run_rebuild_arm(rate: float) -> dict:
    """A fixed foreground read workload while rebuilding at ``rate``.

    The knob trades rebuild progress for foreground latency: every
    foreground request first donates ``rate`` stripe rows' worth of
    scanner steps (a 128 KB chunk is two 64 KB steps), which compete for
    the same spindles.
    """
    rng = random.Random(17)
    volume = make_volume(PARITY_N, "raid5")
    payload = os.urandom(REQUEST_SECTORS * 512)
    n_extents = 16
    for i in range(n_extents):
        volume.write(i * REQUEST_SECTORS, payload)
    volume.barrier()

    volume.fail_member(2)
    volume.replace_member(2)
    volume.rebuild_rate = rate
    n_foreground = 120
    from_zero(volume)
    for _ in range(n_foreground):
        i = rng.randrange(n_extents)
        volume.read(i * REQUEST_SECTORS, REQUEST_SECTORS)
    foreground_seconds = volume.clock.now
    stats = volume.volume_stats.as_dict()

    return {
        "rebuild_rate": rate,
        "foreground_reads": n_foreground,
        "foreground_seconds": foreground_seconds,
        "read_p50_ms": stats["read_latency_p50"] * 1000,
        "read_p99_ms": stats["read_latency_p99"] * 1000,
        "rebuild_progress": stats["rebuild_progress"],
        "rebuild_rows_done": stats["rebuild_rows_done"],
    }


def worst_access_ms(geometry, nsectors: int) -> float:
    """An upper bound on one member request's service time: the fixed
    overhead, a full-stroke seek, a whole revolution, the transfer, and a
    head switch or track-to-track seek at every track it crosses."""
    crossings = -(-nsectors // geometry.sectors_per_track)
    return (
        geometry.request_overhead_ms
        + geometry.max_seek_ms
        + geometry.revolution_time * 1000
        + nsectors * geometry.sector_time * 1000
        + crossings * max(geometry.head_switch_ms, geometry.min_seek_ms)
    )


def run_stepped_rebuild_arm() -> dict:
    """Random 8 KB reads while the scanner rebuilds 512 KB chunks.

    The rate donates one step per foreground request (an eighth of a row),
    so every read finds at most one step's reads and write ahead of it on
    any member: its worst latency stays under one step plus one read
    (``worst_read_ceiling_ms``), where a scanner that rebuilds a whole row
    at once makes the read behind it wait for half a megabyte read and
    written first.
    """
    rng = random.Random(19)
    volume = make_volume(PARITY_N, "raid5", STEPPED_CHUNK_SECTORS)
    row_sectors = (PARITY_N - 1) * STEPPED_CHUNK_SECTORS
    n_rows = 8
    volume.install(0, random.Random(n_rows).randbytes(n_rows * row_sectors * 512))
    volume.fail_member(2)
    volume.replace_member(2)
    steps_per_row = STEPPED_CHUNK_SECTORS // REBUILD_STEP_SECTORS
    volume.rebuild_rate = 1 / steps_per_row
    n_foreground = 120
    from_zero(volume)
    worst = 0.0
    for _ in range(n_foreground):
        lba = rng.randrange(n_rows * row_sectors // STEPPED_READ_SECTORS) * STEPPED_READ_SECTORS
        start = volume.clock.now
        volume.read(lba, STEPPED_READ_SECTORS)
        worst = max(worst, volume.clock.now - start)
    stats = volume.volume_stats.as_dict()
    geometry = volume.geometry.member
    step = worst_access_ms(geometry, REBUILD_STEP_SECTORS)
    return {
        "chunk_sectors": STEPPED_CHUNK_SECTORS,
        "rebuild_rate": volume.rebuild_rate,
        "foreground_reads": n_foreground,
        "foreground_seconds": volume.clock.now,
        "read_p50_ms": stats["read_latency_p50"] * 1000,
        "read_p99_ms": stats["read_latency_p99"] * 1000,
        "worst_read_ms": worst * 1000,
        "worst_read_ceiling_ms": 2 * step + worst_access_ms(geometry, STEPPED_READ_SECTORS),
        "rebuild_rows_done": stats["rebuild_rows_done"],
        "rebuild_reads": stats["rebuild_reads"],
        "rebuild_writes": stats["rebuild_writes"],
    }


def run_parity():
    write_arm = run_parity_write_arm()
    degraded = run_parity_degraded_arm()
    rebuild = [run_rebuild_arm(rate) for rate in REBUILD_RATES]
    return write_arm, degraded, rebuild, run_stepped_rebuild_arm()


def test_volume_parity(benchmark):
    write_arm, degraded, rebuild, stepped = benchmark.pedantic(run_parity, rounds=1, iterations=1)

    emit(
        render_table(
            "RAID-5 write paths (N=4, 128 KB chunks)",
            ["MB/s", "full-stripe", "RMW"],
            {
                "full-stripe rows": {
                    "MB/s": write_arm["full_stripe"]["mb_per_s"],
                    "full-stripe": float(write_arm["full_stripe"]["full_stripe_writes"]),
                    "RMW": float(write_arm["full_stripe"]["rmw_writes"]),
                },
                "small writes": {
                    "MB/s": write_arm["rmw"]["mb_per_s"],
                    "full-stripe": float(write_arm["rmw"]["full_stripe_writes"]),
                    "RMW": float(write_arm["rmw"]["rmw_writes"]),
                },
                "small writes, blank members": {
                    "MB/s": write_arm["blank"]["mb_per_s"],
                    "full-stripe": 0.0,
                    "RMW": float(write_arm["blank"]["rmw_writes"]),
                },
                "small writes, each twice": {
                    "MB/s": write_arm["rmw_resident"]["mb_per_s"],
                    "full-stripe": 0.0,
                    "RMW": float(write_arm["rmw_resident"]["rmw_writes"]),
                },
                "small writes, member 0 busy": {
                    "MB/s": write_arm["busy_member"]["mb_per_s"],
                    "full-stripe": 0.0,
                    "RMW": float(write_arm["busy_member"]["rmw_writes"]),
                },
            },
            note="the RAID-5 small-write penalty: 2 pre-reads + 2 writes per fragment "
            "(sectors never written and a range written again: their pre-reads "
            "come from the stripe cache; rows not counted as RMW reconstructed "
            "their parity instead)",
        )
    )
    emit(
        render_table(
            "RAID-5 rebuild-rate vs foreground latency (N=4)",
            ["p50 read (ms)", "p99 read (ms)", "progress"],
            {
                f"rate={arm['rebuild_rate']}": {
                    "p50 read (ms)": arm["read_p50_ms"],
                    "p99 read (ms)": arm["read_p99_ms"],
                    "progress": arm["rebuild_progress"],
                }
                for arm in rebuild
            },
            note="rows reconstructed per foreground request; scanner competes for spindles",
        )
    )
    emit(
        f"rebuild of 512 KB chunks in {REBUILD_STEP_SECTORS // 2} KB steps: 8 KB reads "
        f"p50 {stepped['read_p50_ms']:.1f} / p99 {stepped['read_p99_ms']:.1f} / worst "
        f"{stepped['worst_read_ms']:.1f} ms (ceiling {stepped['worst_read_ceiling_ms']:.1f}: "
        f"one step plus one read), {stepped['rebuild_rows_done']} rows rebuilt"
    )

    # Merge into the scaling report (test_volume_scaling writes first in
    # file order; stay robust if it did not run this session).
    try:
        payload = json.loads(REPORT_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        payload = {"benchmark": "volume_scaling"}
    payload["raid5"] = {
        "n_disks": PARITY_N,
        "chunk_sectors": CHUNK_SECTORS,
        "write_paths": write_arm,
        "degraded_read": degraded,
        "rebuild": rebuild,
        "rebuild_512k": stepped,
        "full_vs_rmw_floor": FULL_VS_RMW_FLOOR,
    }
    emit(f"wrote {write_json_report(REPORT_PATH, payload)}")
    emit(
        f"full-stripe vs RMW: {write_arm['full_vs_rmw_x']:.2f}x "
        f"(floor {FULL_VS_RMW_FLOOR}x); degraded read slowdown "
        f"{degraded['degraded_slowdown_x']:.2f}x"
    )

    # Acceptance (ISSUE 9): full-stripe ≥2x the RMW small-write path.
    assert write_arm["full_vs_rmw_x"] >= FULL_VS_RMW_FLOOR
    assert write_arm["full_stripe"]["rmw_writes"] == 0
    assert write_arm["rmw"]["full_stripe_writes"] == 0
    # A range written again is not read back: both buffers of every second
    # write hit, both of every first write miss.
    resident = write_arm["rmw_resident"]
    assert resident["rewrite_member_reads"] == 0
    assert resident["preread_hits"] == resident["preread_misses"] == resident["rmw_writes"]
    # Sectors never written are not read at all.
    assert write_arm["blank"]["member_reads"] == 0
    # Rows whose old data sits behind a long read pre-read the row's other
    # data chunks instead.
    assert write_arm["busy_member"]["reconstruct_writes"] > 0
    # Degraded reads reconstruct (and cost more than healthy ones).
    assert degraded["reconstructed_reads"] > 0
    assert degraded["degraded_slowdown_x"] > 1.0
    # The rebuild knob is a real tradeoff: more progress and higher
    # foreground p99 as the rate rises.
    progresses = [arm["rebuild_progress"] for arm in rebuild]
    assert progresses == sorted(progresses)
    assert progresses[0] == 0.0  # rate 0: paused scanner
    assert progresses[-1] > progresses[1]
    assert rebuild[-1]["read_p99_ms"] > rebuild[0]["read_p99_ms"]
    # A read behind the scanner waits for one step, not a whole row.
    assert stepped["worst_read_ms"] <= stepped["worst_read_ceiling_ms"]
