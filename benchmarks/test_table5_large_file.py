"""Table 5: large-file benchmark, KB per second over five phases.

Paper (80 MB file in 8 KB chunks):

=========  =====  =====  ======  ======  =======
System     WSeq   RSeq   WRand   RRand   RSeq-2
=========  =====  =====  ======  ======  =======
MINIX LLD   1717    358    1130     250      354
MINIX        310    489     105     172      465
SunOS       1579   1952     403     633     1952
=========  =====  =====  ======  ======  =======

Shape claims: LLD turns all writes into sequential disk writes (~85% of
raw bandwidth; MINIX gets ~13% because each 4 KB write misses a rotation);
MINIX beats LLD on sequential re-reads (read-ahead + in-place layout);
SunOS wins all reads but loses random writes to LLD.

The paper's MINIX hands the disk manager one ``Read`` per 4 KB block, and
the read claims above are claims about that. Our MINIX maps a whole
``read`` first and the LD store fetches its missing zones with one
``read_blocks`` (DESIGN.md §7), so at the benchmark's 8 KB requests MINIX
LLD reads two blocks per disk request and overtakes MINIX. The read
ordering is therefore asserted on a second arm driven at one block per
request — the paper's behaviour, reproduced exactly — the 8 KB MINIX LLD
row stays in the table marked as vectored, and a request-size sweep shows
what list clustering is worth at the file-system level.
"""

import pytest

from repro.bench import (
    build_ffs,
    build_minix,
    build_minix_lld,
    large_file_benchmark,
    render_table,
)
from benchmarks.conftest import emit

PAPER = {
    "MINIX LLD": {"Write Seq.": 1717.0, "Read Seq.": 358.0, "Write Rand.": 1130.0, "Read Rand.": 250.0, "Read Seq. 2": 354.0},
    "MINIX": {"Write Seq.": 310.0, "Read Seq.": 489.0, "Write Rand.": 105.0, "Read Rand.": 172.0, "Read Seq. 2": 465.0},
    "SunOS": {"Write Seq.": 1579.0, "Read Seq.": 1952.0, "Write Rand.": 403.0, "Read Rand.": 633.0, "Read Seq. 2": 1952.0},
}

COLUMNS = ["Write Seq.", "Read Seq.", "Write Rand.", "Read Rand.", "Read Seq. 2"]

KB = 1024
SWEEP_KB = (4, 8, 16, 64)


def run_all(spec):
    file_mb = spec.large_file_mb(80)
    results = {}
    fs_lld, _lld = build_minix_lld(spec)
    results["MINIX LLD"] = large_file_benchmark(fs_lld, file_mb)
    results["MINIX"] = large_file_benchmark(build_minix(spec), file_mb)
    results["SunOS"] = large_file_benchmark(build_ffs(spec), file_mb)
    # The paper's request shape: one Read per file-system block.
    fs_lld, _lld = build_minix_lld(spec)
    results["MINIX LLD per-block"] = large_file_benchmark(
        fs_lld, file_mb, chunk_size=spec.block_size
    )
    results["MINIX per-block"] = large_file_benchmark(
        build_minix(spec), file_mb, chunk_size=spec.block_size
    )
    return results


def sequential_read_sweep(fs, file_mb: int) -> dict[int, float]:
    """KB/s of a cold sequential read of one file, per request size in KB."""
    total = file_mb * KB * KB
    clock = fs.store.clock
    payload = bytes(range(256)) * 32
    fd = fs.open("/sweep", create=True)
    for _ in range(total // len(payload)):
        fs.write(fd, payload)
    rates = {}
    for size in SWEEP_KB:
        fs.drop_caches()
        fs.seek(fd, 0)
        t0 = clock.now
        for _ in range(total // (size * KB)):
            assert len(fs.read(fd, size * KB)) == size * KB
        rates[size] = total / KB / (clock.now - t0)
    fs.close(fd)
    return rates


def test_table5_large_file(spec, benchmark):
    results = benchmark.pedantic(run_all, args=(spec,), rounds=1, iterations=1)

    labels = {
        "MINIX LLD": "MINIX LLD (measured, vectored: 2 blocks/Read)",
        "MINIX LLD per-block": "MINIX LLD (measured, 1 block/Read)",
        "MINIX per-block": "MINIX (measured, 1 block/Read)",
    }
    rows = {}
    for name in ("MINIX LLD", "MINIX LLD per-block", "MINIX", "MINIX per-block", "SunOS"):
        rows[labels.get(name, f"{name} (measured)")] = results[name].as_row()
        if name in PAPER:
            rows[f"{name} (paper)"] = PAPER[name]
    emit(
        render_table(
            f"Table 5 — {results['MINIX'].file_mb} MB file (KB/sec, simulated)",
            COLUMNS,
            rows,
            note="paper rows: 80 MB file on the real HP C3010",
        )
    )

    lld, minix, sunos = results["MINIX LLD"], results["MINIX"], results["SunOS"]
    lld_pb, minix_pb = results["MINIX LLD per-block"], results["MINIX per-block"]
    # LLD writes sequentially regardless of the access pattern.
    assert lld.write_seq > 4 * minix.write_seq
    assert lld.write_rand > 2 * sunos.write_rand
    assert lld.write_rand > 4 * minix.write_rand
    # MINIX's per-block writes get ~1/8 of the bandwidth LLD gets.
    assert lld.write_seq / minix.write_seq == pytest.approx(1717 / 310, rel=0.6)
    # Sequential reads, one Read per block as in the paper: SunOS
    # (aggressive read-ahead) > MINIX > LLD.
    assert sunos.read_seq > minix_pb.read_seq > lld_pb.read_seq
    # Re-read after random writes: MINIX's in-place layout stays sequential.
    assert minix_pb.reread_seq > lld_pb.reread_seq
    # LLD random reads are no worse than its sequential reads (log layout),
    # at either request size.
    assert lld_pb.read_rand == pytest.approx(lld_pb.read_seq, rel=0.4)
    assert lld.read_rand == pytest.approx(lld.read_seq, rel=0.4)
    # Two blocks per Read: the LD turns the request into one disk transfer.
    assert lld.read_seq > 1.5 * lld_pb.read_seq
    # Plain MINIX reads block by block whatever the request size.
    assert minix.read_seq == pytest.approx(minix_pb.read_seq, rel=0.01)


def test_table5_request_size_sweep(spec):
    """What list clustering is worth at the file-system level."""
    file_mb = spec.large_file_mb(80)
    fs_lld, _lld = build_minix_lld(spec)
    rates = {
        "MINIX LLD": sequential_read_sweep(fs_lld, file_mb),
        "MINIX": sequential_read_sweep(build_minix(spec), file_mb),
    }
    columns = [f"{size} KB" for size in SWEEP_KB]
    emit(
        render_table(
            f"Table 5 sweep — sequential read of a {file_mb} MB file by request size (KB/sec)",
            columns,
            {
                name: {f"{size} KB": rate for size, rate in by_size.items()}
                for name, by_size in rates.items()
            },
            note="MINIX LLD: one LD read_blocks per request; MINIX: one disk read per block + read-ahead",
        )
    )
    ld = [rates["MINIX LLD"][size] for size in SWEEP_KB]
    # Every doubling of the request is worth at least 1.5x until the
    # transfer itself dominates; 64 KB is > 4x the per-block rate.
    assert ld[1] > 1.5 * ld[0] and ld[2] > 1.5 * ld[1]
    assert ld[3] > 4 * ld[0]
    # At one block per request the paper's ordering holds; from 8 KB up the
    # LD wins.
    assert rates["MINIX"][4] > ld[0]
    assert all(rates["MINIX LLD"][size] > rates["MINIX"][size] for size in SWEEP_KB[1:])
