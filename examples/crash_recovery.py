#!/usr/bin/env python3
"""Crash consistency end to end: MINIX LLD across a power failure.

Shows the three recovery behaviours the paper promises:

* everything flushed before the crash is recovered exactly,
* an atomic recovery unit that never committed disappears completely
  (no fsck needed — paper §2.1),
* recovery reads segment summaries, not the disk: the paper's single
  sweep over all of them, or — with the default two checkpoint slots —
  the newest running checkpoint, the few slots it listed, and the chain
  of slots the log opened after them.

Run:  python examples/crash_recovery.py
"""

from repro.disk import SimulatedDisk, hp_c3010
from repro.fs.minix import LDStore, MinixFS
from repro.lld import LLD, LLDConfig
from repro.sim import VirtualClock


def main() -> None:
    disk = SimulatedDisk(hp_c3010(capacity_mb=64), VirtualClock())
    lld = LLD(disk, LLDConfig())
    lld.initialize()
    fs = MinixFS(LDStore(lld), readahead=False)
    fs.mkfs(ninodes=1024)

    # A mail spool: each message becomes a file.
    fs.mkdir("/spool")
    for i in range(25):
        fd = fs.open(f"/spool/msg-{i:04d}", create=True)
        fs.write(fd, f"Message {i}\n".encode() * 10000)
        fs.close(fd)
    fs.sync()
    print(
        f"wrote 25 messages and synced (simulated t={disk.clock.now:.2f}s, "
        f"{lld.stats.checkpoints_written} running checkpoint(s))"
    )

    # An application transaction that never commits: allocate a new message
    # and link it, all inside an ARU — then the power fails.
    lld.begin_aru()
    fd = fs.open("/spool/msg-half-written", create=True)
    fs.write(fd, b"this message must never be visible after the crash")
    fs.close(fd)
    fs.sync()  # durable, but the ARU never ends
    print("started (but never committed) an atomic recovery unit, then...")

    lld.crash()
    print("*** POWER FAILURE ***")

    # Restart: the summaries rebuild everything.
    reads_before = disk.stats.sectors_read
    recovered_lld = LLD(disk, lld.config)
    recovered_lld.initialize()
    swept = disk.stats.sectors_read - reads_before
    report = recovered_lld.recovery_report
    print(f"\n{report}")
    if report.checkpoint_sequence:
        print(
            f"recovery path: checkpoint {report.checkpoint_sequence} and "
            f"{report.segments_scanned} summaries — the slots it listed, "
            f"{report.summaries_followed} more along the chain "
            f"(of {recovered_lld.layout.segment_count})"
        )
    else:
        print(f"recovery path: the full sweep of {report.segments_scanned} summaries")
    print(
        f"sectors read during recovery: {swept} "
        f"(whole disk would be {disk.geometry.total_sectors})"
    )

    recovered_fs = MinixFS(LDStore(recovered_lld), readahead=False)
    recovered_fs.mount()
    names = recovered_fs.readdir("/spool")
    print(f"\nrecovered /spool holds {len(names)} messages")
    assert len(names) == 25, "exactly the committed messages survive"
    assert "msg-half-written" not in names, "the aborted ARU left no trace"
    fd = recovered_fs.open("/spool/msg-0013")
    content = recovered_fs.read(fd, 4096)
    assert content.startswith(b"Message 13")
    print(f"spot check msg-0013: {content[:11].decode()!r} ... OK")
    print("\nall committed data recovered; the aborted transaction vanished.")


if __name__ == "__main__":
    main()
