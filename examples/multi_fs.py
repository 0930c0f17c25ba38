#!/usr/bin/env python3
"""Figure 1 live: the LD interface separates file from disk management.

Two demonstrations:

1. **One file system, many LD implementations.** The same MINIX core runs
   over the log-structured LLD and over the update-in-place ULD — swapping
   the disk-management policy without touching file management.
2. **Many clients, one LD.** A MINIX file system and a raw-LD "database"
   (keeping B-tree-ish pages on its own block list) share a single LLD.
3. **Many tenants, one scheduled LD server.** Two MINIX file systems and
   the raw-LD database become *tenants* of one ``LDServer``: every call
   flows through a per-tenant request queue, the QoS elevator scheduler
   dispatches with DRR fairness, and each tenant's ``sync`` becomes a
   deferrable flush intent that the cross-tenant group commit pools into
   one physical Flush.

Run:  python examples/multi_fs.py
"""

from repro.disk import SimulatedDisk, hp_c3010
from repro.fs.minix import LDStore, MinixFS
from repro.ld.hints import LIST_HEAD
from repro.lld import LLD, LLDConfig
from repro.sched import LDServer, QoSElevatorScheduler
from repro.sim import VirtualClock
from repro.uld import ULD


def run_workload(fs, label: str, clock) -> None:
    t0 = clock.now
    fs.mkdir("/docs")
    for i in range(100):
        fd = fs.open(f"/docs/note-{i:03d}.txt", create=True)
        fs.write(fd, f"note number {i}\n".encode() * 20)
        fs.close(fd)
    fs.sync()
    total = 0
    for name in fs.readdir("/docs"):
        fd = fs.open(f"/docs/{name}")
        total += len(fs.read(fd, 1 << 16))
        fs.close(fd)
    print(f"  {label}: 100 files, {total} bytes read back, "
          f"{clock.now - t0:.2f} simulated seconds")


def one_fs_many_lds() -> None:
    print("1) the same MINIX core over two different LD implementations:")
    for label, make_ld in (
        ("LLD (log-structured) ", lambda d: LLD(d, LLDConfig())),
        ("ULD (update-in-place)", ULD),
    ):
        disk = SimulatedDisk(hp_c3010(capacity_mb=64), VirtualClock())
        ld = make_ld(disk)
        ld.initialize()
        fs = MinixFS(LDStore(ld), readahead=False)
        fs.mkfs(ninodes=1024)
        run_workload(fs, label, disk.clock)


def many_clients_one_ld() -> None:
    print("\n2) a file system and a raw-LD database sharing one LLD:")
    disk = SimulatedDisk(hp_c3010(capacity_mb=64), VirtualClock())
    lld = LLD(disk, LLDConfig())
    lld.initialize()

    # Client A: MINIX.
    fs = MinixFS(LDStore(lld), readahead=False)
    fs.mkfs(ninodes=1024)
    fd = fs.open("/report.txt", create=True)
    fs.write(fd, b"quarterly numbers\n" * 50)
    fs.close(fd)

    # Client B: a "database" storing fixed-size pages on its own list,
    # with each page update wrapped in an atomic recovery unit.
    pages_list = lld.new_list()
    pages = []
    prev = LIST_HEAD
    for page_no in range(16):
        aru = lld.begin_aru()
        page = lld.new_block(pages_list, prev)
        lld.write(page, page_no.to_bytes(2, "little") * 1024)  # 2 KB page
        lld.end_aru()
        pages.append(page)
        prev = page

    fs.sync()  # one Flush makes both clients' data durable

    fd = fs.open("/report.txt")
    fs_bytes = len(fs.read(fd, 1 << 16))
    db_ok = all(
        lld.read(page) == i.to_bytes(2, "little") * 1024
        for i, page in enumerate(pages)
    )
    print(f"  MINIX read {fs_bytes} bytes; database pages intact: {db_ok}")
    print(f"  one LD, {len(lld.state.lists)} lists, "
          f"{len(lld.state.blocks)} logical blocks, "
          f"{disk.clock.now:.2f} simulated seconds")


def multi_tenant_server() -> None:
    print("\n3) three tenants behind one scheduled LD server:")
    disk = SimulatedDisk(hp_c3010(capacity_mb=64), VirtualClock())
    lld = LLD(disk, LLDConfig())
    lld.initialize()
    server = LDServer(lld, QoSElevatorScheduler(), group_commit=3)

    # Tenants A and B: two *independent* MINIX file systems, each built
    # on its own session. A session implements the LogicalDisk surface,
    # so anything written against the LD interface becomes a tenant
    # unchanged. "mail" gets 2x the scheduler weight of "docs".
    fss = {}
    for name, weight in (("docs", 1.0), ("mail", 2.0)):
        session = server.open_session(name, weight=weight)
        fs = MinixFS(LDStore(session), readahead=False)
        fs.mkfs(ninodes=512)
        fss[name] = fs

    # Tenant C: the raw-LD database again, on its own session at half the
    # weight of "docs", each page update in its own atomic recovery unit.
    db = server.open_session("db", weight=0.5)
    pages_list = db.new_list()
    pages, prev = [], LIST_HEAD
    for page_no in range(16):
        with db.aru():
            page = db.new_block(pages_list, prev)
            db.write(page, page_no.to_bytes(2, "little") * 1024)
        pages.append(page)
        prev = page

    # Interleaved tenant work, each round ended by *deferrable* syncs —
    # the server pools three intents into one physical group commit.
    for i in range(12):
        for name, fs in fss.items():
            fd = fs.open(f"/{name}-{i:02d}.txt", create=True)
            fs.write(fd, f"{name} message {i}\n".encode() * 40)
            fs.close(fd)
        db.write(pages[i % len(pages)], i.to_bytes(2, "little") * 1024)
        for fs in fss.values():
            fs.sync()  # deferrable intent via the session
        db.request_flush()  # third intent commits the group
    server.close()

    db_ok = all(
        len(db.read(page)) == 2048 for page in pages
    )
    stats = server.stats
    print(f"  database pages intact: {db_ok}; "
          f"{stats.group_commits} group commits pooled "
          f"{stats.intents_committed} sync intents "
          f"({lld.stats.flushes} physical flushes)")
    for name, tstats in sorted(stats.tenants.items()):
        print(f"  tenant {name:>4}: {tstats.dispatched} ops dispatched, "
              f"{tstats.bytes_written} bytes written, "
              f"{tstats.acks} durable acks")
    print(f"  {disk.clock.now:.2f} simulated seconds")


def main() -> None:
    one_fs_many_lds()
    many_clients_one_ld()
    multi_tenant_server()


if __name__ == "__main__":
    main()
