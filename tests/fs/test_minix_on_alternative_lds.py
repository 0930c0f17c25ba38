"""MINIX over the alternative LD implementations (Figure 1, vertical).

The LD interface promises any conforming implementation can sit under the
file system. These tests run the MINIX core over ULD (update-in-place)
and exercise durability through its shadow-paged metadata.
"""

import pytest

from repro.disk import SimulatedDisk, hp_c3010
from repro.fs.minix import LDStore, MinixFS
from repro.sim import VirtualClock
from repro.uld import ULD


def make_minix_on_uld(capacity_mb: int = 32):
    disk = SimulatedDisk(hp_c3010(capacity_mb=capacity_mb), VirtualClock())
    uld = ULD(disk)
    uld.initialize()
    fs = MinixFS(LDStore(uld, cache_bytes=1024 * 1024), readahead=False)
    fs.mkfs(ninodes=512)
    return fs, uld


def test_basic_workload_on_uld():
    fs, _uld = make_minix_on_uld()
    fs.mkdir("/home")
    for i in range(30):
        fd = fs.open(f"/home/file{i}", create=True)
        fs.write(fd, bytes([i]) * 2000)
        fs.close(fd)
    for i in range(30):
        fd = fs.open(f"/home/file{i}")
        assert fs.read(fd, 2000) == bytes([i]) * 2000
        fs.close(fd)
    for i in range(0, 30, 2):
        fs.unlink(f"/home/file{i}")
    assert len(fs.readdir("/home")) == 15


def test_minix_on_uld_survives_crash_after_sync():
    fs, uld = make_minix_on_uld()
    fd = fs.open("/persist", create=True)
    fs.write(fd, b"in-place but durable" * 50)
    fs.close(fd)
    fs.sync()
    uld.crash()
    fresh_uld = ULD(uld.disk)
    fresh_uld.initialize()
    fresh = MinixFS(LDStore(fresh_uld, cache_bytes=1024 * 1024), readahead=False)
    fresh.mount()
    fd = fresh.open("/persist")
    assert fresh.read(fd, 2000) == b"in-place but durable" * 50


def test_same_workload_same_results_across_lds():
    """Functional equivalence: the FS behaves identically over LLD/ULD."""
    from repro.lld import LLD, LLDConfig

    def run(make_ld):
        disk = SimulatedDisk(hp_c3010(capacity_mb=32), VirtualClock())
        ld = make_ld(disk)
        ld.initialize()
        fs = MinixFS(LDStore(ld, cache_bytes=1024 * 1024), readahead=False)
        fs.mkfs(ninodes=512)
        fs.mkdir("/d")
        for i in range(20):
            fd = fs.open(f"/d/f{i}", create=True)
            fs.write(fd, bytes([i]) * 1500)
            fs.close(fd)
        fs.rename("/d/f0", "/d/renamed")
        fs.unlink("/d/f1")
        fs.truncate("/d/f2", 100)
        listing = sorted(fs.readdir("/d"))
        contents = {}
        for name in listing:
            fd = fs.open(f"/d/{name}")
            contents[name] = fs.read(fd, 5000)
            fs.close(fd)
        return listing, contents

    lld_result = run(lambda d: LLD(d, LLDConfig(segment_size=128 * 1024, checkpoint_slots=1)))
    uld_result = run(ULD)
    assert lld_result == uld_result
