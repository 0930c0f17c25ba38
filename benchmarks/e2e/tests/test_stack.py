"""The composed stack is the stack ``build_minix_lld`` builds, wrapped or not."""

import pytest

from repro.bench import BuildSpec, build_minix_lld  # the reference, tests only

from benchmarks.e2e.runner import run_child
from benchmarks.e2e.stack import Stack


def script(fs) -> None:
    """200 ops through the fd API: creates, overwrites, reads, unlinks, syncs."""
    for i in range(80):
        fd = fs.open(f"/s{i}", create=True)
        fs.write(fd, bytes([i % 251]) * (1024 * (1 + i % 4)))
        fs.close(fd)
        if i % 8 == 7:
            fs.sync()
    fs.drop_caches()
    for i in range(0, 80, 2):
        fd = fs.open(f"/s{i}")
        fs.read(fd, 4096)
        fs.seek(fd, 512)
        fs.write(fd, b"overwrite" * 100)
        fs.close(fd)
    for i in range(1, 80, 2):
        fs.unlink(f"/s{i}")
        if i % 16 == 15:
            fs.sync()
    fd = fs.open("/big", create=True)
    for _ in range(40):
        fs.write(fd, b"z" * 8192)
    fs.close(fd)
    fs.sync()


def test_unwrapped_stack_matches_build_minix_lld():
    ref_fs, ref_lld = build_minix_lld(
        BuildSpec.from_scale(0.1), n_disks=4, volume_layout="raid5", scheduler="qos"
    )
    stack = Stack()
    fs = stack.add_minix("fs")
    script(ref_fs)
    script(fs)
    assert stack.clock.now == ref_lld.disk.clock.now
    assert stack.lld.stats.as_dict() == ref_lld.stats.as_dict()
    assert stack.volume.volume_stats.as_dict() == ref_lld.disk.volume_stats.as_dict()
    assert fs.store.cache.capacity_bytes == ref_fs.store.cache.capacity_bytes


@pytest.mark.parametrize("name", ["smallfile_churn", "multitenant_mix", "degraded_rebuild"])
def test_wrapped_and_unwrapped_simulated_figures_are_identical(name, tmp_path):
    plain = run_child(name, 7, 0.05, False, tmp_path)
    traced = run_child(name, 7, 0.05, True, tmp_path)
    assert plain["failed"] == traced["failed"] == 0, plain["failures"] + traced["failures"]
    assert traced["sim"] == plain["sim"]
    assert traced["layers"] == plain["layers"]
    assert traced["attempted"] == plain["attempted"]
    assert (tmp_path / f"spans-{name}.jsonl").stat().st_size > 0
