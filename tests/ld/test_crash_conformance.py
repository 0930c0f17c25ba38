"""Cross-implementation crash conformance over the LD interface.

The same append-only workload runs against all three Logical Disk
implementations — log-structured LLD, update-in-place ULD, and the
Loge-style controller — on a recording disk. Every enumerated crash
image (journal prefixes and torn multi-sector writes) must then satisfy
the implementation-independent contract of ``Flush``:

* bringing up a fresh instance on the image never raises, and
* every block acknowledged before the crash point reads back exactly;
  the recovered view equals some acknowledgement snapshot at or after
  the last one the image covers.

The workload is append-only (no overwrites) because the contract over
overwrites legitimately differs: ULD overwrites in place, so a torn
overwrite may mix old and new acknowledged contents — a trade-off the
paper accepts for update-in-place, not a conformance bug. Lists are
excluded for the same reason: Loge's list state is volatile by design.
"""

import pytest

from repro.crashsim import CrashStateEnumerator, OracleDriver, RecordingDisk, client_view
from repro.disk import SimulatedDisk, fast_test_disk
from repro.ld.hints import LIST_HEAD
from repro.lld import LLD, LLDConfig
from repro.loge import LogeDisk
from repro.sim import VirtualClock
from repro.uld import ULD


def lld_factory(disk):
    ld = LLD(
        disk,
        LLDConfig(
            segment_size=64 * 1024,
            summary_capacity=4096,
            block_size=4096,
            checkpoint_slots=1,
            torn_write_protection=True,
        ),
    )
    ld.initialize()
    return ld


def uld_factory(disk):
    ld = ULD(disk)
    ld.initialize()
    return ld


def loge_factory(disk):
    ld = LogeDisk(disk)
    ld.initialize()
    return ld


FACTORIES = {
    "lld": lld_factory,
    "uld": uld_factory,
    "loge": loge_factory,
}


def run_append_only_workload(ld, recording, n_blocks=10):
    """Create and write blocks once each, acknowledging every operation.

    The list the blocks go on is created around the mirror, so the
    snapshots hold block contents only. Returns the durability oracle.
    """
    driver = OracleDriver(ld, recording)

    def ack(label):
        driver.ack(ld, label)
        recording.barrier("ack")

    lid = ld.new_list()
    ack("create-list")
    pred = LIST_HEAD
    for i in range(n_blocks):
        bid = ld.new_block(lid, pred)
        driver.write(ld, bid, (f"conform-{i:03d}:".encode() * 400)[: 900 + (i % 4) * 777])
        ack(f"block-{i}")
        pred = bid
    return driver.oracle


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_crash_conformance(name):
    factory = FACTORIES[name]
    disk = SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock())
    recording = RecordingDisk(disk)
    ld = factory(recording)
    oracle = run_append_only_workload(ld, recording)
    assert recording.position >= 10, "workload must generate disk writes"
    universe = sorted(oracle.points[-1].blocks)

    enum = CrashStateEnumerator(recording)
    states = enum.enumerate()
    assert len(states) > 20
    failures = []
    for state in states:
        image = enum.materialize(state)
        try:
            recovered = factory(image)
        except Exception as exc:  # noqa: BLE001 - any escape is the bug
            failures.append(f"{state.kind} {state.detail}: recovery raised {exc!r}")
            continue
        view, _lists = client_view(recovered, universe, [])
        if oracle.match(state.covered_seq, view, {}) is None:
            failures.append(
                f"{state.kind} {state.detail}: recovered {len(view)} blocks "
                f"match no snapshot >= {oracle.latest_covered_index(state.covered_seq)}"
            )
    assert not failures, "\n".join(failures[:10])


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_acknowledged_blocks_survive_full_image(name):
    """Sanity anchor: the no-crash (full journal) image keeps everything."""
    factory = FACTORIES[name]
    disk = SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock())
    recording = RecordingDisk(disk)
    ld = factory(recording)
    final = run_append_only_workload(ld, recording).points[-1].blocks
    enum = CrashStateEnumerator(recording)
    full = next(
        s
        for s in enum.enumerate()
        if s.kind == "prefix" and s.covered_seq == recording.position
    )
    recovered = factory(enum.materialize(full))
    assert client_view(recovered, sorted(final), [])[0] == final
