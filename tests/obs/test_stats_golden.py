"""Golden ``as_dict()`` payloads of every stats object, pinned across
refactors of the stats classes and of the stack walker.

One seeded composed stack — two MINIX tenants and one raw-LD tenant on an
``LDServer`` over an LLD with NVRAM on a four-member RAID-5 volume — runs
a few hundred operations through a healthy phase, a degraded phase, a
rebuild, and a crash with recovery. The test then hashes
``json.dumps(x.as_dict(), sort_keys=True)`` of each of the nine stats
classes (``DiskStats`` as a member's and as the volume's request counters,
``VolumeStats``, ``LLDStats``, ``TenantCounters``, ``SchedStats``,
``TenantSchedStats``, ``StoreStats``, ``RecoveryReport``, ``NVRAM``), of
``snapshot().as_dict()`` of each, and of the stack registry's
``collect()`` before and after the recovery: every key, value type and
level of nesting that ``benchmarks/e2e/metrics.py`` and the committed
``BENCH_*.json`` read.

The table was captured from the PARENT commit of the PR that introduced
this file (cdfae8e, nine hand-written ``as_dict`` / ``snapshot`` pairs and
``bench.report.stack_registry``'s enumeration), by running, in a checkout
of that commit with this file copied in::

    PYTHONPATH=src python tests/obs/test_stats_golden.py

which prints the ``GOLDEN`` table. A digest that moves means a payload
gained, lost or retyped a leaf, or the workload below saw a different
request — ``tests/lld/test_log_golden.py`` and
``tests/volume/test_request_plan_golden.py`` tell the two apart.

Eight digests were re-captured, with the same command in its own
checkout, by the change that made a multi-tenant server's reads complete
at device time: ``sched`` gained ``reads_parked`` / ``read_inflight_s``
(and with ``registry`` / ``registry_recovered`` every figure those
parked reads move), and the drive's blocking tenants park 140 disk reads,
each followed by a wait at the device: a barrier on every member, after
every member's queue rather than the read's own (``disk_member``,
``disk_volume``, ``volume``: ``barriers`` 163 -> 321; the clock at the
first quiesce 4.5476 -> 4.5920 s),
reads that now queue in the member FIFOs (``volume`` read latencies,
members' rotation and busy time), acknowledgements a few ms apart
(``sched_tenant``), and the recovery's ``simulated_seconds`` the same
sweep at a later clock (equal to 1e-15). ``lld``, ``lld_tenant``,
``store`` and ``nvram`` are the parent's.
"""

import hashlib
import json
import random

import pytest

from repro.disk import SimulatedDisk, fast_test_disk
from repro.fs.minix import LDStore, MinixFS
from repro.ld.hints import LIST_HEAD
from repro.lld import LLD, LLDConfig
from repro.lld.nvram import NVRAM
from repro.sched import LDServer
from repro.sim import VirtualClock
from repro.volume import Volume

try:
    from repro.obs.stack import registry_of
except ImportError:  # the parent commit, where the table was captured
    from repro.bench.report import stack_registry

    def registry_of(fs):
        server = fs.store.ld.server
        return stack_registry(fs=fs, lld=server.ld, server=server)


#: payload name -> digest of the live object's ``as_dict()``; the
#: ``snapshot().as_dict()`` of each must hash to the same value.
GOLDEN = {
    'registry': 'e65527ab0e6d4666',
    'registry_recovered': '73915951059fd4be',
    'disk_member': 'cc5c5fa4b58f5b2e',
    'disk_volume': '5535e05778aff50d',
    'volume': '49428d05d7d72a6d',
    'lld': '8ae70804c6f1b387',
    'lld_tenant': 'bfddcd18a2a5b173',
    'sched': '7b061ad713d27909',
    'sched_tenant': '2d93347045241571',
    'store': '3235b3437cbb271b',
    'nvram': 'bb97c770510c185e',
    'recovery': '60a5990790375196',
}

VICTIM = 1
CONFIG = LLDConfig(
    segment_size=64 * 1024,
    summary_capacity=4096,
    block_size=4096,
    checkpoint_slots=1,
)


#: Counters younger than the capture, left out of a payload while they are
#: 0 — on this one-checkpoint-slot stack they always are: it never takes a
#: running checkpoint, and recovers by sweeping.
SINCE_CAPTURE = (
    "checkpoints_written", "checkpoint_bytes", "checkpoints_refused",
    "checkpoint_sequence", "summaries_followed",
)


def _digest(payload: dict) -> str:
    payload = {
        name: value
        for name, value in payload.items()
        if value or name.rsplit(".", 1)[-1] not in SINCE_CAPTURE
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Drive:
    """The composed stack and its seeded workload."""

    def __init__(self) -> None:
        members = [
            SimulatedDisk(fast_test_disk(capacity_mb=2), VirtualClock())
            for _ in range(4)
        ]
        self.volume = Volume(members, VirtualClock(), layout="raid5", chunk_sectors=128)
        self.nvram = NVRAM(capacity_bytes=32 * 1024)
        self.rng = random.Random("stats-golden")
        self.files: dict[str, list[str]] = {"alice": [], "bob": []}
        self.bids: list[int] = []
        self._serve(mkfs=True)

    def _serve(self, *, mkfs: bool) -> None:
        """LLD -> server -> tenants on the volume. A store finds its
        superblock at block 1, so only the first MINIX tenant can be
        mounted again after a crash; the second starts over."""
        self.lld = LLD(self.volume, CONFIG, nvram=self.nvram)
        self.lld.initialize()
        self.server = LDServer(self.lld, group_commit=2)
        self.fs: dict[str, MinixFS] = {}
        for name in ("alice", "bob"):
            store = LDStore(self.server.open_session(name), cache_bytes=64 * 1024)
            fs = self.fs[name] = MinixFS(store, readahead=False)
            if mkfs or name == "bob":
                fs.mkfs(ninodes=128)
                self.files[name] = []
            else:
                fs.mount()
        self.raw = self.server.open_session("raw")
        if mkfs:
            self.lid = self.raw.new_list()

    def _file_op(self, tenant: str, step: int) -> None:
        rng, fs, files = self.rng, self.fs[tenant], self.files[tenant]
        roll = rng.random()
        if roll < 0.45 or not files:
            path = f"/{tenant}-{step}"
            fd = fs.open(path, create=True)
            fs.write(fd, bytes([step % 251]) * rng.choice((700, 4096, 9000, 20000)))
            fs.close(fd)
            files.append(path)
        elif roll < 0.75:
            fd = fs.open(rng.choice(files))
            fs.read(fd, rng.choice((512, 4096, 16384)))
            fs.close(fd)
        elif roll < 0.85:
            fs.unlink(files.pop(rng.randrange(len(files))))
        else:
            fs.sync()
        if step % 17 == 0:
            fs.drop_caches()

    def _raw_op(self, step: int) -> None:
        rng, raw = self.rng, self.raw
        roll = rng.random()
        if roll < 0.5 or not self.bids:
            pred = self.bids[-1] if self.bids else LIST_HEAD
            bid = raw.new_block(self.lid, pred)
            raw.write(bid, bytes([step % 249]) * rng.choice((512, 2048, 4096)))
            self.bids.append(bid)
        elif roll < 0.8:
            raw.read(rng.choice(self.bids))
        elif roll < 0.9 and len(self.bids) > 2:
            raw.read_blocks(rng.sample(self.bids, 3))
        else:
            raw.flush()

    def run(self, steps: int, start: int) -> None:
        for step in range(start, start + steps):
            self._file_op("alice", step)
            self._file_op("bob", step)
            self._raw_op(step)

    def quiesce(self) -> None:
        for fs in self.fs.values():
            fs.sync()
        self.raw.flush()
        self.server.drain()

    def stats_objects(self) -> dict:
        lld, server = self.lld, self.server
        return {
            "disk_member": self.volume.disks[0].stats,
            "disk_volume": self.volume.stats,
            "volume": self.volume.volume_stats,
            "lld": lld.stats,
            "lld_tenant": lld.stats.tenants["alice"],
            "sched": server.stats,
            "sched_tenant": server.stats.tenants["raw"],
            "store": self.fs["bob"].store.stats,
            "nvram": self.nvram,
        }


def collect() -> dict[str, dict]:
    """``{payload name: as_dict()}`` at the end of the scripted run, with
    a ``<name>@snapshot`` twin for every stats object."""
    drive = Drive()
    drive.run(60, 0)
    drive.volume.fail_member(VICTIM)
    drive.run(30, 60)
    drive.volume.replace_member(VICTIM)
    drive.volume.rebuild_rate = 2.0
    drive.run(30, 90)
    drive.volume.rebuild_run_to_completion()
    drive.quiesce()
    out = {"registry": registry_of(drive.fs["alice"]).collect()}
    objects = drive.stats_objects()
    drive.run(5, 120)  # unsynced work for the crash to lose, NVRAM to hold
    drive.fs["alice"].sync()
    drive.lld.crash()
    drive._serve(mkfs=False)
    assert drive.lld.recovery_report is not None
    objects["recovery"] = drive.lld.recovery_report
    drive.run(10, 200)
    drive.quiesce()
    out["registry_recovered"] = registry_of(drive.fs["bob"]).collect()
    for name, stats in objects.items():
        out[name] = stats.as_dict()
        # (At the parent a tenant slice's copy was spelled ``copy()``.)
        twin = stats.snapshot() if hasattr(stats, "snapshot") else stats.copy()
        out[f"{name}@snapshot"] = twin.as_dict()
    return out


@pytest.fixture(scope="module")
def payloads():
    return collect()


def test_the_run_exercises_every_layer(payloads):
    assert payloads["volume"]["reconstructed_reads"] > 0
    assert payloads["volume"]["rebuilds_completed"] == 1
    assert payloads["lld"]["segments_sealed"] > 0
    assert payloads["lld"]["tenants"].keys() >= {"alice", "bob", "raw"}
    assert payloads["sched"]["group_commits"] > 0
    assert payloads["sched_tenant"]["acks"] > 0
    assert payloads["store"]["syncs"] > 0
    assert payloads["nvram"]["stores"] > 0
    assert payloads["recovery"]["records_applied"] > 0
    assert {"fs", "sched", "lld", "disk", "volume", "nvram", "space"} <= {
        key.split(".")[0] for key in payloads["registry"]
    }
    assert any(key.startswith("recovery.") for key in payloads["registry_recovered"])


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_payload_matches_the_parent(payloads, name):
    assert _digest(payloads[name]) == GOLDEN[name], name


@pytest.mark.parametrize(
    "name", sorted(n for n in GOLDEN if not n.startswith("registry"))
)
def test_snapshot_payload_equals_the_live_one(payloads, name):
    assert payloads[f"{name}@snapshot"] == payloads[name]


if __name__ == "__main__":
    print("GOLDEN = {")
    for name, payload in collect().items():
        if "@" not in name:
            print(f"    {name!r}: {_digest(payload)!r},")
    print("}")
