"""Golden ``as_dict()`` payloads of every stats object, pinned across
refactors of the stats classes and of the stack walker.

One seeded composed stack — two MINIX tenants and one raw-LD tenant on an
``LDServer`` over an LLD with NVRAM on a four-member RAID-5 volume — runs
a few hundred operations through a healthy phase, a degraded phase, a
rebuild, and a crash with recovery. The test then hashes
``json.dumps(x.as_dict(), sort_keys=True)`` of each of the eight stats
classes (``DiskStats`` as a member's and as the volume's request counters,
``VolumeStats``, ``LLDStats``, ``SchedStats``, ``TenantSchedStats``,
``StoreStats``, ``RecoveryReport``, ``NVRAM``) and of the stack
registry's ``collect()`` before and after the recovery: every key, value
type and
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

Four digests were re-captured, with the same command in this checkout,
by the change that took the per-tenant books out of the LLD, and the
``lld_tenant`` payload (``LLDStats.tenants["alice"]``) went with them.
Each new payload is the parent's with keys removed and added, and no
value of a kept key moved: ``lld`` lost ``tenants`` and the empty
``extra``; ``store`` lost ``extra``, whose ``vectored_fills``,
``vectored_zones`` and ``zones_per_fill`` are now top-level keys with the
same values (two declared counters and their derived ratio);
``registry`` and ``registry_recovered`` lost ``lld.tenants``,
``lld.extra`` and ``fs.extra`` and gained ``fs.vectored_fills``,
``fs.vectored_zones`` and ``fs.zones_per_fill`` (after the recovery 0,
0 and None, where ``fs.extra`` was empty). The other seven digests are
the parent's.

Six digests were re-captured, with the same command in this checkout, by
the change that lets a RAID-5 partial row pre-read its unwritten data
chunks instead of its old data and parity (reconstruct-write) when those
members are free sooner. The LLD asked for the same requests (``lld``,
``store``, ``nvram``, ``disk_volume`` and ``sched_tenant`` are the
parent's); 7 of the volume's 43 read-modify-write rows became
reconstruct-writes, so ``volume`` gained ``reconstruct_writes`` and moved
its member reads, pre-read counters and busy times (member bytes read
10 118 656 -> 9 772 032), ``disk_member`` (member 0) read two requests
fewer, ``sched`` and the registries moved with the acknowledgement times,
and ``recovery``'s ``simulated_seconds`` is the same sweep at a clock that
differs in the last bits (0.31092592592592627 -> 0.3109259259259254).

Seven digests were re-captured, with the same command in this checkout,
by the change that gave the volume one parity rule. The LLD asked for the
same requests again (``lld``, ``store``, ``nvram`` and ``disk_volume`` are
the parent's). The rebuild scanner now writes a row once its source reads
are back, later than before, so member clocks moved and three more
partial rows found reconstruct-write cheaper (``rmw_writes`` 36 -> 33,
``reconstruct_writes`` 7 -> 10); a degraded row whose lost fragment spans
the touched range no longer reads the old parity, so two rows rebuild no
lost chunk (``reconstructed_reads`` 12 -> 10, ``sub_reads`` 466 -> 464);
and a degraded row's pre-reads are counted like a healthy row's
(``preread_misses`` 61 -> 68). ``volume``, ``disk_member`` (member 0 read
two requests fewer), ``sched`` and ``sched_tenant`` (acknowledgement
times) and both registries moved with them, and ``recovery``'s
``simulated_seconds`` is the same sweep at a clock that differs in the
last bits again (0.3109259259259254 -> 0.31092592592592627).

Seven digests were re-captured, with the same command in this checkout,
by the change that answers a pre-read of sectors the volume never wrote
as zeros from the stripe cache's blank record (the stack is built on
blank members). The LLD asked for the same requests (``lld``, ``store``,
``nvram`` and ``disk_volume`` are the parent's). ``volume``: pre-reads
answered without a member read ``preread_hits`` 23 -> 75,
``preread_misses`` 68 -> 18, ``preread_sectors_saved`` 456 -> 5 172,
``sub_reads`` 464 -> 414, member bytes read 9 665 024 -> 7 797 248, and
with the cheaper read-modify-write three rows went back from
reconstruct-write (``rmw_writes`` 33 -> 36, ``reconstruct_writes``
10 -> 7), so per-member reads, busy times and write latencies moved;
``disk_member`` (member 0) read 12 requests fewer (162 -> 150);
``sched`` and ``sched_tenant`` moved with the earlier acknowledgements
(``commit_inflight_s`` 1.5645 -> 1.1534), the registries with all of
them; ``recovery``'s ``simulated_seconds`` is the same sweep at a clock
that differs in the last bits again (0.31092592592592627 ->
0.3109259259259254).

Seven digests were re-captured, with the same command in this checkout,
by the change that lets the log grant the volume stripe rows as blank
and the rebuild scanner skip a row blank on every other member. The LLD
asked for the same requests (``lld``, ``store``, ``nvram`` and
``disk_volume`` are the parent's). ``volume``: the scanner rebuilt 7 of
its 30 rows (the other 23 were never written, and went on the
replacement's record): ``rebuild_writes`` 30 -> 7, ``rebuild_reads``
90 -> 21; pre-reads answered from the record ``preread_hits`` 75 -> 85,
``preread_misses`` 18 -> 10, ``sub_reads`` 414 -> 406, member bytes read
7 797 248 -> 2 952 704 and written 4 986 368 -> 3 479 040; ``disk_member``
(member 0) read 24 requests fewer (150 -> 126); ``sched`` and
``sched_tenant`` moved with the earlier acknowledgements, the registries
with all of them; ``recovery``'s ``simulated_seconds`` is the same sweep
at a clock that differs in the last bits (0.3109259259259254 ->
0.31092592592592627).

Three digests were re-captured, with the same command in this checkout,
by the change that took the grants out again (parent 81b8e9e): a row the
log opens is no longer taken as blank, so the RAID-5 partial writes into
it pre-read from the members. The LLD asked for the same requests
(``lld``, ``store``, ``nvram``, ``disk_volume`` and ``recovery`` are the
parent's, and so are ``sched``, ``sched_tenant`` and ``registry``, taken
before the crash). ``volume``: ``preread_hits`` 85 -> 80,
``preread_misses`` 10 -> 15, ``preread_sectors_saved`` 6 058 -> 5 552,
``sub_reads`` 406 -> 411, member bytes read 2 952 704 -> 3 211 776,
``rmw_writes`` 36 -> 35 and ``reconstruct_writes`` 7 -> 8, with the
write latencies and per-member busy times that follow; ``disk_member``
(member 0) one read more (126 -> 127, 1 848 -> 1 997 sectors);
``registry_recovered`` holds both, and the later acknowledgements
(``sched`` ``commit_inflight_s`` 0.1527 -> 0.2194, tenants ``alice`` and
``bob`` ack latencies).

Eight digests were re-captured, with the same command in this checkout,
by the change that gave the summary header a previous prefix and a tail
check (twenty bytes) and dropped ``torn_write_protection``, which this
stack never set (parent 3c0b70b). Before the crash the LLD asked for the
same requests but one: a delta summary write of seven sectors where the
parent wrote six (``lld``: ``data_bytes_physical`` and ``seal_delta_bytes``
+512; ``disk_volume`` the same write), and member 2 took that sector,
which moved its busy time and the acknowledgement times after it
(``volume``, ``disk_member``, ``sched``, ``registry``). The recovery reads
the newest summary's last data sector: ``summary_read_requests`` 89 -> 90,
``simulated_seconds`` 0.3109 -> 0.3302 (``recovery``,
``registry_recovered``, one more single-sector read in ``disk_volume``
and ``volume``). The parent with twenty pad bytes in its header gives
every pre-crash payload of this table; ``sched_tenant``, ``store`` and
``nvram`` are the parent's.

Four digests were re-captured, with the same command in this checkout,
by the change that retired the scheduler's token-bucket rate caps (parent
2edb427): ``sched`` lost ``rate_limited`` and ``rate_cap_overrides``,
every tenant slice (``sched_tenant`` among them) lost ``rate_limited``,
and ``registry`` / ``registry_recovered`` lost the same keys under
``sched.``. All of them were 0. Each new digest is the parent's payload
with those keys dropped, and nothing else moved. The same change retired
``snapshot()``: each object's snapshot is now its payload before the
crash phase, and the check is that the snapshot plus the window to the
end is the live payload.
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
from repro.obs import diff_payloads
from repro.obs.hist import is_histogram_dict
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


#: payload name -> digest of the live object's ``as_dict()``.
GOLDEN = {
    'registry': '9c93d8ba6b710c04',
    'registry_recovered': 'b739a520234f6cb5',
    'disk_member': '4e5e19a39c99e584',
    'disk_volume': '08a9086876a26306',
    'volume': '3ed836a0bd3e763e',
    'lld': '8e64753121b68d97',
    'sched': '947693796fbbfe4c',
    'sched_tenant': '77694bb724ce7570',
    'store': '3b06141e31506476',
    'nvram': 'bb97c770510c185e',
    'recovery': '3dd5230c9d41863a',
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
            "sched": server.stats,
            "sched_tenant": server.stats.tenants["raw"],
            "store": self.fs["bob"].store.stats,
            "nvram": self.nvram,
        }


def collect() -> dict[str, dict]:
    """``{payload name: as_dict()}`` at the end of the scripted run, and
    for every stats object ``<name>@early``, its payload before the crash
    phase (empty for the recovery's report, which the crash makes)."""
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
    early = {name: stats.as_dict() for name, stats in objects.items()}
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
        out[f"{name}@early"] = early.get(name, {})
    return out


@pytest.fixture(scope="module")
def payloads():
    return collect()


def test_the_run_exercises_every_layer(payloads):
    assert payloads["volume"]["reconstructed_reads"] > 0
    assert payloads["volume"]["rebuilds_completed"] == 1
    assert payloads["lld"]["segments_sealed"] > 0
    assert payloads["sched"]["tenants"].keys() >= {"alice", "bob", "raw"}
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


def _leaves(payload: dict, path: tuple = ()):
    """``(path, number)`` of every counter in a payload, a histogram by its
    count and bucket counts (its other figures are not additive)."""
    for key, value in payload.items():
        if is_histogram_dict(value):
            yield path + (key, "count"), value["count"]
            for index, n in value["buckets"].items():
                yield path + (key, "buckets", index), n
        elif isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path + (key,), value


@pytest.mark.parametrize(
    "name", sorted(n for n in GOLDEN if not n.startswith("registry"))
)
def test_snapshot_payload_equals_the_live_one(payloads, name):
    """A payload taken before the crash phase (a snapshot) plus the window
    from it to the end (:func:`diff_payloads`) is the live payload at the
    end, counter by counter — across a crash, a recovery and a restart."""
    early, live = payloads[f"{name}@early"], payloads[name]
    before = dict(_leaves(early))
    window = dict(_leaves(diff_payloads(early, live)))
    for path, value in _leaves(live):
        assert before.get(path, 0) + window.get(path, 0) == pytest.approx(value), path


if __name__ == "__main__":
    print("GOLDEN = {")
    for name, payload in collect().items():
        if "@" not in name:
            print(f"    {name!r}: {_digest(payload)!r},")
    print("}")
