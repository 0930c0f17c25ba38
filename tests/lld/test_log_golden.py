"""Golden request sequences for the LLD, pinned across refactors of its
write path (the counterpart of ``tests/volume/test_request_plan_golden.py``).

Eight scripted workloads drive an LLD through everything its log writer
distinguishes — partial flushes (absorbed, delta, full image), seals,
overwrites, deletes, explicit and space-driven cleaner passes, tombstone
compaction and ``scrub_slot`` (small ``max_tombstones``), ARUs
(committed, aborted, nested ``aru()``, crashed open), ``swap_contents``,
``reorganize`` / ``reorganize_hot``, compression, the read cache, and
crash → NVRAM replay → recovery in mid-script — on every combination of
``delta_partial_flush`` × ``torn_write_protection`` × NVRAM × bare disk /
stripe / RAID-5. A journalling wrapper between the LLD and its device
(``JournalDisk``: :class:`~repro.crashsim.RecordingDisk`'s idea extended
to reads, every barrier label, and volumes, which have no ``snapshot()``)
records the request sequence; at the end of a script the test hashes

* the journal: ``(w, lba, nsectors, crc32)``, ``(r, lba, nsectors)``,
  ``(R, [(lba, nsectors), ...])`` for ``read_batch``, ``(b, label)``;
* every clock (``repr`` of the floats), device and members;
* ``LLDStats.as_dict()`` of every LLD incarnation of the script;
* the final device image;
* the state a fresh LLD recovers from that image, and every block's bytes.

One script shape is left out on purpose: ``delete_list`` inside a
still-open ARU followed by cleaning. The parent under-pinned it (the
ARU's pin set missed the list's ``LIST_FIRST`` home), the victim choice
is *supposed* to change, and ``tests/lld/test_lld_aru.py`` pins the fix.

The constants below were captured from the PARENT commit of the PR that
introduced this file (d6408cc, the 1 454-line ``LLD`` class) by running,
in a checkout of that commit with this file copied in::

    PYTHONPATH=src python tests/lld/test_log_golden.py

which prints ``GOLDEN`` and the bytes that bypassed the funnel. Two stats
fields are allowed to differ from the parent, and only as ``bypassed()``
says: at the parent the ``compact_tombstones`` / ``scrub_slot`` scrub
writes and the NVRAM replay in ``initialize`` called ``disk.write``
directly, so ``data_bytes_physical`` (and ``write_amplification``,
derived from it) missed them. ``bypassed(script, config)`` is that
shortfall, measured at the parent as journalled write bytes minus
``data_bytes_physical``: 65 536 on all 24 configurations of
``compaction`` (16 scrubbed 4 KB summaries), 26 624 on the 12 NVRAM
configurations of ``nvram_replay`` and 5 632 on the 4 bare-disk NVRAM
configurations of ``arus`` (the image replayed after their mid-script
crash), 0 on the other 152 runs. The digest folds ``data_bytes_physical -
bypassed`` (the parent's figure), and the test separately asserts the
invariant that replaced it: every written byte is counted.
"""

import hashlib
import itertools
import json
import random
import zlib

import pytest

from repro.disk import SimulatedDisk, fast_test_disk
from repro.ld import LIST_HEAD, ListHints
from repro.lld import LLD, NVRAM, LLDConfig
from repro.sim.clock import VirtualClock
from repro.volume import Volume

SEGMENT = 64 * 1024
SECTOR = 512
DEVICES = ("bare", "stripe", "raid5")

GOLDEN: dict[str, dict[str, str]] = {
    'arus': {
        'bare/delta/torn/nvram': '2f8cceb8f89ae183',
        'bare/delta/torn/disk': '6b7ebbebbe0167ed',
        'bare/delta/plain/nvram': '83758be00a1a61d1',
        'bare/delta/plain/disk': '75c4ff1c57124e82',
        'bare/image/torn/nvram': 'f0529ad54d56a09f',
        'bare/image/torn/disk': '722e854b0732cffc',
        'bare/image/plain/nvram': '3db5de323821b287',
        'bare/image/plain/disk': '70bb797384b5a7d0',
        'stripe/delta/torn/nvram': '55d4aad2b036dd76',
        'stripe/delta/torn/disk': '59ac85e2f4ef2486',
        'stripe/delta/plain/nvram': 'c89782a5dd3a64cb',
        'stripe/delta/plain/disk': '0e7374968644db4e',
        'stripe/image/torn/nvram': 'c13927ba2b2b98e9',
        'stripe/image/torn/disk': '014e410284a62898',
        'stripe/image/plain/nvram': '3a29ce07386731a6',
        'stripe/image/plain/disk': '099e67300d4d2db6',
        'raid5/delta/torn/nvram': 'c6433a81ace2b9c8',
        'raid5/delta/torn/disk': '05fb7953833236a4',
        'raid5/delta/plain/nvram': 'e9bac6c9f1fb8f55',
        'raid5/delta/plain/disk': '4c801627b831c8e4',
        'raid5/image/torn/nvram': '5cf7a9e8c29fde9b',
        'raid5/image/torn/disk': '375dda7a5f46bb9a',
        'raid5/image/plain/nvram': '6a9e37be8988a32b',
        'raid5/image/plain/disk': '9ebbf74512d440bf',
    },
    'compaction': {
        'bare/delta/torn/nvram': 'fe6bf7549f99b7ca',
        'bare/delta/torn/disk': '337f2fbaae3dd636',
        'bare/delta/plain/nvram': 'f2b7211356e2a199',
        'bare/delta/plain/disk': 'c30a17c62164c90b',
        'bare/image/torn/nvram': '3b1f0e6bd70ef3b4',
        'bare/image/torn/disk': '2e80efb830692250',
        'bare/image/plain/nvram': '9b59e3c4b72d4c5a',
        'bare/image/plain/disk': 'a88d050992abaa85',
        'stripe/delta/torn/nvram': '44b8a914b54e6cff',
        'stripe/delta/torn/disk': 'de179317c28a8cd3',
        'stripe/delta/plain/nvram': '9bd15d945f03c782',
        'stripe/delta/plain/disk': '895877af38af46e4',
        'stripe/image/torn/nvram': '393351822484c247',
        'stripe/image/torn/disk': '0c1b0c5f0891e53a',
        'stripe/image/plain/nvram': '270bf43646f82eaa',
        'stripe/image/plain/disk': 'cb43e8c98c2a480f',
        'raid5/delta/torn/nvram': '68dfeadae11c5865',
        'raid5/delta/torn/disk': '1274b54b88589d09',
        'raid5/delta/plain/nvram': 'bd80cd956641cacb',
        'raid5/delta/plain/disk': '28d4ea3125319179',
        'raid5/image/torn/nvram': '47710fb0fc208c71',
        'raid5/image/torn/disk': '66af8cae4a48308c',
        'raid5/image/plain/nvram': '99f0aa3ca26d59dd',
        'raid5/image/plain/disk': '62c4d4441f97b6ac',
    },
    'compression': {
        'bare/delta/torn/nvram': '0d09e4b7d0da4006',
        'bare/delta/torn/disk': '0f5d72add257fbb3',
        'bare/delta/plain/nvram': '4c15c3b964a1f5b7',
        'bare/delta/plain/disk': '7d8cc990b679a087',
        'bare/image/torn/nvram': '03eb8efef22a4577',
        'bare/image/torn/disk': 'b3fa6fd10d143d22',
        'bare/image/plain/nvram': 'cd8c54eec2d05050',
        'bare/image/plain/disk': '83038de9e1961f5d',
        'stripe/delta/torn/nvram': 'bd23add55b59c17f',
        'stripe/delta/torn/disk': '47ca943bf8a43b99',
        'stripe/delta/plain/nvram': '61a16132abe0ae80',
        'stripe/delta/plain/disk': 'd073eb2a9c342145',
        'stripe/image/torn/nvram': '690fe59d3dd16f57',
        'stripe/image/torn/disk': '83c50a8dfd84fa0e',
        'stripe/image/plain/nvram': 'c032e56ec1f2c354',
        'stripe/image/plain/disk': '6c2c27d77a7218e5',
        'raid5/delta/torn/nvram': '42f7628ab853f238',
        'raid5/delta/torn/disk': '59330e0546a2a748',
        'raid5/delta/plain/nvram': '35882e260c2d6b80',
        'raid5/delta/plain/disk': '469311d4ca7150ff',
        'raid5/image/torn/nvram': 'f98fc12a112100db',
        'raid5/image/torn/disk': 'b218d8d975b629c2',
        'raid5/image/plain/nvram': '5ae17beecafc3782',
        'raid5/image/plain/disk': '070fe421ee158e75',
    },
    'deletes_clean': {
        'bare/delta/torn/nvram': '5977d6a870ded18b',
        'bare/delta/torn/disk': 'dc81c1823a804d2b',
        'bare/delta/plain/nvram': '4a326da4156143df',
        'bare/delta/plain/disk': 'e1581bd97e320be5',
        'bare/image/torn/nvram': '0dba12ef0b25c231',
        'bare/image/torn/disk': '8459c2d475ec184f',
        'bare/image/plain/nvram': '276fec7936d879e8',
        'bare/image/plain/disk': 'c7117779e60f99fb',
        'stripe/delta/torn/nvram': '3db0c96e5843a810',
        'stripe/delta/torn/disk': '29f218f14563fbd4',
        'stripe/delta/plain/nvram': 'cdcefb78ae8a0e7d',
        'stripe/delta/plain/disk': '504523869d45ff09',
        'stripe/image/torn/nvram': 'b19568d80a407b67',
        'stripe/image/torn/disk': '7798c48fb3da8f11',
        'stripe/image/plain/nvram': 'd5ecf2334790fa91',
        'stripe/image/plain/disk': 'be23df30e9e17c6c',
        'raid5/delta/torn/nvram': 'e038bbed445a828a',
        'raid5/delta/torn/disk': '959947614579c99c',
        'raid5/delta/plain/nvram': '6b539508dbb111e3',
        'raid5/delta/plain/disk': '064fa7c5e93db6f8',
        'raid5/image/torn/nvram': '3f6bca44b33c0464',
        'raid5/image/torn/disk': '4a4400b656bdd7cd',
        'raid5/image/plain/nvram': 'a9f6409583d2f118',
        'raid5/image/plain/disk': '2531978747a529d4',
    },
    'flushes': {
        'bare/delta/torn/nvram': 'd75e78ea85be633d',
        'bare/delta/torn/disk': '6257015be1b14c9e',
        'bare/delta/plain/nvram': '702d85156b8e1ce8',
        'bare/delta/plain/disk': '35786b6e13fbfa22',
        'bare/image/torn/nvram': '0340c63dde36566a',
        'bare/image/torn/disk': '3bbf4233d2529d25',
        'bare/image/plain/nvram': 'f3eff2acd6d218f3',
        'bare/image/plain/disk': '477db912472bef81',
        'stripe/delta/torn/nvram': '6c0671b666f2fd50',
        'stripe/delta/torn/disk': '04d83b610d1e7995',
        'stripe/delta/plain/nvram': '3b5b8e5845947984',
        'stripe/delta/plain/disk': '42a9968d9c7cb622',
        'stripe/image/torn/nvram': 'a32c92cb2c38fec4',
        'stripe/image/torn/disk': '62578258b43ef5f1',
        'stripe/image/plain/nvram': '7de2c33c3c4714f2',
        'stripe/image/plain/disk': '2b3651b6316ccd09',
        'raid5/delta/torn/nvram': 'a57b9bf0f451f240',
        'raid5/delta/torn/disk': '92de7e2f8eaf07d6',
        'raid5/delta/plain/nvram': '52be05318cdc50bc',
        'raid5/delta/plain/disk': 'd3965988a62daea3',
        'raid5/image/torn/nvram': '51e5a9be80a64427',
        'raid5/image/torn/disk': '58ddc57884b8687d',
        'raid5/image/plain/nvram': 'a59eb77c90c48fac',
        'raid5/image/plain/disk': '0345ab64ae7a3e56',
    },
    'nvram_replay': {
        'bare/delta/torn/nvram': '74875b09858ec1de',
        'bare/delta/torn/disk': '61ab9d06f60ffcff',
        'bare/delta/plain/nvram': 'd739e80a10f68e25',
        'bare/delta/plain/disk': '7ae26d9509d15794',
        'bare/image/torn/nvram': '24b8cdd944c1a3e4',
        'bare/image/torn/disk': 'd973bf44cc8fa455',
        'bare/image/plain/nvram': '26507e7ea425f094',
        'bare/image/plain/disk': '7f1d3b10c89a4f7b',
        'stripe/delta/torn/nvram': '7cfd25c3057e774c',
        'stripe/delta/torn/disk': '5e43830c6bf6d63f',
        'stripe/delta/plain/nvram': '751926e31573b2c5',
        'stripe/delta/plain/disk': 'e8d6988e61819d18',
        'stripe/image/torn/nvram': '837e3d9925eacfc7',
        'stripe/image/torn/disk': '6febfc8953d36287',
        'stripe/image/plain/nvram': 'e8704af7a3511a30',
        'stripe/image/plain/disk': '6cc4b61091a3e9d2',
        'raid5/delta/torn/nvram': '15503e6f25218dd0',
        'raid5/delta/torn/disk': 'e2ed73b0181d2874',
        'raid5/delta/plain/nvram': 'f9530b5ce8346166',
        'raid5/delta/plain/disk': 'ee66ee3dcf6d7b20',
        'raid5/image/torn/nvram': '7e89666a6115465b',
        'raid5/image/torn/disk': 'c884333674281238',
        'raid5/image/plain/nvram': 'e7ad6d84254fca21',
        'raid5/image/plain/disk': '827d8543622fc52f',
    },
    'read_cache': {
        'bare/delta/torn/nvram': '50bc11129928555e',
        'bare/delta/torn/disk': '50bc11129928555e',
        'bare/delta/plain/nvram': 'bf11d6777d90fc83',
        'bare/delta/plain/disk': 'bf11d6777d90fc83',
        'bare/image/torn/nvram': '5cee7474065d25a4',
        'bare/image/torn/disk': '5cee7474065d25a4',
        'bare/image/plain/nvram': 'df28fbe00560c08a',
        'bare/image/plain/disk': 'df28fbe00560c08a',
        'stripe/delta/torn/nvram': '2d3b5b5a4dcd733a',
        'stripe/delta/torn/disk': '2d3b5b5a4dcd733a',
        'stripe/delta/plain/nvram': '0afeb87a5da10e74',
        'stripe/delta/plain/disk': '0afeb87a5da10e74',
        'stripe/image/torn/nvram': 'f6bb73815758cf23',
        'stripe/image/torn/disk': 'f6bb73815758cf23',
        'stripe/image/plain/nvram': '6e80bf47c40164d8',
        'stripe/image/plain/disk': '6e80bf47c40164d8',
        'raid5/delta/torn/nvram': '8a63ebef1d3f5356',
        'raid5/delta/torn/disk': '8a63ebef1d3f5356',
        'raid5/delta/plain/nvram': '25b62c4ffdd42d38',
        'raid5/delta/plain/disk': '25b62c4ffdd42d38',
        'raid5/image/torn/nvram': 'a1fd87d36c265a1c',
        'raid5/image/torn/disk': 'a1fd87d36c265a1c',
        'raid5/image/plain/nvram': 'f1d38ff33a72fedc',
        'raid5/image/plain/disk': 'f1d38ff33a72fedc',
    },
    'reorganize': {
        'bare/delta/torn/nvram': '08e3dcdcad66041b',
        'bare/delta/torn/disk': '08e3dcdcad66041b',
        'bare/delta/plain/nvram': '75c8d7dc4fc4eea7',
        'bare/delta/plain/disk': '75c8d7dc4fc4eea7',
        'bare/image/torn/nvram': '752aba8527595c9d',
        'bare/image/torn/disk': '752aba8527595c9d',
        'bare/image/plain/nvram': 'ae3c40c3961f8876',
        'bare/image/plain/disk': 'ae3c40c3961f8876',
        'stripe/delta/torn/nvram': '3e6965b56b76df31',
        'stripe/delta/torn/disk': '3e6965b56b76df31',
        'stripe/delta/plain/nvram': '79adf0959d7b911e',
        'stripe/delta/plain/disk': '79adf0959d7b911e',
        'stripe/image/torn/nvram': '08fafe43123fc158',
        'stripe/image/torn/disk': '08fafe43123fc158',
        'stripe/image/plain/nvram': '72a8a068cdced68d',
        'stripe/image/plain/disk': '72a8a068cdced68d',
        'raid5/delta/torn/nvram': '698404544cfb5f3c',
        'raid5/delta/torn/disk': '698404544cfb5f3c',
        'raid5/delta/plain/nvram': 'b5c6d86d2cf58367',
        'raid5/delta/plain/disk': 'b5c6d86d2cf58367',
        'raid5/image/torn/nvram': 'aea07014a3080ed8',
        'raid5/image/torn/disk': 'aea07014a3080ed8',
        'raid5/image/plain/nvram': 'c1b6f633ecd678dc',
        'raid5/image/plain/disk': 'c1b6f633ecd678dc',
    },
}


def bypassed(script: str, cid: str) -> int:
    """Bytes the parent wrote around ``_disk_write`` (see module docstring)."""
    if script == "compaction":
        return 16 * 4096
    if script == "nvram_replay" and cid.endswith("/nvram"):
        return 26624
    if script == "arus" and cid.startswith("bare/") and cid.endswith("/nvram"):
        return 5632  # its mid-script crash finds an image in the NVRAM too
    return 0


class JournalDisk:
    """Pass-through device wrapper that remembers every request."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.log: list[tuple] = []
        self.bytes_written = 0

    def read(self, lba, nsectors):
        self.log.append(("r", lba, nsectors))
        return self.inner.read(lba, nsectors)

    def read_batch(self, requests):
        self.log.append(("R", [list(r) for r in requests]))
        return self.inner.read_batch(requests)

    def write(self, lba, data):
        data = bytes(data)
        self.log.append(("w", lba, len(data) // SECTOR, zlib.crc32(data)))
        self.bytes_written += len(data)
        self.inner.write(lba, data)

    def barrier(self, label="barrier"):
        self.log.append(("b", label))
        self.inner.barrier(label)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def make_device(kind: str):
    if kind == "bare":
        return SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock())
    members = [
        SimulatedDisk(fast_test_disk(capacity_mb=1), VirtualClock()) for _ in range(4)
    ]
    return Volume(members, VirtualClock(), layout=kind, chunk_sectors=SEGMENT // SECTOR)


class Rig:
    """One device, one config, and the LLD incarnations a script runs on it."""

    def __init__(self, script: str, device: str, delta: bool, torn: bool, nvram: bool, **config) -> None:
        self.device = make_device(device)
        self.disk = JournalDisk(self.device)
        self.config = LLDConfig(
            segment_size=SEGMENT,
            summary_capacity=4096,
            block_size=4096,
            checkpoint_slots=1,
            min_free_segments=2,
            delta_partial_flush=delta,
            torn_write_protection=torn,
            **config,
        )
        # A quarter segment: small partial images are absorbed, larger
        # ones overflow to the disk paths.
        self.nvram = NVRAM(capacity_bytes=SEGMENT // 4) if nvram else None
        self.rng = random.Random(f"log-golden/{script}")
        self.past_stats: list[dict] = []
        self.boot()

    def boot(self) -> None:
        self.lld = LLD(self.disk, self.config, nvram=self.nvram)
        self.lld.initialize()

    def crash(self) -> None:
        """Power-fail the LLD and recover a fresh one on the same device."""
        self.past_stats.append(self.lld.stats.as_dict())
        self.lld.crash()
        self.boot()

    def data(self, nbytes: int) -> bytes:
        return self.rng.randbytes(nbytes)

    def squeezable(self, nbytes: int) -> bytes:
        word = self.rng.randbytes(16)
        return (word * (nbytes // 16 + 1))[:nbytes]

    def grow(self, lid: int, count: int, nbytes: int = 4096, pred: int = LIST_HEAD) -> list[int]:
        """Append ``count`` written blocks to ``lid`` after ``pred``."""
        bids = []
        for _ in range(count):
            pred = self.lld.new_block(lid, pred)
            self.lld.write(pred, self.data(nbytes))
            bids.append(pred)
        return bids


# ----------------------------------------------------------------------
# Scripts
# ----------------------------------------------------------------------


def script_flushes(rig: Rig) -> None:
    """Partial flushes of every flavour, the seal threshold, overwrites."""
    lld = rig.lld
    lid = lld.new_list()
    small = rig.grow(lid, 6, 64)
    lld.flush()  # first flush onto the slot
    lld.flush()  # nothing new
    for bid in small[:3]:
        lld.write(bid, rig.data(200))
    lld.flush()  # records + data
    lld.new_block(lid, small[-1])
    lld.flush()  # records only
    big = rig.grow(lid, 4, 4096, small[-1])
    lld.flush()
    lld.flush_list(lid)
    rig.grow(lid, 9, 4096, big[-1])  # past the 75% threshold
    lld.flush()  # seals
    lld.flush()  # empty open segment
    for bid in big:
        lld.write(bid, rig.data(3000))
    lld.flush()
    rig.grow(lid, 40)  # several seals back to back
    for bid in small:
        lld.write(bid, rig.data(64))
        lld.flush()
    lld.read_list(lid)


def script_deletes_clean(rig: Rig) -> None:
    """Deletes with good and stale hints, explicit and space-driven cleaning."""
    lld = rig.lld
    lists = [lld.new_list() for _ in range(3)]
    chains = [rig.grow(lid, 20) for lid in lists]
    lld.flush()
    for lid, chain in zip(lists[:2], chains):
        for i in range(len(chain) - 1, 0, -2):
            hint = chain[i - 1] if i % 4 else chain[0]
            lld.delete_block(chain[i], lid, pred_bid_hint=hint)
        lld.delete_block(chain[0], lid)
    lld.delete_list(lists[2])
    lld.flush()
    lld.clean(3)
    lld.flush()
    # Churn: overwrite a working set half the size of the device, at
    # random, with more bytes than the device holds — every segment stays
    # partly live, so sealing has to call the cleaner for free slots.
    lid = lld.new_list()
    slots = lld.layout.segment_count
    hot = rig.grow(lid, slots * 7)
    for i in range(slots * 18):
        lld.write(hot[rig.rng.randrange(len(hot))], rig.data(4096))
        if i % 97 == 0:
            lld.flush()
    lld.flush()
    lld.read_blocks(hot[::7])


def script_compaction(rig: Rig) -> None:
    """Tombstone compaction, shallow and deep, then an explicit scrub."""
    lld = rig.lld
    keep = lld.new_list()
    rig.grow(keep, 8)
    for _round in range(10):
        lid = lld.new_list()
        chain = rig.grow(lid, 24, 2048)
        lld.flush()
        for bid in chain[::2]:
            lld.delete_block(bid, lid)
        lld.delete_list(lid)
    lld.flush()
    # One bulk delete far past 8 x max_tombstones: the next seal cleans
    # live cold segments to retire them (deep pass).
    lid = lld.new_list()
    rig.grow(lid, 180, 64)
    rig.grow(keep, 16)
    lld.delete_list(lid)
    rig.grow(keep, 32)
    lld.flush()
    state = lld.state
    stale = sorted(
        slot
        for slot in state.summary_min_ts
        if slot != lld.open_segment_index and state.usage.get(slot, 0) <= 0
    )
    for slot in stale[:2]:
        lld.cleaner.scrub_slot(slot)
    lld.flush()


def script_arus(rig: Rig) -> None:
    """Committed, aborted, nested, failed and crashed-open ARUs; swaps."""
    lld = rig.lld
    lid = lld.new_list()
    base = rig.grow(lid, 6, 1024)
    lld.flush()
    lld.begin_aru()
    a = lld.new_block(lid, base[0])
    lld.write(a, rig.data(512))
    lld.write(base[1], rig.data(512))
    lld.end_aru()
    lld.flush()
    lld.begin_aru()
    lld.write(base[2], rig.data(700))
    lld.new_block(lid, LIST_HEAD)
    lld.abort_aru()
    with lld.aru():
        lld.write(base[3], rig.data(900))
        with lld.aru():
            lld.write(base[4], rig.data(900))
            lld.delete_block(base[5], lid, pred_bid_hint=base[4])
        lld.write(base[3], rig.data(901))
    with pytest.raises(KeyError):
        with lld.aru():
            lld.write(base[0], rig.data(100))
            raise KeyError("client failure inside the unit")
    lld.swap_contents(base[0], base[1])
    with lld.aru():
        lld.swap_contents(base[2], base[3])
    lld.flush()
    # A long unit on a fragmented, half-full device: seals, and the
    # cleaner passes they call for, run inside it and must leave the
    # segments it pinned alone.
    other = lld.new_list()
    slots = lld.layout.segment_count
    hot = rig.grow(other, slots * 6)
    for _ in range(slots * 10):
        lld.write(hot[rig.rng.randrange(len(hot))], rig.data(4096))
    cleanings = lld.stats.cleanings
    lld.begin_aru()
    for bid in base[:4]:
        lld.write(bid, rig.data(2048))
    for bid in rig.grow(other, slots * 2)[::2]:
        lld.delete_block(bid, other)
    lld.delete_block(a, lid)
    assert lld.stats.cleanings > cleanings and lld.aru_excluded_segments()
    lld.end_aru()
    lld.flush()
    # Crash with a unit open: its flushed records must not come back.
    lld.begin_aru()
    lld.write(base[0], rig.data(333))
    lld.new_block(lid, base[0])
    lld.flush()
    rig.crash()
    lld = rig.lld
    lld.write(base[0], rig.data(444))
    lld.read_list(lid)
    lld.flush()


def script_reorganize(rig: Rig) -> None:
    """Fragmented lists put back in order; the hot set clustered."""
    lld = rig.lld
    lists = [lld.new_list() for _ in range(3)]
    lists.append(lld.new_list(hints=ListHints(cluster=False)))
    tails = [LIST_HEAD] * len(lists)
    chains: list[list[int]] = [[] for _ in lists]
    for _ in range(14):
        for i, lid in enumerate(lists):
            tails[i] = lld.new_block(lid, tails[i])
            lld.write(tails[i], rig.data(4096 if i else 700))
            chains[i].append(tails[i])
    lld.new_block(lists[0], tails[0])  # allocated, never written
    lld.move_sublist(chains[1][2], chains[1][5], lists[1], lists[2], chains[2][0])
    lld.move_sublist(chains[2][8], chains[2][9], lists[2], lists[0], LIST_HEAD)
    lld.move_list(lists[2], LIST_HEAD)
    lld.flush()
    assert lld.reorganize(max_blocks=10) == 10
    lld.flush()
    lld.reorganize()
    lld.flush()
    for i, chain in enumerate(chains):
        for bid in chain[:: i + 1]:
            lld.read(bid)
    lld.read_blocks(chains[1][:5] * 2)
    lld.reorganize_hot(0.25)
    lld.flush()
    for lid in lists:
        lld.read_list(lid)


def script_compression(rig: Rig) -> None:
    """Compressed and plain lists through writes, reads and a clean."""
    lld = rig.lld
    packed = lld.new_list(hints=ListHints(compress=True))
    plain = lld.new_list()
    pbids = []
    pred = LIST_HEAD
    for i in range(24):
        pred = lld.new_block(packed, pred)
        lld.write(pred, rig.squeezable(4096) if i % 3 else rig.data(4096))
        pbids.append(pred)
    qbids = rig.grow(plain, 10, 3000)
    lld.read(pbids[0])  # from the open segment
    lld.flush()
    rig.grow(plain, 14)
    lld.read(pbids[1])
    lld.read_blocks(pbids[2:9] + qbids[:3])
    for bid in pbids[::2]:
        lld.write(bid, rig.squeezable(2000))
    lld.flush()
    lld.clean(2)
    lld.reorganize(max_blocks=6)
    lld.flush()
    lld.read_list(packed)


def script_read_cache(rig: Rig) -> None:
    """Read-ahead along the list, cache hits, invalidation by the log."""
    lld = rig.lld
    lid = lld.new_list()
    chain = rig.grow(lid, 30)
    other = lld.new_list()
    rig.grow(other, 4)
    lld.flush()
    lld.read(chain[0])  # miss: successors ride the request
    lld.read(chain[1])  # prefetched
    lld.read(chain[12])
    order = chain[:]
    rig.rng.shuffle(order)
    lld.read_blocks(order[:18])
    for bid in chain[3:9]:
        lld.write(bid, rig.data(4096))  # invalidates cached copies
    lld.delete_block(chain[20], lid, pred_bid_hint=chain[19])
    lld.read_list(lid)
    lld.flush()
    lld.clean(1)
    lld.read_list(lid)
    lld.read(chain[4])


def script_nvram_replay(rig: Rig) -> None:
    """Crash with a partial segment held in NVRAM; replay; carry on."""
    lld = rig.lld
    lid = lld.new_list()
    chain = rig.grow(lid, 5, 1500)
    lld.flush()  # fits the NVRAM when there is one
    lld.write(chain[0], rig.data(1500))
    lld.flush()
    rig.crash()
    lld = rig.lld
    lld.read_list(lid)
    more = rig.grow(lid, 9, 4096, chain[-1])
    lld.flush()  # too big for the NVRAM: goes to the slot
    lld.write(more[0], rig.data(100))
    lld.flush()
    rig.grow(lid, 12)  # seal over a slot the NVRAM described
    lld.write(chain[1], rig.data(800))
    lld.flush()
    rig.crash()
    lld = rig.lld
    lld.delete_block(chain[2], lid)
    lld.flush()


SCRIPTS = {
    "flushes": (script_flushes, {}),
    "deletes_clean": (script_deletes_clean, {}),
    "compaction": (script_compaction, {"max_tombstones": 16}),
    "arus": (script_arus, {}),
    "reorganize": (script_reorganize, {}),
    "compression": (script_compression, {}),
    "read_cache": (script_read_cache, {"read_cache_enabled": True, "read_ahead_blocks": 4}),
    "nvram_replay": (script_nvram_replay, {}),
}

CONFIGS = [
    (device, delta, torn, nvram)
    for device in DEVICES
    for delta, torn, nvram in itertools.product((True, False), repeat=3)
]


def config_id(device: str, delta: bool, torn: bool, nvram: bool) -> str:
    return "/".join(
        (device, "delta" if delta else "image", "torn" if torn else "plain", "nvram" if nvram else "disk")
    )


# ----------------------------------------------------------------------
# Digest
# ----------------------------------------------------------------------


def _members(device) -> list:
    return list(getattr(device, "disks", None) or [device])


def _recovered(rig: Rig) -> dict:
    """What a fresh LLD makes of the final image."""
    rig.lld.crash()
    lld = LLD(rig.disk, rig.config, nvram=rig.nvram)
    lld.initialize()
    state = lld.state
    bids = sorted(state.blocks)
    contents = hashlib.sha256()
    for data in lld.read_blocks(bids):
        contents.update(len(data).to_bytes(4, "little") + data)
    return {
        "blocks": [
            (bid, e.segment, e.offset, e.stored_length, e.length, e.compressed, e.successor)
            for bid, e in sorted(state.blocks.items())
        ],
        "lists": [(lid, e.first, e.hints.pack()) for lid, e in sorted(state.lists.items())],
        "usage": sorted((s, u) for s, u in state.usage.items() if u),
        "homes": sorted((k, i, s) for (k, i), s in state.homes.items()),
        "tombstones": sorted(
            (t.kind, t.ident, t.death_timestamp, t.home_segment)
            for t in state.tombstones.values()
        ),
        "summary_min_ts": sorted(state.summary_min_ts.items()),
        "next": (state.next_bid, state.next_lid, state.next_ts),
        "report": lld.recovery_report.as_dict(),
        "contents": contents.hexdigest(),
    }


def collect(script: str, device: str, delta: bool, torn: bool, nvram: bool) -> dict:
    """Run one script; everything a change to the log writer could move."""
    body, config = SCRIPTS[script]
    rig = Rig(script, device, delta, torn, nvram, **config)
    body(rig)
    stats = rig.past_stats + [rig.lld.stats.as_dict()]
    physical = sum(s.pop("data_bytes_physical") for s in stats)
    for s in stats:
        s.pop("write_amplification")
    members = _members(rig.device)
    return {
        "journal": list(rig.disk.log),
        "written": rig.disk.bytes_written,
        "physical": physical,
        "clocks": [repr(rig.device.clock.now)] + [repr(m.clock.now) for m in members],
        "stats": stats,
        "image": [
            hashlib.sha256(
                b"".join(lba.to_bytes(8, "little") + data for lba, data in m.written_sectors())
            ).hexdigest()
            for m in members
        ],
        "recovered": _recovered(rig),
    }


def digest(state: dict, funneled_now: int = 0) -> str:
    """Hash of ``state`` with ``physical`` put back to the parent's figure.

    ``funneled_now`` is what ``data_bytes_physical`` is expected to have
    gained since the parent (0 when capturing there).
    """
    state = dict(state, physical=state["physical"] - funneled_now)
    blob = json.dumps(state, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize("script", sorted(SCRIPTS))
@pytest.mark.parametrize("device", DEVICES)
def test_request_sequence_is_pinned(script, device):
    for dev, delta, torn, nvram in CONFIGS:
        if dev != device:
            continue
        cid = config_id(dev, delta, torn, nvram)
        state = collect(script, dev, delta, torn, nvram)
        assert digest(state, bypassed(script, cid)) == GOLDEN[script][cid], (script, cid)
        # What replaced the parent's shortfall: every byte written is counted.
        assert state["physical"] == state["written"], (script, cid)


if __name__ == "__main__":
    golden: dict[str, dict[str, str]] = {}
    shortfall: dict[tuple[str, str], int] = {}
    for name in sorted(SCRIPTS):
        golden[name] = {}
        for dev, delta, torn, nvram in CONFIGS:
            cid = config_id(dev, delta, torn, nvram)
            state = collect(name, dev, delta, torn, nvram)
            golden[name][cid] = digest(state)
            if state["written"] != state["physical"]:
                shortfall[name, cid] = state["written"] - state["physical"]
    print("GOLDEN = {")
    for name, table in golden.items():
        print(f"    {name!r}: {{")
        for cid, value in table.items():
            print(f"        {cid!r}: {value!r},")
        print("    },")
    print("}")
    print("bypassed:")
    for key, nbytes in shortfall.items():
        print(f"    {key!r}: {nbytes},")
