"""Golden request sequences for the LLD, pinned across refactors of its
write path (the counterpart of ``tests/volume/test_request_plan_golden.py``).

Eight scripted workloads drive an LLD through everything its log writer
distinguishes — partial flushes (absorbed, delta, full image), seals,
overwrites, deletes, explicit and space-driven cleaner passes, tombstone
compaction and ``scrub_slot`` (a small ``MAX_TOMBSTONES``), ARUs
(committed, aborted, nested ``aru()``, crashed open), ``swap_contents``,
``reorganize`` / ``reorganize_hot``, compression, the read cache, and
crash → NVRAM replay → recovery in mid-script — on every combination of
``delta_partial_flush`` × NVRAM × bare disk / stripe / RAID-5. A journalling wrapper between the LLD and its device
(``JournalDisk``: :class:`~repro.crashsim.RecordingDisk`'s idea extended
to reads, every barrier label, and volumes, which have no ``snapshot()``)
records the request sequence; at the end of a script the test hashes
four things apart, so that a change which is *supposed* to move one of
them keeps the pin on the others:

* ``contents`` — what a client gets back from a fresh LLD recovered on
  the final image, wherever the log put it: every block's bytes, lengths
  and successor, the lists, which blocks and lists are buried, and the
  recovery report's counts of ARUs and discarded records. No slot number,
  offset, timestamp or count of superseded copies enters it, so a change
  of *placement* leaves it alone;
* ``layout`` — what the script left behind, placement included: the
  final image of every member and the whole recovered state (block
  locations, usage, homes, tombstone homes and timestamps, summary
  timestamps). It contains ``contents``: a write-path optimisation moves
  neither, a placement change moves this one only;
* ``requests`` — what the device was asked: the journal
  (``(w, lba, nsectors, crc32)``, ``(r, lba, nsectors)``,
  ``(R, [(lba, nsectors), ...])`` for ``read_batch``, ``(b, label)``),
  ``LLDStats.as_dict()`` of every LLD incarnation of the script, and the
  bytes written;
* ``clocks`` — when: every clock (``repr`` of the floats), device and
  members, and the simulated seconds of the final recovery.

One script shape is left out on purpose: ``delete_list`` inside a
still-open ARU followed by cleaning. The parent under-pinned it (the
ARU's pin set missed the list's ``LIST_FIRST`` home), the victim choice
is *supposed* to change, and ``tests/lld/test_lld_aru.py`` pins the fix.

The whole table was captured from the PARENT commit of the PR that
introduced this file (d6408cc, the 1 454-line ``LLD`` class), and split
into components at 0b4ce39 (the parent of the seal-by-delta PR) and again
at 687104f (the parent of the row-gather PR: ``outcome`` became
``layout``, digest for digest, and ``contents`` was added beside it) with
every digest still the parent's, by running, in a checkout of that commit
with this file copied in::

    PYTHONPATH=src python tests/lld/test_log_golden.py

which prints ``GOLDEN``. Since then two changes moved requests on purpose
and re-captured, each in its own checkout, only what it was supposed to
move. Seal by delta with ordering barriers (parent 0b4ce39): ``requests``
on the ``delta`` arms (86 of 96 moved; all 96 ``image`` arms are the
parent's), ``clocks`` on the ``delta`` arms and on every stripe and RAID-5
arm (the 32 bare-disk ``image`` arms are the parent's). Row gather (parent
687104f): placement fills stripe rows in order and consecutive sealed
segments leave as one write, which exists on the 64 RAID-5 arms only —
``layout``, ``requests`` and ``clocks`` re-captured there, ``contents`` the
parent's on all 192 and all four components the parent's on the 128 bare
and stripe arms. The stripe cache (parent 694d45b): the RAID-5 volume
serves the pre-reads of re-written sectors from memory, so the same
requests finish sooner — ``clocks`` re-captured on the 62 RAID-5 arms it
moved (``read_cache`` on ``image/plain`` kept both of its own),
``contents``, ``layout`` and ``requests`` the parent's on all 192, every
bare-disk and stripe ``clocks`` the parent's. COMMIT homes (parent
aa41433): a unit's COMMIT is homed in its summary while other summaries
hold the unit's records, so the recovered state of ``arus`` shows one more
home — ``layout`` re-captured on its 24 arms, and equal to the parent's
with ``commit`` homes left out; the other three components the parent's
on all 192. One rule for reusing a slot (parent e356c4c): the log opens
no free slot whose summary homes live metadata, and the cleaner re-logs
and retires one when nothing else is left to open. Only the 8 bare-disk
arms of ``arus`` ever reached that state (the parent opened slot 10 and
re-logged its homes into it; now the cleaner retires it first) —
``layout``, ``requests`` and ``clocks`` re-captured there, ``contents``
the parent's on all 192 and every component the parent's on the other
184. Aborts roll back (parent d57092d): an abort logs the values its
unit replaced, and a relocation of a value an open unit set carries the
unit's tag. All 24 ``arus`` arms re-captured: ``layout`` and
``requests`` (the rolled-back records), ``clocks`` on 4 bare-disk arms,
and ``contents``, whose block bytes, lengths, successors and lists are
those of the fixed state on all 24 (the parent's 8 bare-disk arms listed
the aborted unit's ``new_block`` as list 1's head: the cleaner had
re-stated its records untagged) and whose other parts moved with
placement — which tombstones are still buried (the aborted
``new_block`` is buried now) and the recovery report's ARU counts. The
other 168 arms are the parent's. The summary header's ``next`` field
(parent faa17ba): four more bytes in every summary header, so ``layout``
(the images) and ``requests`` (the written bytes' CRCs) re-captured on
all 192; ``clocks`` on the 7 ``compaction`` arms where a summary filled
to its last record now seals one record sooner — a checkout of the
parent with four padding bytes after its header gives the same clocks
on all 24 ``compaction`` arms; ``contents`` the parent's on all 192, and
``clocks`` on the other 185. The victim read first (parent 1944470): the
cleaner reads its victim's live span, not the whole data area, and a
seal dispatches the read of the next pass's victim before its own
writes — ``requests`` re-captured on all 96 arms of the four scripts
that clean (``arus``, ``compaction``, ``compression``,
``deletes_clean``), ``clocks`` on 86 of them; ``contents`` and
``layout`` the parent's on all 192, all four components on the other 96.
Reconstruct-write (parent 4d31e2d): a RAID-5 partial row may pre-read
its unwritten data chunks instead of its old data and parity, whichever
lands on members free sooner, so the same requests reach the volume at
other times — ``clocks`` re-captured on the 48 RAID-5 arms it moved
(all but ``read_cache`` and the 8 ``plain`` arms of ``nvram_replay`` and
``reorganize``), the other three components the parent's on all 192.
The blank record (parent 1c292d2): a RAID-5 volume built on blank
members answers a pre-read of sectors it never wrote as zeros, with no
member read, so the same requests finish sooner — ``clocks`` re-captured
on the 60 RAID-5 arms it moved, ``contents``, ``layout`` and ``requests``
the parent's on all 192, every bare-disk and stripe ``clocks`` the
parent's. Granted rows (parent 856d364): the log grants a RAID-5 volume
every stripe row it opens empty in every slot, and the first summary
written into such a row carries the ``GRANTED`` bit — a fresh log's
first row among them — and on RAID-5 rows the scrub of a retired slot
waits until its row can be granted, so ``layout`` and ``requests``
re-captured on all 64 RAID-5 arms and ``clocks`` on the 40 of the four
scripts that clean and of ``nvram_replay``; ``contents`` the parent's
on all 192, all four components on the 128 bare-disk and stripe arms.
Grants removed (parent 81b8e9e): no summary carries the ``GRANTED`` bit
and the volume takes no row as blank that its members do not hold as
zeros, the scrub wait kept — ``layout`` and ``requests`` re-captured on
all 64 RAID-5 arms (the record count of each first-row summary lost its
top bit), ``clocks`` on the 24 RAID-5 arms of ``compaction``,
``deletes_clean`` and ``nvram_replay``; ``contents`` the parent's on all
192, all four components on the 128 bare-disk and stripe arms. A checkout
of the parent whose ``Volume.discard`` records nothing and whose log
never sets the bit gives these digests on all 192 arms. The two-prefix
summary header (parent 3c0b70b): ``torn_write_protection`` is gone, and
with it the ``torn`` axis and its 96 arms (configurations are now
``device/delta|image/nvram|disk``). Every summary header is twenty bytes
longer (the previous prefix and the tail check) and every recovery reads
the newest summary's last data sector, so ``layout``, ``requests`` and
``clocks`` re-captured on all 96 surviving arms; ``contents`` equals the
parent's ``plain`` arm on all 96. The request *shapes* (every write's LBA
and size, every read) are the parent's on 60 arms: the 24 of ``arus``
and ``nvram_replay`` gained the tail read of their mid-script recoveries,
and on the 12 of ``compaction`` a summary holds twenty bytes fewer of
records, so a segment seals a record sooner and the cleaner moves one
more block. A change that
keeps requests where they are re-captures nothing; one that moves them re-captures the components it names up front
and shows the rest byte-identical to this table.

Two stats fields are allowed to differ from the d6408cc capture, and only
as ``bypassed()`` says: at the parent the ``compact_tombstones`` / ``scrub_slot`` scrub
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
from contextlib import ExitStack
from unittest.mock import patch

import pytest

from repro.disk import SimulatedDisk, fast_test_disk
from repro.ld import LIST_HEAD, ListHints
from repro.lld import LLD, NVRAM, LLDConfig
from repro.sim.clock import VirtualClock
from repro.volume import Volume

SEGMENT = 64 * 1024
SECTOR = 512
DEVICES = ("bare", "stripe", "raid5")
#: ``LLDStats`` counters younger than the parent capture. They are folded
#: into ``requests`` only once they count something, so the runs they stay
#: zero on (every ``image`` arm) keep the parent's digest.
SINCE_CAPTURE = (
    "seals_by_delta", "seal_delta_bytes",
    "rows_written", "segments_gathered", "header_commits",
    "checkpoints_written", "checkpoint_bytes", "checkpoints_refused",
)
#: ``LLDStats`` fields the capture reported and the LLD no longer has, with
#: the value they held on every arm (no server bound a tenant, nothing
#: wrote ``extra``): put back, so the table stays the capture's.
GONE_SINCE_CAPTURE = {"tenants": {}, "extra": {}}

#: ``GOLDEN[script][config]`` = the ``COMPONENTS`` digests, in that order.
GOLDEN: dict[str, dict[str, tuple[str, str, str, str]]] = {
    'arus': {
        'bare/delta/nvram': ('d1f0ca1fa0e0', '9e922a06b647', '272c2afa350f', 'aadec8128141'),
        'bare/delta/disk': ('d1f0ca1fa0e0', 'de6fbf0de158', 'e79230e4ef2c', '032e24f2c996'),
        'bare/image/nvram': ('d1f0ca1fa0e0', '9e922a06b647', '66e5ca6993bb', '32478bd1320e'),
        'bare/image/disk': ('d1f0ca1fa0e0', 'de6fbf0de158', 'f88caad18411', '36ce2b81110b'),
        'stripe/delta/nvram': ('167464a16ae5', 'c66e5228b1dc', '6b3cb621da19', '746b65f56657'),
        'stripe/delta/disk': ('167464a16ae5', '03c7eaf1b7fd', '93405be87764', 'bfd5c0b17178'),
        'stripe/image/nvram': ('167464a16ae5', 'c66e5228b1dc', 'fa8fd6d128bf', '746b65f56657'),
        'stripe/image/disk': ('167464a16ae5', '03c7eaf1b7fd', '959939d7fbcc', '69c761e56b03'),
        'raid5/delta/nvram': ('39ec6d2c2616', '3761390a25ba', '7d068826680b', 'a8e28d44639c'),
        'raid5/delta/disk': ('39ec6d2c2616', '43a41840c489', '2ad4c5d00eba', '3edbff048f01'),
        'raid5/image/nvram': ('39ec6d2c2616', '3761390a25ba', 'e25686ba86f2', 'a8e28d44639c'),
        'raid5/image/disk': ('39ec6d2c2616', '43a41840c489', '9143ff21abde', 'c51b9338ef1e'),
    },
    'compaction': {
        'bare/delta/nvram': ('f43c3e5cdaa8', '8eb614e1b5d0', '888083b1065e', '84bcf857435a'),
        'bare/delta/disk': ('f43c3e5cdaa8', '8e8232093cab', 'fb74e18b9381', '8190b7792667'),
        'bare/image/nvram': ('f43c3e5cdaa8', '8eb614e1b5d0', 'bf370a5b91f2', '14706a991cf7'),
        'bare/image/disk': ('f43c3e5cdaa8', '8e8232093cab', '25ff9a7c10fe', '4af8c496e31f'),
        'stripe/delta/nvram': ('cf67d8db9144', 'fbcb1c06840d', '69fb48bd0fb6', 'dfa542321c76'),
        'stripe/delta/disk': ('cf67d8db9144', '0e681d38ca59', '48b0c7f80e3a', 'c7756627eb6d'),
        'stripe/image/nvram': ('cf67d8db9144', 'fbcb1c06840d', 'fd938d39ae9b', 'dfa542321c76'),
        'stripe/image/disk': ('cf67d8db9144', '0e681d38ca59', '5963d7ce7508', '5e9b8f2ccf09'),
        'raid5/delta/nvram': ('486ae46ecdb9', 'dfaf040e9713', '675eaba73977', '3433ce3d59cf'),
        'raid5/delta/disk': ('486ae46ecdb9', 'e2e826187cf2', '15442913eaf3', '1606148e5b60'),
        'raid5/image/nvram': ('486ae46ecdb9', 'dfaf040e9713', '37dbda295b37', 'f7c575a84594'),
        'raid5/image/disk': ('486ae46ecdb9', 'e2e826187cf2', 'adfc82e8a459', '34024fb2cf13'),
    },
    'compression': {
        'bare/delta/nvram': ('342b23cd34f7', '874fc99beca6', '0793a450d4ca', 'f0f56b9fbf1e'),
        'bare/delta/disk': ('342b23cd34f7', '9f5986ba7503', '36f48b2316b0', '8219aeadca83'),
        'bare/image/nvram': ('342b23cd34f7', '874fc99beca6', '18eab24ff005', 'f0f56b9fbf1e'),
        'bare/image/disk': ('342b23cd34f7', '9f5986ba7503', 'a745e40ab814', 'c8dd550d22c5'),
        'stripe/delta/nvram': ('3db3061db605', '817de1ef32c5', '34506aac24f5', '995500791f80'),
        'stripe/delta/disk': ('3db3061db605', '92d59e77ccb2', 'c059528eaa4c', 'f086156040e9'),
        'stripe/image/nvram': ('3db3061db605', '817de1ef32c5', 'a87ccfe767c7', '995500791f80'),
        'stripe/image/disk': ('3db3061db605', '92d59e77ccb2', '8c5c18d4b1fc', 'f086156040e9'),
        'raid5/delta/nvram': ('947314dbc9bf', '49423b2a616b', '5ab51266726d', '6dbb685ba039'),
        'raid5/delta/disk': ('947314dbc9bf', '1f9f6fea2ce7', '08befdda6411', '3d7c55fa93df'),
        'raid5/image/nvram': ('947314dbc9bf', '49423b2a616b', '2313249e610a', '6dbb685ba039'),
        'raid5/image/disk': ('947314dbc9bf', '1f9f6fea2ce7', '5972bf40eacc', '0212358bd13d'),
    },
    'deletes_clean': {
        'bare/delta/nvram': ('547959dfb219', '87ee1c05d345', '354c08edca2b', 'b195e4c2178a'),
        'bare/delta/disk': ('547959dfb219', '0616ee7df1e2', '26df6c2966af', '7984962431e3'),
        'bare/image/nvram': ('547959dfb219', '87ee1c05d345', '5a4d05a36073', 'd3c0ea416ddd'),
        'bare/image/disk': ('547959dfb219', '0616ee7df1e2', 'fe6f2130f1fb', 'fae722b69eee'),
        'stripe/delta/nvram': ('d1b32841fb42', 'dfeb626f3157', '99a0acbd518f', '3b76a47c1e8b'),
        'stripe/delta/disk': ('d1b32841fb42', '47404d2eb934', 'f647a18f47f3', 'a7cad5ed06cc'),
        'stripe/image/nvram': ('d1b32841fb42', 'dfeb626f3157', '5fd1e2fd3496', '3b76a47c1e8b'),
        'stripe/image/disk': ('d1b32841fb42', '47404d2eb934', 'ed02ec974e47', '55667bb97280'),
        'raid5/delta/nvram': ('d354091f1d2f', '51dcc12f1529', '1a609ba550e1', 'e6ab1ffe5b52'),
        'raid5/delta/disk': ('d354091f1d2f', '428ff759ac13', '1bce8e6eefa4', '26a7ed7b917f'),
        'raid5/image/nvram': ('d354091f1d2f', '51dcc12f1529', '82cb5bbbc0de', 'ac8a6547d313'),
        'raid5/image/disk': ('d354091f1d2f', '428ff759ac13', '7ded43d2e3be', '230de02d3cb0'),
    },
    'flushes': {
        'bare/delta/nvram': ('e385b968c8f5', '82f18ad24d16', '60d9ce38cc59', 'ae26645e0d59'),
        'bare/delta/disk': ('e385b968c8f5', 'b53d08cf6856', '8cb7a63dd34a', 'c29ccadadd5b'),
        'bare/image/nvram': ('e385b968c8f5', '82f18ad24d16', '188fbf11c138', '446db8e7595c'),
        'bare/image/disk': ('e385b968c8f5', 'b53d08cf6856', '352fba52671e', '1f1e93142355'),
        'stripe/delta/nvram': ('fcebdad139c0', '0aacdb900586', '05381aa6b4fa', '4a2327c04c92'),
        'stripe/delta/disk': ('fcebdad139c0', '0deed953faaf', 'ff135249f443', '3b40b47911a8'),
        'stripe/image/nvram': ('fcebdad139c0', '0aacdb900586', '4e3ef4ee0f88', '4a2327c04c92'),
        'stripe/image/disk': ('fcebdad139c0', '0deed953faaf', 'dfb534893be0', '63758de18d76'),
        'raid5/delta/nvram': ('cd406d4a215f', '6b50146c8645', '799961521878', '5ac43d2da0aa'),
        'raid5/delta/disk': ('cd406d4a215f', '40f45263f8dd', '10a5f7c65903', '440a424ed2b6'),
        'raid5/image/nvram': ('cd406d4a215f', '6b50146c8645', 'b7c87226e14a', '5ac43d2da0aa'),
        'raid5/image/disk': ('cd406d4a215f', '40f45263f8dd', 'feefaa0877bc', '440a424ed2b6'),
    },
    'nvram_replay': {
        'bare/delta/nvram': ('b281e09ffae3', 'd89d8a85d2d5', '02f3f11dfc84', 'c0703ecb5697'),
        'bare/delta/disk': ('b281e09ffae3', 'b3c624512299', '7b83f1877c32', 'df2f08ce9158'),
        'bare/image/nvram': ('b281e09ffae3', 'd89d8a85d2d5', 'f47cdc66bce9', 'abead5f0e564'),
        'bare/image/disk': ('b281e09ffae3', 'b3c624512299', '77306fb2af6d', 'df2f08ce9158'),
        'stripe/delta/nvram': ('9affc57acc78', '30e15fb1e0e0', '81ef09ad8642', 'a10cdf880d01'),
        'stripe/delta/disk': ('9affc57acc78', 'a830bfc35b15', 'ec4c5797f314', 'f7cb1199da65'),
        'stripe/image/nvram': ('9affc57acc78', '30e15fb1e0e0', 'bc272c2c8dc6', 'a10cdf880d01'),
        'stripe/image/disk': ('9affc57acc78', 'a830bfc35b15', 'ee5f6e744482', 'c738bd464dbe'),
        'raid5/delta/nvram': ('7ea7c1d33de4', '06e17fae3b25', '611a48bab4a2', '3797f8689105'),
        'raid5/delta/disk': ('7ea7c1d33de4', '969ef5acd17f', '8851d6cba5c7', '1fb315c28776'),
        'raid5/image/nvram': ('7ea7c1d33de4', '06e17fae3b25', '619f85de4068', 'd1d9c9aabc24'),
        'raid5/image/disk': ('7ea7c1d33de4', '969ef5acd17f', 'a34c892a54c7', '3b338f9e812d'),
    },
    'read_cache': {
        'bare/delta/nvram': ('4ab15ee5ab20', 'c76e54df85cc', 'e727eaec5512', '184c35ab5bf5'),
        'bare/delta/disk': ('4ab15ee5ab20', 'c76e54df85cc', 'e727eaec5512', '184c35ab5bf5'),
        'bare/image/nvram': ('4ab15ee5ab20', 'c76e54df85cc', '1f59edd36884', '25a119e22edc'),
        'bare/image/disk': ('4ab15ee5ab20', 'c76e54df85cc', '1f59edd36884', '25a119e22edc'),
        'stripe/delta/nvram': ('54b026194e7b', 'f11b94c70574', '7e67f1ae60a7', '25defbbb5a36'),
        'stripe/delta/disk': ('54b026194e7b', 'f11b94c70574', '7e67f1ae60a7', '25defbbb5a36'),
        'stripe/image/nvram': ('54b026194e7b', 'f11b94c70574', '82816fa75268', '57b3aee9429f'),
        'stripe/image/disk': ('54b026194e7b', 'f11b94c70574', '82816fa75268', '57b3aee9429f'),
        'raid5/delta/nvram': ('af2589ad471e', 'b80dc3e3cbd1', '72f38eddf309', 'a919882eed36'),
        'raid5/delta/disk': ('af2589ad471e', 'b80dc3e3cbd1', '72f38eddf309', 'a919882eed36'),
        'raid5/image/nvram': ('af2589ad471e', 'b80dc3e3cbd1', '09c304b943dc', '93bd8d1af07b'),
        'raid5/image/disk': ('af2589ad471e', 'b80dc3e3cbd1', '09c304b943dc', '93bd8d1af07b'),
    },
    'reorganize': {
        'bare/delta/nvram': ('c5b3731b8a8e', '43feeb2a020e', 'edb4b5e57b12', 'a27e02e12f0f'),
        'bare/delta/disk': ('c5b3731b8a8e', '43feeb2a020e', 'edb4b5e57b12', 'a27e02e12f0f'),
        'bare/image/nvram': ('c5b3731b8a8e', '43feeb2a020e', 'db6afecd5c34', 'fb48ba0903bb'),
        'bare/image/disk': ('c5b3731b8a8e', '43feeb2a020e', 'db6afecd5c34', 'fb48ba0903bb'),
        'stripe/delta/nvram': ('a61b3a608245', '594a0b4a0d57', '3d164334bc7e', '14876368b0f1'),
        'stripe/delta/disk': ('a61b3a608245', '594a0b4a0d57', '3d164334bc7e', '14876368b0f1'),
        'stripe/image/nvram': ('a61b3a608245', '594a0b4a0d57', '259968a528ca', 'c76b80279a2c'),
        'stripe/image/disk': ('a61b3a608245', '594a0b4a0d57', '259968a528ca', 'c76b80279a2c'),
        'raid5/delta/nvram': ('5cecd90fedd9', '28f740f7f701', '824b1b80f7de', '9991ddd71610'),
        'raid5/delta/disk': ('5cecd90fedd9', '28f740f7f701', '824b1b80f7de', '9991ddd71610'),
        'raid5/image/nvram': ('5cecd90fedd9', '28f740f7f701', '75111cd94d16', '591d7e2e397a'),
        'raid5/image/disk': ('5cecd90fedd9', '28f740f7f701', '75111cd94d16', '591d7e2e397a'),
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

    def read(self, lba, nsectors, *, wait=True):
        self.log.append(("r", lba, nsectors))
        return self.inner.read(lba, nsectors, wait=wait)

    def read_batch(self, requests, *, wait=True):
        self.log.append(("R", [list(r) for r in requests]))
        return self.inner.read_batch(requests, wait=wait)

    def write(self, lba, data):
        data = bytes(data)
        self.log.append(("w", lba, len(data) // SECTOR, zlib.crc32(data)))
        self.bytes_written += len(data)
        self.inner.write(lba, data)

    def barrier(self, label="barrier", *, wait=True):
        self.log.append(("b", label))
        self.inner.barrier(label, wait=wait)

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

    def __init__(self, script: str, device: str, delta: bool, nvram: bool, **config) -> None:
        self.device = make_device(device)
        self.disk = JournalDisk(self.device)
        self.config = LLDConfig(
            segment_size=SEGMENT,
            summary_capacity=4096,
            block_size=4096,
            checkpoint_slots=1,
            delta_partial_flush=delta,
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


class Unplugged:
    """A device stand-in that takes writes without applying them, so that
    the caller decides afterwards which of them reached the medium."""

    def __init__(self, device) -> None:
        self.device = device
        self.writes: list[tuple[int, bytes]] = []

    def write(self, lba, data):
        self.writes.append((lba, bytes(data)))

    def barrier(self, label="barrier", *, wait=True):
        pass

    def read(self, lba, nsectors, *, wait=True):
        raise AssertionError("read behind writes that have not landed")

    def read_batch(self, requests, *, wait=True):
        raise AssertionError("read behind writes that have not landed")

    def __getattr__(self, name):
        return getattr(self.device, name)


def power_fail_in_a_flush(rig: Rig) -> tuple[int, int]:
    """Log a new list of one block, then lose power inside the flush that
    would acknowledge it: the flush's writes land in the order it issued
    them, all but the last, of which only the first half of its sectors
    does (a one-sector write not at all). The tear never reaches past the
    last sector that changes what the medium holds: a lost half whose
    sectors the medium already holds would land the write whole. Leaves
    ``rig.lld`` crashed; returns the list and the block."""
    lld = rig.lld
    lid = lld.new_list()
    bid = lld.new_block(lid, LIST_HEAD)
    lld.write(bid, rig.data(4096))
    unplugged = Unplugged(rig.device)
    rig.disk.inner = unplugged  # the journal still counts what is issued
    try:
        lld.flush()
    finally:
        rig.disk.inner = rig.device
    lld.crash()
    if unplugged.writes:
        *whole, (lba, data) = unplugged.writes
        for at, payload in whole:
            rig.device.install(at, payload)
        held = rig.device.peek(lba, len(data) // SECTOR)
        changed = [at for at in range(0, len(data), SECTOR) if data[at : at + SECTOR] != held[at : at + SECTOR]]
        landed = min(len(data) // SECTOR // 2 * SECTOR, changed[-1] if changed else 0)
        if landed:
            rig.device.install(lba, data[:landed])
    return lid, bid


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
    # One bulk delete far past 8 x MAX_TOMBSTONES: the next seal cleans
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
    assert lld.stats.cleanings > cleanings and lld.slots.pinned()
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


#: script -> (body, ``LLDConfig`` overrides, module constants it runs under).
SCRIPTS = {
    "flushes": (script_flushes, {}, {}),
    "deletes_clean": (script_deletes_clean, {}, {}),
    "compaction": (script_compaction, {}, {"repro.lld.cleaner.MAX_TOMBSTONES": 16}),
    "arus": (script_arus, {}, {}),
    "reorganize": (script_reorganize, {}, {}),
    "compression": (script_compression, {}, {}),
    "read_cache": (
        script_read_cache,
        {"read_cache_enabled": True},
        {"repro.lld.lld.READ_AHEAD_BLOCKS": 4},
    ),
    "nvram_replay": (script_nvram_replay, {}, {}),
}

CONFIGS = [
    (device, delta, nvram)
    for device in DEVICES
    for delta, nvram in itertools.product((True, False), repeat=2)
]


def config_id(device: str, delta: bool, nvram: bool) -> str:
    return "/".join((device, "delta" if delta else "image", "nvram" if nvram else "disk"))


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


def collect(script: str, device: str, delta: bool, nvram: bool) -> dict:
    """Run one script; everything a change to the log writer could move."""
    body, config, constants = SCRIPTS[script]
    with ExitStack() as stack:
        for target, value in constants.items():
            stack.enter_context(patch(target, value))
        rig = Rig(script, device, delta, nvram, **config)
        body(rig)
        return observe(rig)


def observe(rig: Rig) -> dict:
    """What ``rig`` was asked, when, and what it left behind."""
    stats = rig.past_stats + [rig.lld.stats.as_dict()]
    physical = sum(s.pop("data_bytes_physical") for s in stats)
    for s in stats:
        s.pop("write_amplification")
        for name in SINCE_CAPTURE:
            if not s.get(name):
                s.pop(name, None)
        s.update(GONE_SINCE_CAPTURE)
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


COMPONENTS = ("contents", "layout", "requests", "clocks")


def _hash(part: dict) -> str:
    blob = json.dumps(part, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


#: The recovery counts that describe the log's content. The others
#: (summaries valid, records seen and applied, read requests) also count
#: the superseded copies still lying in slots nobody has reused, which is
#: a matter of which slots placement and the cleaner picked: ``layout``.
CONTENT_COUNTS = ("segments_scanned", "records_discarded", "arus_committed", "arus_discarded")


def contents_of(recovered: dict) -> dict:
    """The placement-free part of a recovered state: no slot, offset or
    timestamp."""
    report = recovered["report"]
    return {
        "blocks": [
            (bid, stored_length, length, compressed, successor)
            for bid, _seg, _off, stored_length, length, compressed, successor in recovered["blocks"]
        ],
        "lists": recovered["lists"],
        "buried": sorted((kind, ident) for kind, ident, _ts, _home in recovered["tombstones"]),
        "next": recovered["next"][:2],
        "report": {name: report[name] for name in CONTENT_COUNTS},
        "contents": recovered["contents"],
    }


def digests(state: dict, funneled_now: int = 0) -> tuple[str, str, str, str]:
    """``COMPONENTS`` hashes of ``state`` (see the module docstring), with
    ``physical`` put back to the parent's figure.

    ``funneled_now`` is what ``data_bytes_physical`` is expected to have
    gained since the parent (0 when capturing there).
    """
    recovered = dict(state["recovered"])
    report = dict(recovered["report"])
    recovery_seconds = report.pop("simulated_seconds")
    # Younger than the capture, and 0 on every arm: one checkpoint slot
    # means no checkpoint to recover from.
    if not report.get("checkpoint_sequence"):
        report.pop("checkpoint_sequence", None)
    recovered["report"] = report
    return (
        _hash(contents_of(recovered)),
        _hash({"image": state["image"], "recovered": recovered}),
        _hash(
            {
                "journal": state["journal"],
                "written": state["written"],
                "physical": state["physical"] - funneled_now,
                "stats": state["stats"],
            }
        ),
        _hash({"clocks": state["clocks"], "recovery_seconds": repr(recovery_seconds)}),
    )


@pytest.mark.parametrize("script", sorted(SCRIPTS))
@pytest.mark.parametrize("device", DEVICES)
def test_request_sequence_is_pinned(script, device):
    for dev, delta, nvram in CONFIGS:
        if dev != device:
            continue
        cid = config_id(dev, delta, nvram)
        state = collect(script, dev, delta, nvram)
        got = digests(state, bypassed(script, cid))
        moved = [
            name for name, now, pinned in zip(COMPONENTS, got, GOLDEN[script][cid])
            if now != pinned
        ]
        assert not moved, (script, cid, moved)
        # What replaced the parent's shortfall: every byte written is counted.
        assert state["physical"] == state["written"], (script, cid)


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in sorted(SCRIPTS):
        print(f"    {name!r}: {{")
        for config in CONFIGS:
            cid = config_id(*config)
            print(f"        {cid!r}: {digests(collect(name, *config), bypassed(name, cid))!r},")
        print("    },")
    print("}")
