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
other 168 arms are the parent's. A
change that keeps
requests where they are re-captures nothing; one that moves them re-captures the components it names up front
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

#: ``GOLDEN[script][config]`` = the ``COMPONENTS`` digests, in that order.
GOLDEN: dict[str, dict[str, tuple[str, str, str, str]]] = {
    'arus': {
        'bare/delta/torn/nvram': ('d1f0ca1fa0e0', 'b3d1147a8dd3', '8ba92efa79b0', 'f8312a635281'),
        'bare/delta/torn/disk': ('d1f0ca1fa0e0', '471442a2b7b8', '02fa30ae302b', 'ad6458f7dd69'),
        'bare/delta/plain/nvram': ('d1f0ca1fa0e0', 'b3d1147a8dd3', '48fcad1f89d5', '037142192138'),
        'bare/delta/plain/disk': ('d1f0ca1fa0e0', '471442a2b7b8', '4f1572c6ed6c', '18ca70ddfae6'),
        'bare/image/torn/nvram': ('d1f0ca1fa0e0', 'b3d1147a8dd3', '79247db1b33f', 'ed0271a415ec'),
        'bare/image/torn/disk': ('d1f0ca1fa0e0', '471442a2b7b8', 'b32552171f6c', 'bd21134b7d65'),
        'bare/image/plain/nvram': ('d1f0ca1fa0e0', 'b3d1147a8dd3', 'a187f32ec6c4', 'aea7fb92e5a7'),
        'bare/image/plain/disk': ('d1f0ca1fa0e0', '471442a2b7b8', 'fd2667cd6148', 'c86570270440'),
        'stripe/delta/torn/nvram': ('167464a16ae5', 'c3d3ba682254', 'e3cebcadab3e', '47ed5cf22d08'),
        'stripe/delta/torn/disk': ('167464a16ae5', '5854cd7720c0', '3df09b83fcd1', 'f8cc9fff35e1'),
        'stripe/delta/plain/nvram': ('167464a16ae5', 'c3d3ba682254', '332a8cc195db', '15dbf9f61ad5'),
        'stripe/delta/plain/disk': ('167464a16ae5', '5854cd7720c0', 'c89ce2089f2e', 'd2fb8c7b1355'),
        'stripe/image/torn/nvram': ('167464a16ae5', 'c3d3ba682254', 'ffee4ee38acc', '47ed5cf22d08'),
        'stripe/image/torn/disk': ('167464a16ae5', '5854cd7720c0', '98a4cbffa4ca', 'f8cc9fff35e1'),
        'stripe/image/plain/nvram': ('167464a16ae5', 'c3d3ba682254', '43513336dee6', '15dbf9f61ad5'),
        'stripe/image/plain/disk': ('167464a16ae5', '5854cd7720c0', 'ba7ac2637ce5', 'ce86b6e6e9ed'),
        'raid5/delta/torn/nvram': ('39ec6d2c2616', '9657eacad012', '1784e4f8c714', 'e1ee817351a7'),
        'raid5/delta/torn/disk': ('39ec6d2c2616', 'd55d40de599e', '41db853ef6b3', 'cf6d6bff9ae6'),
        'raid5/delta/plain/nvram': ('39ec6d2c2616', '9657eacad012', '3838d9877985', '305a1059e788'),
        'raid5/delta/plain/disk': ('39ec6d2c2616', 'd55d40de599e', '071e3281ceae', 'e290b7c012d4'),
        'raid5/image/torn/nvram': ('39ec6d2c2616', '9657eacad012', 'ed23ccda2019', '90414d908864'),
        'raid5/image/torn/disk': ('39ec6d2c2616', 'd55d40de599e', 'a44ac9aeb7ab', '7a45d9275f99'),
        'raid5/image/plain/nvram': ('39ec6d2c2616', '9657eacad012', '61d9d0d742f0', '46258edac784'),
        'raid5/image/plain/disk': ('39ec6d2c2616', 'd55d40de599e', '568876e69d8f', '1f9cf1051eaa'),
    },
    'compaction': {
        'bare/delta/torn/nvram': ('f43c3e5cdaa8', 'af1a6f8f12ee', '0f0206e541f0', '766cf4a38a13'),
        'bare/delta/torn/disk': ('f43c3e5cdaa8', 'e3a2c3670f29', 'ab59e15a3cf7', '8fc3c72c8551'),
        'bare/delta/plain/nvram': ('f43c3e5cdaa8', 'af1a6f8f12ee', 'cdaf4a0463f9', '22bd200a9c61'),
        'bare/delta/plain/disk': ('f43c3e5cdaa8', 'e3a2c3670f29', '5d21b0319f30', '3f47e076e8e8'),
        'bare/image/torn/nvram': ('f43c3e5cdaa8', 'af1a6f8f12ee', '143b21624ca2', '766cf4a38a13'),
        'bare/image/torn/disk': ('f43c3e5cdaa8', 'e3a2c3670f29', '95332a103714', '01c888be6177'),
        'bare/image/plain/nvram': ('f43c3e5cdaa8', 'af1a6f8f12ee', '4d3c6f96a726', '0cd46654a9fa'),
        'bare/image/plain/disk': ('f43c3e5cdaa8', 'e3a2c3670f29', '5118883dbfee', 'a3c13c3c0ba4'),
        'stripe/delta/torn/nvram': ('cf67d8db9144', '178bfd89ec60', '2cc4d39cee06', '3d64491fe44d'),
        'stripe/delta/torn/disk': ('cf67d8db9144', '9a461984d664', 'e5b93a0396c8', 'd7e4a7df206b'),
        'stripe/delta/plain/nvram': ('cf67d8db9144', '178bfd89ec60', '28c42f761089', '5e77bc7512b2'),
        'stripe/delta/plain/disk': ('cf67d8db9144', '9a461984d664', '30516c18e648', 'd5fb384a29d5'),
        'stripe/image/torn/nvram': ('cf67d8db9144', '178bfd89ec60', 'ebbb87ba0b48', '3d64491fe44d'),
        'stripe/image/torn/disk': ('cf67d8db9144', '9a461984d664', 'da496cdc6700', '8f11f8e64c2b'),
        'stripe/image/plain/nvram': ('cf67d8db9144', '178bfd89ec60', '5795e16f5cea', '5e77bc7512b2'),
        'stripe/image/plain/disk': ('cf67d8db9144', '9a461984d664', '5be74fa4e277', '8f6250d5da00'),
        'raid5/delta/torn/nvram': ('486ae46ecdb9', '38c6adb40e4a', '542a395bd1bb', '995306cfada9'),
        'raid5/delta/torn/disk': ('486ae46ecdb9', 'f0f111f70c4d', '68cd43839f90', '13732d68a4c9'),
        'raid5/delta/plain/nvram': ('486ae46ecdb9', '38c6adb40e4a', '4a45cc71b21f', '160fe85b9bfe'),
        'raid5/delta/plain/disk': ('486ae46ecdb9', 'f0f111f70c4d', '69b0e346ad5b', '3749a2481fdf'),
        'raid5/image/torn/nvram': ('486ae46ecdb9', '38c6adb40e4a', 'b5db8d6ab194', 'a10f48b85a4d'),
        'raid5/image/torn/disk': ('486ae46ecdb9', 'f0f111f70c4d', 'a63249604cf9', '9e31ccbe0870'),
        'raid5/image/plain/nvram': ('486ae46ecdb9', '38c6adb40e4a', 'b46e9c67eaea', '160fe85b9bfe'),
        'raid5/image/plain/disk': ('486ae46ecdb9', 'f0f111f70c4d', '5c020dd0314d', '7ef701dbd883'),
    },
    'compression': {
        'bare/delta/torn/nvram': ('342b23cd34f7', '6a423743ac50', '4a808607b783', '0c1868668ae3'),
        'bare/delta/torn/disk': ('342b23cd34f7', '6a423743ac50', '9d32340fc3f6', '7719587008a4'),
        'bare/delta/plain/nvram': ('342b23cd34f7', '6a423743ac50', '53574484a147', '6c6e857a923f'),
        'bare/delta/plain/disk': ('342b23cd34f7', '6a423743ac50', 'ac038ea7a118', '161a413f68ef'),
        'bare/image/torn/nvram': ('342b23cd34f7', '6a423743ac50', '60cb59cd1c11', '0c1868668ae3'),
        'bare/image/torn/disk': ('342b23cd34f7', '6a423743ac50', '05dd5812fa51', '7719587008a4'),
        'bare/image/plain/nvram': ('342b23cd34f7', '6a423743ac50', 'e3a772599a24', '6c6e857a923f'),
        'bare/image/plain/disk': ('342b23cd34f7', '6a423743ac50', '6d26f5fd85ec', '092c9882e211'),
        'stripe/delta/torn/nvram': ('3db3061db605', 'fe36c054c241', '3426005104aa', 'bf164a50577a'),
        'stripe/delta/torn/disk': ('3db3061db605', 'fe36c054c241', '562dbd9512fe', '805db81d030c'),
        'stripe/delta/plain/nvram': ('3db3061db605', 'fe36c054c241', 'ad0ee85370a9', '4d80b2ca8ebe'),
        'stripe/delta/plain/disk': ('3db3061db605', 'fe36c054c241', '236fadcd4117', 'ebea76a1fc09'),
        'stripe/image/torn/nvram': ('3db3061db605', 'fe36c054c241', 'f7672bb63a87', 'bf164a50577a'),
        'stripe/image/torn/disk': ('3db3061db605', 'fe36c054c241', '3250b0efb307', '2b7df5f3f285'),
        'stripe/image/plain/nvram': ('3db3061db605', 'fe36c054c241', '4713277bec7c', '4d80b2ca8ebe'),
        'stripe/image/plain/disk': ('3db3061db605', 'fe36c054c241', '281116300305', 'ebea76a1fc09'),
        'raid5/delta/torn/nvram': ('947314dbc9bf', '5d8de96fd431', 'f3f526c7fb03', 'caa6fc8e1a0d'),
        'raid5/delta/torn/disk': ('947314dbc9bf', '5d8de96fd431', '4e63dec7f086', '83a2a3e5c9c6'),
        'raid5/delta/plain/nvram': ('947314dbc9bf', '5d8de96fd431', '6ea86ce645e6', 'fd10a7cc9d3b'),
        'raid5/delta/plain/disk': ('947314dbc9bf', '5d8de96fd431', 'b86602ea91fe', 'fd10a7cc9d3b'),
        'raid5/image/torn/nvram': ('947314dbc9bf', '5d8de96fd431', '2915918e522a', 'caa6fc8e1a0d'),
        'raid5/image/torn/disk': ('947314dbc9bf', '5d8de96fd431', '846f3616e8d9', '5a3c353ca0f5'),
        'raid5/image/plain/nvram': ('947314dbc9bf', '5d8de96fd431', 'c1f5df7c3b99', 'fd10a7cc9d3b'),
        'raid5/image/plain/disk': ('947314dbc9bf', '5d8de96fd431', '3afccc8c2a13', '83ff4cd4aac6'),
    },
    'deletes_clean': {
        'bare/delta/torn/nvram': ('547959dfb219', '67d0924f47e5', 'a0523891a44c', 'e54cdfa81d00'),
        'bare/delta/torn/disk': ('547959dfb219', '67d0924f47e5', '42a105ee22e6', 'ed152739712d'),
        'bare/delta/plain/nvram': ('547959dfb219', '67d0924f47e5', '563f67f90a81', '7277d2b70699'),
        'bare/delta/plain/disk': ('547959dfb219', '67d0924f47e5', '58f0b3df42b7', 'f0ca6a57d706'),
        'bare/image/torn/nvram': ('547959dfb219', '67d0924f47e5', 'dce49841d0d0', 'a55810efecca'),
        'bare/image/torn/disk': ('547959dfb219', '67d0924f47e5', 'effc97222923', '2b443de4cb61'),
        'bare/image/plain/nvram': ('547959dfb219', '67d0924f47e5', '52252fa95fbe', '57871303e925'),
        'bare/image/plain/disk': ('547959dfb219', '67d0924f47e5', 'e93499137da6', '04a904a998cd'),
        'stripe/delta/torn/nvram': ('d1b32841fb42', '309731951654', '6bb2646d82ea', 'df0c258fabc1'),
        'stripe/delta/torn/disk': ('d1b32841fb42', '309731951654', 'e4c760821e8f', '29a7c21dfdde'),
        'stripe/delta/plain/nvram': ('d1b32841fb42', '309731951654', 'ece430ff45be', 'e8cad2589e6e'),
        'stripe/delta/plain/disk': ('d1b32841fb42', '309731951654', 'd351be70b99e', '5451cdde2ed3'),
        'stripe/image/torn/nvram': ('d1b32841fb42', '309731951654', '0a0013ebd908', '6f9878f14815'),
        'stripe/image/torn/disk': ('d1b32841fb42', '309731951654', '433f193bbe77', '03c632e81cc7'),
        'stripe/image/plain/nvram': ('d1b32841fb42', '309731951654', '5848b9832c68', 'f99082d46b88'),
        'stripe/image/plain/disk': ('d1b32841fb42', '309731951654', 'f7964058fe89', '5451cdde2ed3'),
        'raid5/delta/torn/nvram': ('d354091f1d2f', '7f81911b8d77', '77c8c73a774e', '8a12504b08ff'),
        'raid5/delta/torn/disk': ('d354091f1d2f', '7f81911b8d77', 'a6cf2cd31a45', 'e2ef7aab6036'),
        'raid5/delta/plain/nvram': ('d354091f1d2f', '7f81911b8d77', '2319fb074229', '2d7f1f7ae45c'),
        'raid5/delta/plain/disk': ('d354091f1d2f', '7f81911b8d77', '5def45264a88', '5bced1ae0432'),
        'raid5/image/torn/nvram': ('d354091f1d2f', '7f81911b8d77', '1092626db4e0', '5fc02e4b3abb'),
        'raid5/image/torn/disk': ('d354091f1d2f', '7f81911b8d77', '1cf44bc41c7d', '82227cc14369'),
        'raid5/image/plain/nvram': ('d354091f1d2f', '7f81911b8d77', 'b046957e75d5', '5fe11559b9ae'),
        'raid5/image/plain/disk': ('d354091f1d2f', '7f81911b8d77', 'fdf87339bf80', '5bced1ae0432'),
    },
    'flushes': {
        'bare/delta/torn/nvram': ('e385b968c8f5', 'b596fdd9fa4e', 'a9345559467b', '89b24fabcd4a'),
        'bare/delta/torn/disk': ('e385b968c8f5', '62133db93699', '0d5b3d8ffe19', 'f900b862ac95'),
        'bare/delta/plain/nvram': ('e385b968c8f5', 'b596fdd9fa4e', '0b7832b45a6e', 'd9e86bd71a8d'),
        'bare/delta/plain/disk': ('e385b968c8f5', '62133db93699', '7db451a3faf9', 'd4596e3b303d'),
        'bare/image/torn/nvram': ('e385b968c8f5', 'b596fdd9fa4e', 'ea153fbd1bc8', 'bcb5cf5a440e'),
        'bare/image/torn/disk': ('e385b968c8f5', '62133db93699', 'ecb646698fc7', '800ab1a54130'),
        'bare/image/plain/nvram': ('e385b968c8f5', 'b596fdd9fa4e', '1104b52d155a', '352a3f3ecd89'),
        'bare/image/plain/disk': ('e385b968c8f5', '62133db93699', '868f2ae6e785', 'b709194d1eda'),
        'stripe/delta/torn/nvram': ('fcebdad139c0', '1eca18325077', '2583dd5038ae', '7bb130e4f1c7'),
        'stripe/delta/torn/disk': ('fcebdad139c0', '3bd43ee53206', 'a98486bb66ac', 'acf44727cf08'),
        'stripe/delta/plain/nvram': ('fcebdad139c0', '1eca18325077', '7b13de8e4ab7', 'dd3b2d4e918d'),
        'stripe/delta/plain/disk': ('fcebdad139c0', '3bd43ee53206', 'ff4b19c98236', 'f3245ac8c54f'),
        'stripe/image/torn/nvram': ('fcebdad139c0', '1eca18325077', '08e7308c5d58', 'fe8b4642b5b6'),
        'stripe/image/torn/disk': ('fcebdad139c0', '3bd43ee53206', '1fae02d72ddd', '306cec28b7fb'),
        'stripe/image/plain/nvram': ('fcebdad139c0', '1eca18325077', 'dd2ef22a5b5b', 'dd3b2d4e918d'),
        'stripe/image/plain/disk': ('fcebdad139c0', '3bd43ee53206', 'd1a240870a90', '9552dd209da7'),
        'raid5/delta/torn/nvram': ('cd406d4a215f', '04778f4a1fab', '2f5ab59f223e', '7621addd44dd'),
        'raid5/delta/torn/disk': ('cd406d4a215f', '9d79695e3fd9', '1802153e36f6', '5bdd8dac05f6'),
        'raid5/delta/plain/nvram': ('cd406d4a215f', '04778f4a1fab', 'e9996775e897', '50bd43a78403'),
        'raid5/delta/plain/disk': ('cd406d4a215f', '9d79695e3fd9', '76c546ea5105', 'f2060ead4f95'),
        'raid5/image/torn/nvram': ('cd406d4a215f', '04778f4a1fab', '7ea8ba64a367', '3a40dbd8a39d'),
        'raid5/image/torn/disk': ('cd406d4a215f', '9d79695e3fd9', '214652516257', '66660bc6706e'),
        'raid5/image/plain/nvram': ('cd406d4a215f', '04778f4a1fab', '4fcce33eaad7', 'efa05eebc7c3'),
        'raid5/image/plain/disk': ('cd406d4a215f', '9d79695e3fd9', '5bb6dbca3cab', '6a65df267997'),
    },
    'nvram_replay': {
        'bare/delta/torn/nvram': ('b281e09ffae3', '6927e16d3584', '2813d7a65c54', '3950a10608dd'),
        'bare/delta/torn/disk': ('b281e09ffae3', '447f26c634ed', 'e4882b9c50a5', 'b28873cb7224'),
        'bare/delta/plain/nvram': ('b281e09ffae3', '6927e16d3584', '91b7a5d92cef', '7cb13151fa6d'),
        'bare/delta/plain/disk': ('b281e09ffae3', '447f26c634ed', 'bc0bcc10bd34', '7b1b0a1518c8'),
        'bare/image/torn/nvram': ('b281e09ffae3', '6927e16d3584', 'f849022983d4', 'cf35b58cd0da'),
        'bare/image/torn/disk': ('b281e09ffae3', '447f26c634ed', 'd0c85ea12e3c', '557aa0f7ac50'),
        'bare/image/plain/nvram': ('b281e09ffae3', '6927e16d3584', '09c166bdd434', '28e9358dcf1f'),
        'bare/image/plain/disk': ('b281e09ffae3', '447f26c634ed', 'da8bb688ddd2', '7b1b0a1518c8'),
        'stripe/delta/torn/nvram': ('9affc57acc78', 'fbb273985b40', '82f914b29abf', '88379ee840e6'),
        'stripe/delta/torn/disk': ('9affc57acc78', '13080bae8ee5', '390d0f22b69d', '6df2695bdc96'),
        'stripe/delta/plain/nvram': ('9affc57acc78', 'fbb273985b40', 'a6b17a885b30', '140b4922641e'),
        'stripe/delta/plain/disk': ('9affc57acc78', '13080bae8ee5', '519017554c38', 'f334eb66c938'),
        'stripe/image/torn/nvram': ('9affc57acc78', 'fbb273985b40', 'c7c18d47dd51', 'e4f89d47b0f7'),
        'stripe/image/torn/disk': ('9affc57acc78', '13080bae8ee5', '9dd65f0f6be4', '28a4bc17bb8c'),
        'stripe/image/plain/nvram': ('9affc57acc78', 'fbb273985b40', '2d07d818d251', '140b4922641e'),
        'stripe/image/plain/disk': ('9affc57acc78', '13080bae8ee5', '291897d3c2d6', '0eb9c4a3c2d5'),
        'raid5/delta/torn/nvram': ('7ea7c1d33de4', 'cb2cf15e062c', '5ad32a7b3aff', '09d5ded9ae71'),
        'raid5/delta/torn/disk': ('7ea7c1d33de4', 'ad10b30119c4', '69547e4f6692', 'aa62af039953'),
        'raid5/delta/plain/nvram': ('7ea7c1d33de4', 'cb2cf15e062c', '37fc29449aad', '7785176fd051'),
        'raid5/delta/plain/disk': ('7ea7c1d33de4', 'ad10b30119c4', 'ea2ae7bc6c10', 'd9e7fd951a9d'),
        'raid5/image/torn/nvram': ('7ea7c1d33de4', 'cb2cf15e062c', 'b85e7f68abec', '1ad2304bde68'),
        'raid5/image/torn/disk': ('7ea7c1d33de4', 'ad10b30119c4', 'd624b012153f', 'e6fffa015486'),
        'raid5/image/plain/nvram': ('7ea7c1d33de4', 'cb2cf15e062c', 'a19da2c0c577', '4b8ae364c179'),
        'raid5/image/plain/disk': ('7ea7c1d33de4', 'ad10b30119c4', '050d6eddf7bd', 'cee6ea2944bc'),
    },
    'read_cache': {
        'bare/delta/torn/nvram': ('4ab15ee5ab20', 'b4dd13aa327c', '6771c4957093', '96ea6da01b3a'),
        'bare/delta/torn/disk': ('4ab15ee5ab20', 'b4dd13aa327c', '6771c4957093', '96ea6da01b3a'),
        'bare/delta/plain/nvram': ('4ab15ee5ab20', 'b4dd13aa327c', 'b20a05cdd6e9', '6b718c90bbd0'),
        'bare/delta/plain/disk': ('4ab15ee5ab20', 'b4dd13aa327c', 'b20a05cdd6e9', '6b718c90bbd0'),
        'bare/image/torn/nvram': ('4ab15ee5ab20', 'b4dd13aa327c', '8372d5aa2bfd', '24253b2f7463'),
        'bare/image/torn/disk': ('4ab15ee5ab20', 'b4dd13aa327c', '8372d5aa2bfd', '24253b2f7463'),
        'bare/image/plain/nvram': ('4ab15ee5ab20', 'b4dd13aa327c', '10cde806b7f9', 'eeaa188767ab'),
        'bare/image/plain/disk': ('4ab15ee5ab20', 'b4dd13aa327c', '10cde806b7f9', 'eeaa188767ab'),
        'stripe/delta/torn/nvram': ('54b026194e7b', '339205696eed', '96e6606aeeef', '18ec38558eb7'),
        'stripe/delta/torn/disk': ('54b026194e7b', '339205696eed', '96e6606aeeef', '18ec38558eb7'),
        'stripe/delta/plain/nvram': ('54b026194e7b', '339205696eed', '55662acdae71', '577dd72ee08c'),
        'stripe/delta/plain/disk': ('54b026194e7b', '339205696eed', '55662acdae71', '577dd72ee08c'),
        'stripe/image/torn/nvram': ('54b026194e7b', '339205696eed', 'a398381dd1fa', 'b9c41d40e2fb'),
        'stripe/image/torn/disk': ('54b026194e7b', '339205696eed', 'a398381dd1fa', 'b9c41d40e2fb'),
        'stripe/image/plain/nvram': ('54b026194e7b', '339205696eed', '5b0126ed4521', '5fce1e8ea22c'),
        'stripe/image/plain/disk': ('54b026194e7b', '339205696eed', '5b0126ed4521', '5fce1e8ea22c'),
        'raid5/delta/torn/nvram': ('af2589ad471e', '555786e34917', 'ce93b392c702', '3742b5e6fb42'),
        'raid5/delta/torn/disk': ('af2589ad471e', '555786e34917', 'ce93b392c702', '3742b5e6fb42'),
        'raid5/delta/plain/nvram': ('af2589ad471e', '555786e34917', '0d7e937a4150', 'a5a6484761af'),
        'raid5/delta/plain/disk': ('af2589ad471e', '555786e34917', '0d7e937a4150', 'a5a6484761af'),
        'raid5/image/torn/nvram': ('af2589ad471e', '555786e34917', '763ce2fffc12', 'f2e632047241'),
        'raid5/image/torn/disk': ('af2589ad471e', '555786e34917', '763ce2fffc12', 'f2e632047241'),
        'raid5/image/plain/nvram': ('af2589ad471e', '555786e34917', 'ffd36f8d4a6f', '07130ceff5fa'),
        'raid5/image/plain/disk': ('af2589ad471e', '555786e34917', 'ffd36f8d4a6f', '07130ceff5fa'),
    },
    'reorganize': {
        'bare/delta/torn/nvram': ('c5b3731b8a8e', '5add7b7f16a3', '6ac7de00970d', '13aa23ab75e0'),
        'bare/delta/torn/disk': ('c5b3731b8a8e', '5add7b7f16a3', '6ac7de00970d', '13aa23ab75e0'),
        'bare/delta/plain/nvram': ('c5b3731b8a8e', '5add7b7f16a3', '0054364cdf8b', 'b4f8ea06a1e9'),
        'bare/delta/plain/disk': ('c5b3731b8a8e', '5add7b7f16a3', '0054364cdf8b', 'b4f8ea06a1e9'),
        'bare/image/torn/nvram': ('c5b3731b8a8e', '5add7b7f16a3', '7960444cbc4f', 'e3463ea966de'),
        'bare/image/torn/disk': ('c5b3731b8a8e', '5add7b7f16a3', '7960444cbc4f', 'e3463ea966de'),
        'bare/image/plain/nvram': ('c5b3731b8a8e', '5add7b7f16a3', '8d11b38951c4', '0c3cce3f849d'),
        'bare/image/plain/disk': ('c5b3731b8a8e', '5add7b7f16a3', '8d11b38951c4', '0c3cce3f849d'),
        'stripe/delta/torn/nvram': ('a61b3a608245', '78af65416f26', 'c1fda24c403d', '6dce029ae019'),
        'stripe/delta/torn/disk': ('a61b3a608245', '78af65416f26', 'c1fda24c403d', '6dce029ae019'),
        'stripe/delta/plain/nvram': ('a61b3a608245', '78af65416f26', '8c87960b764f', '1a3a05da1585'),
        'stripe/delta/plain/disk': ('a61b3a608245', '78af65416f26', '8c87960b764f', '1a3a05da1585'),
        'stripe/image/torn/nvram': ('a61b3a608245', '78af65416f26', '10ae84198e1e', '97790f4b4458'),
        'stripe/image/torn/disk': ('a61b3a608245', '78af65416f26', '10ae84198e1e', '97790f4b4458'),
        'stripe/image/plain/nvram': ('a61b3a608245', '78af65416f26', '37236695f326', 'c7690610ee9a'),
        'stripe/image/plain/disk': ('a61b3a608245', '78af65416f26', '37236695f326', 'c7690610ee9a'),
        'raid5/delta/torn/nvram': ('5cecd90fedd9', '539206775ac7', '234a71ff4e4d', 'f00b14ae5d2f'),
        'raid5/delta/torn/disk': ('5cecd90fedd9', '539206775ac7', '234a71ff4e4d', 'f00b14ae5d2f'),
        'raid5/delta/plain/nvram': ('5cecd90fedd9', '539206775ac7', '8a258c3bc810', '5b53111b0eb7'),
        'raid5/delta/plain/disk': ('5cecd90fedd9', '539206775ac7', '8a258c3bc810', '5b53111b0eb7'),
        'raid5/image/torn/nvram': ('5cecd90fedd9', '539206775ac7', '729759043b37', '12114c796477'),
        'raid5/image/torn/disk': ('5cecd90fedd9', '539206775ac7', '729759043b37', '12114c796477'),
        'raid5/image/plain/nvram': ('5cecd90fedd9', '539206775ac7', '8546b587a976', 'f00b14ae5d2f'),
        'raid5/image/plain/disk': ('5cecd90fedd9', '539206775ac7', '8546b587a976', 'f00b14ae5d2f'),
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

    def __init__(self, script: str, device: str, delta: bool, torn: bool, nvram: bool, **config) -> None:
        self.device = make_device(device)
        self.disk = JournalDisk(self.device)
        self.config = LLDConfig(
            segment_size=SEGMENT,
            summary_capacity=4096,
            block_size=4096,
            checkpoint_slots=1,
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
    for dev, delta, torn, nvram in CONFIGS:
        if dev != device:
            continue
        cid = config_id(dev, delta, torn, nvram)
        state = collect(script, dev, delta, torn, nvram)
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
