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
other 168 arms are the parent's. The summary header's ``next`` field
(parent faa17ba): four more bytes in every summary header, so ``layout``
(the images) and ``requests`` (the written bytes' CRCs) re-captured on
all 192; ``clocks`` on the 7 ``compaction`` arms where a summary filled
to its last record now seals one record sooner — a checkout of the
parent with four padding bytes after its header gives the same clocks
on all 24 ``compaction`` arms; ``contents`` the parent's on all 192, and
``clocks`` on the other 185. A
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
        'bare/delta/torn/nvram': ('d1f0ca1fa0e0', '99653a6f8a36', '9490fa61b2ef', 'f8312a635281'),
        'bare/delta/torn/disk': ('d1f0ca1fa0e0', 'b9c0ced7dd17', 'dbe95a435449', 'ad6458f7dd69'),
        'bare/delta/plain/nvram': ('d1f0ca1fa0e0', '99653a6f8a36', '44a45067b362', '037142192138'),
        'bare/delta/plain/disk': ('d1f0ca1fa0e0', 'b9c0ced7dd17', '751046348142', '18ca70ddfae6'),
        'bare/image/torn/nvram': ('d1f0ca1fa0e0', '99653a6f8a36', '007eece49bcc', 'ed0271a415ec'),
        'bare/image/torn/disk': ('d1f0ca1fa0e0', 'b9c0ced7dd17', '9f1a9d131431', 'bd21134b7d65'),
        'bare/image/plain/nvram': ('d1f0ca1fa0e0', '99653a6f8a36', '53b0b32e784b', 'aea7fb92e5a7'),
        'bare/image/plain/disk': ('d1f0ca1fa0e0', 'b9c0ced7dd17', 'd2e375d0dc7c', 'c86570270440'),
        'stripe/delta/torn/nvram': ('167464a16ae5', '53935bc0dcf0', '5bdd46cc06bf', '47ed5cf22d08'),
        'stripe/delta/torn/disk': ('167464a16ae5', 'e6d047340c40', '8650c23bbe0a', 'f8cc9fff35e1'),
        'stripe/delta/plain/nvram': ('167464a16ae5', '53935bc0dcf0', '19466fb415cc', '15dbf9f61ad5'),
        'stripe/delta/plain/disk': ('167464a16ae5', 'e6d047340c40', '6f543890a359', 'd2fb8c7b1355'),
        'stripe/image/torn/nvram': ('167464a16ae5', '53935bc0dcf0', '664f24d293d6', '47ed5cf22d08'),
        'stripe/image/torn/disk': ('167464a16ae5', 'e6d047340c40', '7cf1fdee9d71', 'f8cc9fff35e1'),
        'stripe/image/plain/nvram': ('167464a16ae5', '53935bc0dcf0', '33ec09ed77ef', '15dbf9f61ad5'),
        'stripe/image/plain/disk': ('167464a16ae5', 'e6d047340c40', '8ff8a1dc597e', 'ce86b6e6e9ed'),
        'raid5/delta/torn/nvram': ('39ec6d2c2616', 'b4abeb4d7c89', 'd5fb3d6c8ff2', 'e1ee817351a7'),
        'raid5/delta/torn/disk': ('39ec6d2c2616', '8e9e241b952e', 'b4a443a699de', 'cf6d6bff9ae6'),
        'raid5/delta/plain/nvram': ('39ec6d2c2616', 'b4abeb4d7c89', 'c8d2b244b9c6', '305a1059e788'),
        'raid5/delta/plain/disk': ('39ec6d2c2616', '8e9e241b952e', '85b55abf0995', 'e290b7c012d4'),
        'raid5/image/torn/nvram': ('39ec6d2c2616', 'b4abeb4d7c89', '6267b5cedfea', '90414d908864'),
        'raid5/image/torn/disk': ('39ec6d2c2616', '8e9e241b952e', '0d39a79af7e1', '7a45d9275f99'),
        'raid5/image/plain/nvram': ('39ec6d2c2616', 'b4abeb4d7c89', '6c14bbf8049e', '46258edac784'),
        'raid5/image/plain/disk': ('39ec6d2c2616', '8e9e241b952e', '826597a3bcd1', '1f9cf1051eaa'),
    },
    'compaction': {
        'bare/delta/torn/nvram': ('f43c3e5cdaa8', '5d4c6901ffad', '6bc2d14ceccf', 'd24262ddb8a1'),
        'bare/delta/torn/disk': ('f43c3e5cdaa8', '0753b8f1cf4f', '2d032dc9ab02', 'df156fb727aa'),
        'bare/delta/plain/nvram': ('f43c3e5cdaa8', '5d4c6901ffad', '36bb9c8cd16e', '22bd200a9c61'),
        'bare/delta/plain/disk': ('f43c3e5cdaa8', '0753b8f1cf4f', '63b3553d5ecb', '3f47e076e8e8'),
        'bare/image/torn/nvram': ('f43c3e5cdaa8', '5d4c6901ffad', 'ead3016333fc', 'd24262ddb8a1'),
        'bare/image/torn/disk': ('f43c3e5cdaa8', '0753b8f1cf4f', '7b1a2973ea21', '8fc3c72c8551'),
        'bare/image/plain/nvram': ('f43c3e5cdaa8', '5d4c6901ffad', '144cc3b85848', '0cd46654a9fa'),
        'bare/image/plain/disk': ('f43c3e5cdaa8', '0753b8f1cf4f', '3795a917ad7c', 'a3c13c3c0ba4'),
        'stripe/delta/torn/nvram': ('cf67d8db9144', 'cc4c341ba2e9', '50f5e65d5b20', '3d64491fe44d'),
        'stripe/delta/torn/disk': ('cf67d8db9144', 'a2d2d5596116', 'fd4dbe98c6d3', 'd7e4a7df206b'),
        'stripe/delta/plain/nvram': ('cf67d8db9144', 'cc4c341ba2e9', 'b7652121fede', '8e3be3a8d98c'),
        'stripe/delta/plain/disk': ('cf67d8db9144', 'a2d2d5596116', 'c25b6ac40668', 'd5fb384a29d5'),
        'stripe/image/torn/nvram': ('cf67d8db9144', 'cc4c341ba2e9', 'c6835e07fad9', '3d64491fe44d'),
        'stripe/image/torn/disk': ('cf67d8db9144', 'a2d2d5596116', 'f9580f478860', '8f11f8e64c2b'),
        'stripe/image/plain/nvram': ('cf67d8db9144', 'cc4c341ba2e9', 'f9f5b3fc5f97', '8e3be3a8d98c'),
        'stripe/image/plain/disk': ('cf67d8db9144', 'a2d2d5596116', 'ede67eec6622', '8fe0afd533b4'),
        'raid5/delta/torn/nvram': ('486ae46ecdb9', '928ee2551e45', '35cdd8b97bab', '995306cfada9'),
        'raid5/delta/torn/disk': ('486ae46ecdb9', 'c608b50a9de2', '1a9f5f7b45d7', '13732d68a4c9'),
        'raid5/delta/plain/nvram': ('486ae46ecdb9', '928ee2551e45', '8254b02e26a6', '160fe85b9bfe'),
        'raid5/delta/plain/disk': ('486ae46ecdb9', 'c608b50a9de2', 'd84521742722', '3749a2481fdf'),
        'raid5/image/torn/nvram': ('486ae46ecdb9', '928ee2551e45', '7dbb57ceada2', 'a10f48b85a4d'),
        'raid5/image/torn/disk': ('486ae46ecdb9', 'c608b50a9de2', 'ba34397edc4f', '9e31ccbe0870'),
        'raid5/image/plain/nvram': ('486ae46ecdb9', '928ee2551e45', 'bb80803ed054', '160fe85b9bfe'),
        'raid5/image/plain/disk': ('486ae46ecdb9', 'c608b50a9de2', 'f682229e635f', '7ef701dbd883'),
    },
    'compression': {
        'bare/delta/torn/nvram': ('342b23cd34f7', 'b10a7af45064', 'd9c9a198d4fc', '0c1868668ae3'),
        'bare/delta/torn/disk': ('342b23cd34f7', 'b10a7af45064', '056a77a049fe', '7719587008a4'),
        'bare/delta/plain/nvram': ('342b23cd34f7', 'b10a7af45064', '33bce44539dc', '6c6e857a923f'),
        'bare/delta/plain/disk': ('342b23cd34f7', 'b10a7af45064', 'f19ca431ab33', '161a413f68ef'),
        'bare/image/torn/nvram': ('342b23cd34f7', 'b10a7af45064', '7a3932e8cdbf', '0c1868668ae3'),
        'bare/image/torn/disk': ('342b23cd34f7', 'b10a7af45064', '2a093e85b046', '7719587008a4'),
        'bare/image/plain/nvram': ('342b23cd34f7', 'b10a7af45064', '6e03d70a8617', '6c6e857a923f'),
        'bare/image/plain/disk': ('342b23cd34f7', 'b10a7af45064', '594cdf1b91f6', '092c9882e211'),
        'stripe/delta/torn/nvram': ('3db3061db605', 'e2856dd8bb90', '495ee1879664', 'bf164a50577a'),
        'stripe/delta/torn/disk': ('3db3061db605', 'e2856dd8bb90', '7154205a7ea4', '805db81d030c'),
        'stripe/delta/plain/nvram': ('3db3061db605', 'e2856dd8bb90', '72db67964866', '4d80b2ca8ebe'),
        'stripe/delta/plain/disk': ('3db3061db605', 'e2856dd8bb90', '1b37f9f2fc68', 'ebea76a1fc09'),
        'stripe/image/torn/nvram': ('3db3061db605', 'e2856dd8bb90', '8e9f229b6af2', 'bf164a50577a'),
        'stripe/image/torn/disk': ('3db3061db605', 'e2856dd8bb90', '0e4c565ecf1b', '2b7df5f3f285'),
        'stripe/image/plain/nvram': ('3db3061db605', 'e2856dd8bb90', '3d6eef4d4838', '4d80b2ca8ebe'),
        'stripe/image/plain/disk': ('3db3061db605', 'e2856dd8bb90', 'c349043d9135', 'ebea76a1fc09'),
        'raid5/delta/torn/nvram': ('947314dbc9bf', '9d206f9eaf9b', '958b24513893', 'caa6fc8e1a0d'),
        'raid5/delta/torn/disk': ('947314dbc9bf', '9d206f9eaf9b', 'fc305f71ae09', '83a2a3e5c9c6'),
        'raid5/delta/plain/nvram': ('947314dbc9bf', '9d206f9eaf9b', 'e20c626effee', 'fd10a7cc9d3b'),
        'raid5/delta/plain/disk': ('947314dbc9bf', '9d206f9eaf9b', '6f6279e11bf7', 'fd10a7cc9d3b'),
        'raid5/image/torn/nvram': ('947314dbc9bf', '9d206f9eaf9b', '471573575a3c', 'caa6fc8e1a0d'),
        'raid5/image/torn/disk': ('947314dbc9bf', '9d206f9eaf9b', 'a1355b482db6', '5a3c353ca0f5'),
        'raid5/image/plain/nvram': ('947314dbc9bf', '9d206f9eaf9b', '16a096324782', 'fd10a7cc9d3b'),
        'raid5/image/plain/disk': ('947314dbc9bf', '9d206f9eaf9b', 'aa02a24989f1', '83ff4cd4aac6'),
    },
    'deletes_clean': {
        'bare/delta/torn/nvram': ('547959dfb219', 'b3a0f7aa2db0', 'a2ace2139e77', 'e54cdfa81d00'),
        'bare/delta/torn/disk': ('547959dfb219', 'b3a0f7aa2db0', '78f081636a9b', 'ed152739712d'),
        'bare/delta/plain/nvram': ('547959dfb219', 'b3a0f7aa2db0', 'dee081aa6ac1', '7277d2b70699'),
        'bare/delta/plain/disk': ('547959dfb219', 'b3a0f7aa2db0', '3d314b4e01ff', 'f0ca6a57d706'),
        'bare/image/torn/nvram': ('547959dfb219', 'b3a0f7aa2db0', '6ea90f5ddc5e', 'a55810efecca'),
        'bare/image/torn/disk': ('547959dfb219', 'b3a0f7aa2db0', 'ba59ad6c627d', '2b443de4cb61'),
        'bare/image/plain/nvram': ('547959dfb219', 'b3a0f7aa2db0', '5d606fa55f6e', '57871303e925'),
        'bare/image/plain/disk': ('547959dfb219', 'b3a0f7aa2db0', '0ea2f97350b9', '04a904a998cd'),
        'stripe/delta/torn/nvram': ('d1b32841fb42', '620233bd7a16', '4c63296258a3', 'df0c258fabc1'),
        'stripe/delta/torn/disk': ('d1b32841fb42', '620233bd7a16', '6d42a175f9c6', '29a7c21dfdde'),
        'stripe/delta/plain/nvram': ('d1b32841fb42', '620233bd7a16', '324a7ce3d034', 'e8cad2589e6e'),
        'stripe/delta/plain/disk': ('d1b32841fb42', '620233bd7a16', '15dfd0ce8282', '5451cdde2ed3'),
        'stripe/image/torn/nvram': ('d1b32841fb42', '620233bd7a16', '5ba3d856a844', '6f9878f14815'),
        'stripe/image/torn/disk': ('d1b32841fb42', '620233bd7a16', 'cd2aeb01c2e9', '03c632e81cc7'),
        'stripe/image/plain/nvram': ('d1b32841fb42', '620233bd7a16', '3562e58ceacb', 'f99082d46b88'),
        'stripe/image/plain/disk': ('d1b32841fb42', '620233bd7a16', '7043fc742d73', '5451cdde2ed3'),
        'raid5/delta/torn/nvram': ('d354091f1d2f', '24d2a7ca7e92', 'af82a9dea517', '8a12504b08ff'),
        'raid5/delta/torn/disk': ('d354091f1d2f', '24d2a7ca7e92', 'c5bbadedb3ae', 'e2ef7aab6036'),
        'raid5/delta/plain/nvram': ('d354091f1d2f', '24d2a7ca7e92', '174f0e3e64ff', '2d7f1f7ae45c'),
        'raid5/delta/plain/disk': ('d354091f1d2f', '24d2a7ca7e92', '194086e2b41b', '5bced1ae0432'),
        'raid5/image/torn/nvram': ('d354091f1d2f', '24d2a7ca7e92', 'ecccdd4b5e71', '5fc02e4b3abb'),
        'raid5/image/torn/disk': ('d354091f1d2f', '24d2a7ca7e92', 'd6678d148481', '82227cc14369'),
        'raid5/image/plain/nvram': ('d354091f1d2f', '24d2a7ca7e92', 'ebd305c1fc3f', '5fe11559b9ae'),
        'raid5/image/plain/disk': ('d354091f1d2f', '24d2a7ca7e92', '8a21c515d7fc', '5bced1ae0432'),
    },
    'flushes': {
        'bare/delta/torn/nvram': ('e385b968c8f5', '6fcfb283b249', 'a6946abcad48', '89b24fabcd4a'),
        'bare/delta/torn/disk': ('e385b968c8f5', 'e9f69a30bd60', 'b05684912730', 'f900b862ac95'),
        'bare/delta/plain/nvram': ('e385b968c8f5', '6fcfb283b249', 'e222cf0d948a', 'd9e86bd71a8d'),
        'bare/delta/plain/disk': ('e385b968c8f5', 'e9f69a30bd60', '4513b62543b5', 'd4596e3b303d'),
        'bare/image/torn/nvram': ('e385b968c8f5', '6fcfb283b249', 'eed8c967f128', 'bcb5cf5a440e'),
        'bare/image/torn/disk': ('e385b968c8f5', 'e9f69a30bd60', 'd791fa664717', '800ab1a54130'),
        'bare/image/plain/nvram': ('e385b968c8f5', '6fcfb283b249', '0a37c7e33dc7', '352a3f3ecd89'),
        'bare/image/plain/disk': ('e385b968c8f5', 'e9f69a30bd60', 'c060a9941983', 'b709194d1eda'),
        'stripe/delta/torn/nvram': ('fcebdad139c0', '352a716c68c2', 'c5c89f746f9b', '7bb130e4f1c7'),
        'stripe/delta/torn/disk': ('fcebdad139c0', '7cbaea3b0a45', '46bbacd09fd8', 'acf44727cf08'),
        'stripe/delta/plain/nvram': ('fcebdad139c0', '352a716c68c2', 'd3bdbf3a3c1e', 'dd3b2d4e918d'),
        'stripe/delta/plain/disk': ('fcebdad139c0', '7cbaea3b0a45', '4d012469bc05', 'f3245ac8c54f'),
        'stripe/image/torn/nvram': ('fcebdad139c0', '352a716c68c2', '6a26563ff50e', 'fe8b4642b5b6'),
        'stripe/image/torn/disk': ('fcebdad139c0', '7cbaea3b0a45', '7a8d7e3da39c', '306cec28b7fb'),
        'stripe/image/plain/nvram': ('fcebdad139c0', '352a716c68c2', '297215b6c399', 'dd3b2d4e918d'),
        'stripe/image/plain/disk': ('fcebdad139c0', '7cbaea3b0a45', '020f207ef565', '9552dd209da7'),
        'raid5/delta/torn/nvram': ('cd406d4a215f', '35bf061aa51d', 'fa4ee7194365', '7621addd44dd'),
        'raid5/delta/torn/disk': ('cd406d4a215f', '2d80ea966b49', 'dae9ab369656', '5bdd8dac05f6'),
        'raid5/delta/plain/nvram': ('cd406d4a215f', '35bf061aa51d', '1fd679c20f99', '50bd43a78403'),
        'raid5/delta/plain/disk': ('cd406d4a215f', '2d80ea966b49', '1b50ea5410e5', 'f2060ead4f95'),
        'raid5/image/torn/nvram': ('cd406d4a215f', '35bf061aa51d', '7599e2c90de1', '3a40dbd8a39d'),
        'raid5/image/torn/disk': ('cd406d4a215f', '2d80ea966b49', 'b49ab8dec2b1', '66660bc6706e'),
        'raid5/image/plain/nvram': ('cd406d4a215f', '35bf061aa51d', '4fb7be31562c', 'efa05eebc7c3'),
        'raid5/image/plain/disk': ('cd406d4a215f', '2d80ea966b49', '59cb2b44af77', '6a65df267997'),
    },
    'nvram_replay': {
        'bare/delta/torn/nvram': ('b281e09ffae3', 'c83bbd272150', '8be30a9b4d8d', '3950a10608dd'),
        'bare/delta/torn/disk': ('b281e09ffae3', '171625a8a62a', '317dd3e186e9', 'b28873cb7224'),
        'bare/delta/plain/nvram': ('b281e09ffae3', 'c83bbd272150', '4f4568bf2bde', '7cb13151fa6d'),
        'bare/delta/plain/disk': ('b281e09ffae3', '171625a8a62a', '326e2c247260', '7b1b0a1518c8'),
        'bare/image/torn/nvram': ('b281e09ffae3', 'c83bbd272150', 'a1ae4ae4d92f', 'cf35b58cd0da'),
        'bare/image/torn/disk': ('b281e09ffae3', '171625a8a62a', '5d55df391037', '557aa0f7ac50'),
        'bare/image/plain/nvram': ('b281e09ffae3', 'c83bbd272150', 'c805ef1b0b15', '28e9358dcf1f'),
        'bare/image/plain/disk': ('b281e09ffae3', '171625a8a62a', 'f5e7214b7434', '7b1b0a1518c8'),
        'stripe/delta/torn/nvram': ('9affc57acc78', 'd807e1c9b32f', 'dd9839c0e273', '88379ee840e6'),
        'stripe/delta/torn/disk': ('9affc57acc78', '3479d106e523', '7123d0c088b4', '6df2695bdc96'),
        'stripe/delta/plain/nvram': ('9affc57acc78', 'd807e1c9b32f', '7dbb0ee2c68b', '140b4922641e'),
        'stripe/delta/plain/disk': ('9affc57acc78', '3479d106e523', '1b92cd045f85', 'f334eb66c938'),
        'stripe/image/torn/nvram': ('9affc57acc78', 'd807e1c9b32f', '4b3e7d7f6636', 'e4f89d47b0f7'),
        'stripe/image/torn/disk': ('9affc57acc78', '3479d106e523', '18c50b9e7b99', '28a4bc17bb8c'),
        'stripe/image/plain/nvram': ('9affc57acc78', 'd807e1c9b32f', '9db3a6b306f4', '140b4922641e'),
        'stripe/image/plain/disk': ('9affc57acc78', '3479d106e523', '3ff691aae34c', '0eb9c4a3c2d5'),
        'raid5/delta/torn/nvram': ('7ea7c1d33de4', '56eb5bd966c2', '6a14b844c22a', '09d5ded9ae71'),
        'raid5/delta/torn/disk': ('7ea7c1d33de4', '70693c9fe7f0', '3f41998a4713', 'aa62af039953'),
        'raid5/delta/plain/nvram': ('7ea7c1d33de4', '56eb5bd966c2', '1ee33f2fdf00', '7785176fd051'),
        'raid5/delta/plain/disk': ('7ea7c1d33de4', '70693c9fe7f0', '99310e89022a', 'd9e7fd951a9d'),
        'raid5/image/torn/nvram': ('7ea7c1d33de4', '56eb5bd966c2', 'd47f07180fb9', '1ad2304bde68'),
        'raid5/image/torn/disk': ('7ea7c1d33de4', '70693c9fe7f0', '102c17395570', 'e6fffa015486'),
        'raid5/image/plain/nvram': ('7ea7c1d33de4', '56eb5bd966c2', '5b879af2cfdc', '4b8ae364c179'),
        'raid5/image/plain/disk': ('7ea7c1d33de4', '70693c9fe7f0', 'd3123cbd8e2d', 'cee6ea2944bc'),
    },
    'read_cache': {
        'bare/delta/torn/nvram': ('4ab15ee5ab20', '89b3846ab572', '3bf0c2b35188', '96ea6da01b3a'),
        'bare/delta/torn/disk': ('4ab15ee5ab20', '89b3846ab572', '3bf0c2b35188', '96ea6da01b3a'),
        'bare/delta/plain/nvram': ('4ab15ee5ab20', '89b3846ab572', '18bee992bae0', '6b718c90bbd0'),
        'bare/delta/plain/disk': ('4ab15ee5ab20', '89b3846ab572', '18bee992bae0', '6b718c90bbd0'),
        'bare/image/torn/nvram': ('4ab15ee5ab20', '89b3846ab572', 'bdfb15791801', '24253b2f7463'),
        'bare/image/torn/disk': ('4ab15ee5ab20', '89b3846ab572', 'bdfb15791801', '24253b2f7463'),
        'bare/image/plain/nvram': ('4ab15ee5ab20', '89b3846ab572', '9966acf8c212', 'eeaa188767ab'),
        'bare/image/plain/disk': ('4ab15ee5ab20', '89b3846ab572', '9966acf8c212', 'eeaa188767ab'),
        'stripe/delta/torn/nvram': ('54b026194e7b', '4d0cb9f73974', '6ab3e45a644c', '18ec38558eb7'),
        'stripe/delta/torn/disk': ('54b026194e7b', '4d0cb9f73974', '6ab3e45a644c', '18ec38558eb7'),
        'stripe/delta/plain/nvram': ('54b026194e7b', '4d0cb9f73974', 'd233181bbc8a', '577dd72ee08c'),
        'stripe/delta/plain/disk': ('54b026194e7b', '4d0cb9f73974', 'd233181bbc8a', '577dd72ee08c'),
        'stripe/image/torn/nvram': ('54b026194e7b', '4d0cb9f73974', 'deb9221351b0', 'b9c41d40e2fb'),
        'stripe/image/torn/disk': ('54b026194e7b', '4d0cb9f73974', 'deb9221351b0', 'b9c41d40e2fb'),
        'stripe/image/plain/nvram': ('54b026194e7b', '4d0cb9f73974', 'b86f5418c187', '5fce1e8ea22c'),
        'stripe/image/plain/disk': ('54b026194e7b', '4d0cb9f73974', 'b86f5418c187', '5fce1e8ea22c'),
        'raid5/delta/torn/nvram': ('af2589ad471e', '217de544bbf6', 'ed8571fa23f8', '3742b5e6fb42'),
        'raid5/delta/torn/disk': ('af2589ad471e', '217de544bbf6', 'ed8571fa23f8', '3742b5e6fb42'),
        'raid5/delta/plain/nvram': ('af2589ad471e', '217de544bbf6', '59c7ed0af322', 'a5a6484761af'),
        'raid5/delta/plain/disk': ('af2589ad471e', '217de544bbf6', '59c7ed0af322', 'a5a6484761af'),
        'raid5/image/torn/nvram': ('af2589ad471e', '217de544bbf6', '47e1605cb674', 'f2e632047241'),
        'raid5/image/torn/disk': ('af2589ad471e', '217de544bbf6', '47e1605cb674', 'f2e632047241'),
        'raid5/image/plain/nvram': ('af2589ad471e', '217de544bbf6', '3c31274f67de', '07130ceff5fa'),
        'raid5/image/plain/disk': ('af2589ad471e', '217de544bbf6', '3c31274f67de', '07130ceff5fa'),
    },
    'reorganize': {
        'bare/delta/torn/nvram': ('c5b3731b8a8e', '4c2398d24073', '75061ed007c7', '13aa23ab75e0'),
        'bare/delta/torn/disk': ('c5b3731b8a8e', '4c2398d24073', '75061ed007c7', '13aa23ab75e0'),
        'bare/delta/plain/nvram': ('c5b3731b8a8e', '4c2398d24073', '3bc1535efc2b', 'b4f8ea06a1e9'),
        'bare/delta/plain/disk': ('c5b3731b8a8e', '4c2398d24073', '3bc1535efc2b', 'b4f8ea06a1e9'),
        'bare/image/torn/nvram': ('c5b3731b8a8e', '4c2398d24073', '5433efe63597', 'e3463ea966de'),
        'bare/image/torn/disk': ('c5b3731b8a8e', '4c2398d24073', '5433efe63597', 'e3463ea966de'),
        'bare/image/plain/nvram': ('c5b3731b8a8e', '4c2398d24073', 'bd081a68a8d9', '0c3cce3f849d'),
        'bare/image/plain/disk': ('c5b3731b8a8e', '4c2398d24073', 'bd081a68a8d9', '0c3cce3f849d'),
        'stripe/delta/torn/nvram': ('a61b3a608245', '0c9aeffdd054', 'cd72c058a803', '6dce029ae019'),
        'stripe/delta/torn/disk': ('a61b3a608245', '0c9aeffdd054', 'cd72c058a803', '6dce029ae019'),
        'stripe/delta/plain/nvram': ('a61b3a608245', '0c9aeffdd054', '2705fe8767a8', '1a3a05da1585'),
        'stripe/delta/plain/disk': ('a61b3a608245', '0c9aeffdd054', '2705fe8767a8', '1a3a05da1585'),
        'stripe/image/torn/nvram': ('a61b3a608245', '0c9aeffdd054', '589a3b2e32cc', '97790f4b4458'),
        'stripe/image/torn/disk': ('a61b3a608245', '0c9aeffdd054', '589a3b2e32cc', '97790f4b4458'),
        'stripe/image/plain/nvram': ('a61b3a608245', '0c9aeffdd054', '57748bad8188', 'c7690610ee9a'),
        'stripe/image/plain/disk': ('a61b3a608245', '0c9aeffdd054', '57748bad8188', 'c7690610ee9a'),
        'raid5/delta/torn/nvram': ('5cecd90fedd9', '10dd3b9e8070', 'aebecbcf6804', 'f00b14ae5d2f'),
        'raid5/delta/torn/disk': ('5cecd90fedd9', '10dd3b9e8070', 'aebecbcf6804', 'f00b14ae5d2f'),
        'raid5/delta/plain/nvram': ('5cecd90fedd9', '10dd3b9e8070', 'e564ab5e413c', '5b53111b0eb7'),
        'raid5/delta/plain/disk': ('5cecd90fedd9', '10dd3b9e8070', 'e564ab5e413c', '5b53111b0eb7'),
        'raid5/image/torn/nvram': ('5cecd90fedd9', '10dd3b9e8070', '47c5d071cc69', '12114c796477'),
        'raid5/image/torn/disk': ('5cecd90fedd9', '10dd3b9e8070', '47c5d071cc69', '12114c796477'),
        'raid5/image/plain/nvram': ('5cecd90fedd9', '10dd3b9e8070', 'b252ea5e0691', 'f00b14ae5d2f'),
        'raid5/image/plain/disk': ('5cecd90fedd9', '10dd3b9e8070', 'b252ea5e0691', 'f00b14ae5d2f'),
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
