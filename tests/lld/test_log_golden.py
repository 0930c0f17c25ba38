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
three things apart, so that a change which is *supposed* to move one of
them keeps the pin on the other two:

* ``outcome`` — what the script left behind: the final image of every
  member, and the state a fresh LLD recovers from it (blocks, lists,
  usage, homes, tombstones, the recovery report's counts, every block's
  bytes);
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
into the three components at 0b4ce39 (the parent of the seal-by-delta PR)
with every digest still the parent's, by running, in a checkout of that
commit with this file copied in::

    PYTHONPATH=src python tests/lld/test_log_golden.py

which prints ``GOLDEN``. Since then one change moved requests on purpose
— seal by delta with ordering barriers, the PR whose parent is 0b4ce39 —
and re-captured, in its own checkout, only what it was supposed to move:
``requests`` on the ``delta`` arms (86 of 96 moved; all 96 ``image`` arms
are the parent's), ``clocks`` on the ``delta`` arms and on every stripe and
RAID-5 arm (the 32 bare-disk ``image`` arms are the parent's). ``outcome``
is the parent's on all 192. A change that keeps requests where they are
re-captures nothing; one that moves them re-captures the components it
names up front and shows the rest byte-identical to this table.

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
SINCE_CAPTURE = ("seals_by_delta", "seal_delta_bytes")

#: ``GOLDEN[script][config]`` = the ``COMPONENTS`` digests, in that order.
GOLDEN: dict[str, dict[str, tuple[str, str, str]]] = {
    'arus': {
        'bare/delta/torn/nvram': ('f8e89e82111a', '402eae494b9d', '1175e9ba93fe'),
        'bare/delta/torn/disk': ('c0448b9cb9cd', '8464a6d8765b', 'bfa919923006'),
        'bare/delta/plain/nvram': ('f8e89e82111a', 'a6a80f522775', '4d201d252b96'),
        'bare/delta/plain/disk': ('c0448b9cb9cd', 'bf47435c21fd', 'cd52130c1b2f'),
        'bare/image/torn/nvram': ('f8e89e82111a', '4c9d0c110b57', '5a3be9cc33a4'),
        'bare/image/torn/disk': ('c0448b9cb9cd', 'a8d397ee7799', 'a7bb45faec1c'),
        'bare/image/plain/nvram': ('f8e89e82111a', '2dcdbc5c812d', '13ed21ccceca'),
        'bare/image/plain/disk': ('c0448b9cb9cd', '8ca254a54925', 'd19dba65636c'),
        'stripe/delta/torn/nvram': ('83d70aed560a', 'fd05dcf9ccf3', '47ed5cf22d08'),
        'stripe/delta/torn/disk': ('9367f26da1dc', '5e4500b110ee', 'f8cc9fff35e1'),
        'stripe/delta/plain/nvram': ('83d70aed560a', '23d257ef66e4', '15dbf9f61ad5'),
        'stripe/delta/plain/disk': ('9367f26da1dc', '38126c614c4c', 'd2fb8c7b1355'),
        'stripe/image/torn/nvram': ('83d70aed560a', 'ec180f2b01b6', '47ed5cf22d08'),
        'stripe/image/torn/disk': ('9367f26da1dc', '1b20afef32c4', 'f8cc9fff35e1'),
        'stripe/image/plain/nvram': ('83d70aed560a', '44e5213db3f3', '15dbf9f61ad5'),
        'stripe/image/plain/disk': ('9367f26da1dc', 'd6b8ed4c179e', 'ce86b6e6e9ed'),
        'raid5/delta/torn/nvram': ('3d479c585310', 'e75dad9d8f92', '148e22aa85bb'),
        'raid5/delta/torn/disk': ('80c1b6fb5068', '6175d5485b5c', '2f17425cedb0'),
        'raid5/delta/plain/nvram': ('3d479c585310', '4233ddb5ac39', '6959aae1918f'),
        'raid5/delta/plain/disk': ('80c1b6fb5068', '56f0c0b0332b', 'b92b5690f18b'),
        'raid5/image/torn/nvram': ('3d479c585310', '0ecb4b0431cf', '124fae41e732'),
        'raid5/image/torn/disk': ('80c1b6fb5068', 'f0c5b98d5621', '012a81a0e0bd'),
        'raid5/image/plain/nvram': ('3d479c585310', '0bbcc8e6b5ad', 'f5c586750939'),
        'raid5/image/plain/disk': ('80c1b6fb5068', 'bee78cc2fa85', 'cae63a468d15'),
    },
    'compaction': {
        'bare/delta/torn/nvram': ('af1a6f8f12ee', '0f0206e541f0', '766cf4a38a13'),
        'bare/delta/torn/disk': ('e3a2c3670f29', 'ab59e15a3cf7', '8fc3c72c8551'),
        'bare/delta/plain/nvram': ('af1a6f8f12ee', 'cdaf4a0463f9', '22bd200a9c61'),
        'bare/delta/plain/disk': ('e3a2c3670f29', '5d21b0319f30', '3f47e076e8e8'),
        'bare/image/torn/nvram': ('af1a6f8f12ee', '143b21624ca2', '766cf4a38a13'),
        'bare/image/torn/disk': ('e3a2c3670f29', '95332a103714', '01c888be6177'),
        'bare/image/plain/nvram': ('af1a6f8f12ee', '4d3c6f96a726', '0cd46654a9fa'),
        'bare/image/plain/disk': ('e3a2c3670f29', '5118883dbfee', 'a3c13c3c0ba4'),
        'stripe/delta/torn/nvram': ('178bfd89ec60', '2cc4d39cee06', '3d64491fe44d'),
        'stripe/delta/torn/disk': ('9a461984d664', 'e5b93a0396c8', 'd7e4a7df206b'),
        'stripe/delta/plain/nvram': ('178bfd89ec60', '28c42f761089', '5e77bc7512b2'),
        'stripe/delta/plain/disk': ('9a461984d664', '30516c18e648', 'd5fb384a29d5'),
        'stripe/image/torn/nvram': ('178bfd89ec60', 'ebbb87ba0b48', '3d64491fe44d'),
        'stripe/image/torn/disk': ('9a461984d664', 'da496cdc6700', '8f11f8e64c2b'),
        'stripe/image/plain/nvram': ('178bfd89ec60', '5795e16f5cea', '5e77bc7512b2'),
        'stripe/image/plain/disk': ('9a461984d664', '5be74fa4e277', '8f6250d5da00'),
        'raid5/delta/torn/nvram': ('7e3cf0ee18a0', '9229638a1e00', '477bbfe68914'),
        'raid5/delta/torn/disk': ('95888c0a5ad9', 'e65e682ab5e6', 'b5f0394bda79'),
        'raid5/delta/plain/nvram': ('7e3cf0ee18a0', 'fd12a6f81ced', 'fd54373ec86a'),
        'raid5/delta/plain/disk': ('95888c0a5ad9', '33f2f7851406', '16e6ca5a9bdf'),
        'raid5/image/torn/nvram': ('7e3cf0ee18a0', '4ef297139aa8', '477bbfe68914'),
        'raid5/image/torn/disk': ('95888c0a5ad9', 'e13be1ae7761', 'b062ce2a23ba'),
        'raid5/image/plain/nvram': ('7e3cf0ee18a0', '51f10361578c', '0aeb34545c76'),
        'raid5/image/plain/disk': ('95888c0a5ad9', '3ec95e6b7d69', '5497ed6c1d65'),
    },
    'compression': {
        'bare/delta/torn/nvram': ('6a423743ac50', '4a808607b783', '0c1868668ae3'),
        'bare/delta/torn/disk': ('6a423743ac50', '9d32340fc3f6', '7719587008a4'),
        'bare/delta/plain/nvram': ('6a423743ac50', '53574484a147', '6c6e857a923f'),
        'bare/delta/plain/disk': ('6a423743ac50', 'ac038ea7a118', '161a413f68ef'),
        'bare/image/torn/nvram': ('6a423743ac50', '60cb59cd1c11', '0c1868668ae3'),
        'bare/image/torn/disk': ('6a423743ac50', '05dd5812fa51', '7719587008a4'),
        'bare/image/plain/nvram': ('6a423743ac50', 'e3a772599a24', '6c6e857a923f'),
        'bare/image/plain/disk': ('6a423743ac50', '6d26f5fd85ec', '092c9882e211'),
        'stripe/delta/torn/nvram': ('fe36c054c241', '3426005104aa', 'bf164a50577a'),
        'stripe/delta/torn/disk': ('fe36c054c241', '562dbd9512fe', '805db81d030c'),
        'stripe/delta/plain/nvram': ('fe36c054c241', 'ad0ee85370a9', '4d80b2ca8ebe'),
        'stripe/delta/plain/disk': ('fe36c054c241', '236fadcd4117', 'ebea76a1fc09'),
        'stripe/image/torn/nvram': ('fe36c054c241', 'f7672bb63a87', 'bf164a50577a'),
        'stripe/image/torn/disk': ('fe36c054c241', '3250b0efb307', '2b7df5f3f285'),
        'stripe/image/plain/nvram': ('fe36c054c241', '4713277bec7c', '4d80b2ca8ebe'),
        'stripe/image/plain/disk': ('fe36c054c241', '281116300305', 'ebea76a1fc09'),
        'raid5/delta/torn/nvram': ('1509191e0b2b', '4bf51e96e075', 'eb583c17bf32'),
        'raid5/delta/torn/disk': ('1509191e0b2b', 'c5abd58f7d25', 'fb0a46ee201b'),
        'raid5/delta/plain/nvram': ('1509191e0b2b', 'dc66e64f4ee9', 'ffbef80f7540'),
        'raid5/delta/plain/disk': ('1509191e0b2b', 'f16c3dc7c62f', '61ed44673f29'),
        'raid5/image/torn/nvram': ('1509191e0b2b', 'fd3f29b7cb4d', 'eb583c17bf32'),
        'raid5/image/torn/disk': ('1509191e0b2b', '67ac4304df06', '603ce533035a'),
        'raid5/image/plain/nvram': ('1509191e0b2b', '39972fa1f578', 'ffbef80f7540'),
        'raid5/image/plain/disk': ('1509191e0b2b', '4572b6ceaa39', '61ed44673f29'),
    },
    'deletes_clean': {
        'bare/delta/torn/nvram': ('67d0924f47e5', 'a0523891a44c', 'e54cdfa81d00'),
        'bare/delta/torn/disk': ('67d0924f47e5', '42a105ee22e6', 'ed152739712d'),
        'bare/delta/plain/nvram': ('67d0924f47e5', '563f67f90a81', '7277d2b70699'),
        'bare/delta/plain/disk': ('67d0924f47e5', '58f0b3df42b7', 'f0ca6a57d706'),
        'bare/image/torn/nvram': ('67d0924f47e5', 'dce49841d0d0', 'a55810efecca'),
        'bare/image/torn/disk': ('67d0924f47e5', 'effc97222923', '2b443de4cb61'),
        'bare/image/plain/nvram': ('67d0924f47e5', '52252fa95fbe', '57871303e925'),
        'bare/image/plain/disk': ('67d0924f47e5', 'e93499137da6', '04a904a998cd'),
        'stripe/delta/torn/nvram': ('309731951654', '6bb2646d82ea', 'df0c258fabc1'),
        'stripe/delta/torn/disk': ('309731951654', 'e4c760821e8f', '29a7c21dfdde'),
        'stripe/delta/plain/nvram': ('309731951654', 'ece430ff45be', 'e8cad2589e6e'),
        'stripe/delta/plain/disk': ('309731951654', 'd351be70b99e', '5451cdde2ed3'),
        'stripe/image/torn/nvram': ('309731951654', '0a0013ebd908', '6f9878f14815'),
        'stripe/image/torn/disk': ('309731951654', '433f193bbe77', '03c632e81cc7'),
        'stripe/image/plain/nvram': ('309731951654', '5848b9832c68', 'f99082d46b88'),
        'stripe/image/plain/disk': ('309731951654', 'f7964058fe89', '5451cdde2ed3'),
        'raid5/delta/torn/nvram': ('b3b90796fe0a', 'eebda3924288', '282616ffae9b'),
        'raid5/delta/torn/disk': ('b3b90796fe0a', 'd6cd2243d644', '25f8d5db3753'),
        'raid5/delta/plain/nvram': ('b3b90796fe0a', '45cfcda35f2e', '9ed9a513ca53'),
        'raid5/delta/plain/disk': ('b3b90796fe0a', 'd078cb0922e2', '8a24a42c537c'),
        'raid5/image/torn/nvram': ('b3b90796fe0a', 'c782059fe529', '464671a2b57d'),
        'raid5/image/torn/disk': ('b3b90796fe0a', '77d34a4c7aae', '25f8d5db3753'),
        'raid5/image/plain/nvram': ('b3b90796fe0a', '33f508d48068', '0868b0b605b8'),
        'raid5/image/plain/disk': ('b3b90796fe0a', 'eb2f5118a8e1', '17285456fb69'),
    },
    'flushes': {
        'bare/delta/torn/nvram': ('b596fdd9fa4e', 'a9345559467b', '89b24fabcd4a'),
        'bare/delta/torn/disk': ('62133db93699', '0d5b3d8ffe19', 'f900b862ac95'),
        'bare/delta/plain/nvram': ('b596fdd9fa4e', '0b7832b45a6e', 'd9e86bd71a8d'),
        'bare/delta/plain/disk': ('62133db93699', '7db451a3faf9', 'd4596e3b303d'),
        'bare/image/torn/nvram': ('b596fdd9fa4e', 'ea153fbd1bc8', 'bcb5cf5a440e'),
        'bare/image/torn/disk': ('62133db93699', 'ecb646698fc7', '800ab1a54130'),
        'bare/image/plain/nvram': ('b596fdd9fa4e', '1104b52d155a', '352a3f3ecd89'),
        'bare/image/plain/disk': ('62133db93699', '868f2ae6e785', 'b709194d1eda'),
        'stripe/delta/torn/nvram': ('1eca18325077', '2583dd5038ae', '7bb130e4f1c7'),
        'stripe/delta/torn/disk': ('3bd43ee53206', 'a98486bb66ac', 'acf44727cf08'),
        'stripe/delta/plain/nvram': ('1eca18325077', '7b13de8e4ab7', 'dd3b2d4e918d'),
        'stripe/delta/plain/disk': ('3bd43ee53206', 'ff4b19c98236', 'f3245ac8c54f'),
        'stripe/image/torn/nvram': ('1eca18325077', '08e7308c5d58', 'fe8b4642b5b6'),
        'stripe/image/torn/disk': ('3bd43ee53206', '1fae02d72ddd', '306cec28b7fb'),
        'stripe/image/plain/nvram': ('1eca18325077', 'dd2ef22a5b5b', 'dd3b2d4e918d'),
        'stripe/image/plain/disk': ('3bd43ee53206', 'd1a240870a90', '9552dd209da7'),
        'raid5/delta/torn/nvram': ('9aa7fe38f334', '31d076928ae0', '998b6fee1a0e'),
        'raid5/delta/torn/disk': ('397436764739', '57063a59afd8', 'd45b8833d392'),
        'raid5/delta/plain/nvram': ('9aa7fe38f334', '5b440df63231', 'a779affd158b'),
        'raid5/delta/plain/disk': ('397436764739', '6b17130c1582', 'f60d36c71921'),
        'raid5/image/torn/nvram': ('9aa7fe38f334', 'c83d0de6dc47', '714aadd05a22'),
        'raid5/image/torn/disk': ('397436764739', '092480954ee4', 'ffec4e5875a4'),
        'raid5/image/plain/nvram': ('9aa7fe38f334', '9492d71049a9', '5df501b4d0d0'),
        'raid5/image/plain/disk': ('397436764739', 'e47cc16478fa', 'ad0ccd0fafe9'),
    },
    'nvram_replay': {
        'bare/delta/torn/nvram': ('6927e16d3584', '2813d7a65c54', '3950a10608dd'),
        'bare/delta/torn/disk': ('447f26c634ed', 'e4882b9c50a5', 'b28873cb7224'),
        'bare/delta/plain/nvram': ('6927e16d3584', '91b7a5d92cef', '7cb13151fa6d'),
        'bare/delta/plain/disk': ('447f26c634ed', 'bc0bcc10bd34', '7b1b0a1518c8'),
        'bare/image/torn/nvram': ('6927e16d3584', 'f849022983d4', 'cf35b58cd0da'),
        'bare/image/torn/disk': ('447f26c634ed', 'd0c85ea12e3c', '557aa0f7ac50'),
        'bare/image/plain/nvram': ('6927e16d3584', '09c166bdd434', '28e9358dcf1f'),
        'bare/image/plain/disk': ('447f26c634ed', 'da8bb688ddd2', '7b1b0a1518c8'),
        'stripe/delta/torn/nvram': ('fbb273985b40', '82f914b29abf', '88379ee840e6'),
        'stripe/delta/torn/disk': ('13080bae8ee5', '390d0f22b69d', '6df2695bdc96'),
        'stripe/delta/plain/nvram': ('fbb273985b40', 'a6b17a885b30', '140b4922641e'),
        'stripe/delta/plain/disk': ('13080bae8ee5', '519017554c38', 'f334eb66c938'),
        'stripe/image/torn/nvram': ('fbb273985b40', 'c7c18d47dd51', 'e4f89d47b0f7'),
        'stripe/image/torn/disk': ('13080bae8ee5', '9dd65f0f6be4', '28a4bc17bb8c'),
        'stripe/image/plain/nvram': ('fbb273985b40', '2d07d818d251', '140b4922641e'),
        'stripe/image/plain/disk': ('13080bae8ee5', '291897d3c2d6', '0eb9c4a3c2d5'),
        'raid5/delta/torn/nvram': ('071e28c924f7', '856384d5a2dc', 'ae8a79b37a84'),
        'raid5/delta/torn/disk': ('6ec8fe175bac', 'd3c20b973b86', 'f2bd249065af'),
        'raid5/delta/plain/nvram': ('071e28c924f7', 'f05d0020297c', '075656663d3b'),
        'raid5/delta/plain/disk': ('6ec8fe175bac', 'adf8c2a57b67', 'eb1582b7dd03'),
        'raid5/image/torn/nvram': ('071e28c924f7', 'ee1cdca16f66', '3831e03a7cf2'),
        'raid5/image/torn/disk': ('6ec8fe175bac', '58b4a01dc8b9', '2f0d9a3fffde'),
        'raid5/image/plain/nvram': ('071e28c924f7', '34d25fd52268', 'b170b856086c'),
        'raid5/image/plain/disk': ('6ec8fe175bac', 'fbf92b437ad4', 'eb1582b7dd03'),
    },
    'read_cache': {
        'bare/delta/torn/nvram': ('b4dd13aa327c', '6771c4957093', '96ea6da01b3a'),
        'bare/delta/torn/disk': ('b4dd13aa327c', '6771c4957093', '96ea6da01b3a'),
        'bare/delta/plain/nvram': ('b4dd13aa327c', 'b20a05cdd6e9', '6b718c90bbd0'),
        'bare/delta/plain/disk': ('b4dd13aa327c', 'b20a05cdd6e9', '6b718c90bbd0'),
        'bare/image/torn/nvram': ('b4dd13aa327c', '8372d5aa2bfd', '24253b2f7463'),
        'bare/image/torn/disk': ('b4dd13aa327c', '8372d5aa2bfd', '24253b2f7463'),
        'bare/image/plain/nvram': ('b4dd13aa327c', '10cde806b7f9', 'eeaa188767ab'),
        'bare/image/plain/disk': ('b4dd13aa327c', '10cde806b7f9', 'eeaa188767ab'),
        'stripe/delta/torn/nvram': ('339205696eed', '96e6606aeeef', '18ec38558eb7'),
        'stripe/delta/torn/disk': ('339205696eed', '96e6606aeeef', '18ec38558eb7'),
        'stripe/delta/plain/nvram': ('339205696eed', '55662acdae71', '577dd72ee08c'),
        'stripe/delta/plain/disk': ('339205696eed', '55662acdae71', '577dd72ee08c'),
        'stripe/image/torn/nvram': ('339205696eed', 'a398381dd1fa', 'b9c41d40e2fb'),
        'stripe/image/torn/disk': ('339205696eed', 'a398381dd1fa', 'b9c41d40e2fb'),
        'stripe/image/plain/nvram': ('339205696eed', '5b0126ed4521', '5fce1e8ea22c'),
        'stripe/image/plain/disk': ('339205696eed', '5b0126ed4521', '5fce1e8ea22c'),
        'raid5/delta/torn/nvram': ('6626f66f37f6', 'ae257f7b9814', '18ca1992af63'),
        'raid5/delta/torn/disk': ('6626f66f37f6', 'ae257f7b9814', '18ca1992af63'),
        'raid5/delta/plain/nvram': ('6626f66f37f6', 'a9b6c2b5b348', 'f4b1490c99f4'),
        'raid5/delta/plain/disk': ('6626f66f37f6', 'a9b6c2b5b348', 'f4b1490c99f4'),
        'raid5/image/torn/nvram': ('6626f66f37f6', 'a6f580190068', '3a38b735b760'),
        'raid5/image/torn/disk': ('6626f66f37f6', 'a6f580190068', '3a38b735b760'),
        'raid5/image/plain/nvram': ('6626f66f37f6', 'f8a1b8780be5', '75dc4f1610b3'),
        'raid5/image/plain/disk': ('6626f66f37f6', 'f8a1b8780be5', '75dc4f1610b3'),
    },
    'reorganize': {
        'bare/delta/torn/nvram': ('5add7b7f16a3', '6ac7de00970d', '13aa23ab75e0'),
        'bare/delta/torn/disk': ('5add7b7f16a3', '6ac7de00970d', '13aa23ab75e0'),
        'bare/delta/plain/nvram': ('5add7b7f16a3', '0054364cdf8b', 'b4f8ea06a1e9'),
        'bare/delta/plain/disk': ('5add7b7f16a3', '0054364cdf8b', 'b4f8ea06a1e9'),
        'bare/image/torn/nvram': ('5add7b7f16a3', '7960444cbc4f', 'e3463ea966de'),
        'bare/image/torn/disk': ('5add7b7f16a3', '7960444cbc4f', 'e3463ea966de'),
        'bare/image/plain/nvram': ('5add7b7f16a3', '8d11b38951c4', '0c3cce3f849d'),
        'bare/image/plain/disk': ('5add7b7f16a3', '8d11b38951c4', '0c3cce3f849d'),
        'stripe/delta/torn/nvram': ('78af65416f26', 'c1fda24c403d', '6dce029ae019'),
        'stripe/delta/torn/disk': ('78af65416f26', 'c1fda24c403d', '6dce029ae019'),
        'stripe/delta/plain/nvram': ('78af65416f26', '8c87960b764f', '1a3a05da1585'),
        'stripe/delta/plain/disk': ('78af65416f26', '8c87960b764f', '1a3a05da1585'),
        'stripe/image/torn/nvram': ('78af65416f26', '10ae84198e1e', '97790f4b4458'),
        'stripe/image/torn/disk': ('78af65416f26', '10ae84198e1e', '97790f4b4458'),
        'stripe/image/plain/nvram': ('78af65416f26', '37236695f326', 'c7690610ee9a'),
        'stripe/image/plain/disk': ('78af65416f26', '37236695f326', 'c7690610ee9a'),
        'raid5/delta/torn/nvram': ('f98070b506d2', 'ddd176e38c43', '13f4905dbe8e'),
        'raid5/delta/torn/disk': ('f98070b506d2', 'ddd176e38c43', '13f4905dbe8e'),
        'raid5/delta/plain/nvram': ('f98070b506d2', '645566094e39', '0229393cfec2'),
        'raid5/delta/plain/disk': ('f98070b506d2', '645566094e39', '0229393cfec2'),
        'raid5/image/torn/nvram': ('f98070b506d2', '6880f7c1de7e', 'eb2b46772e6c'),
        'raid5/image/torn/disk': ('f98070b506d2', '6880f7c1de7e', 'eb2b46772e6c'),
        'raid5/image/plain/nvram': ('f98070b506d2', '7ee473a652f1', 'e4ab1e82362d'),
        'raid5/image/plain/disk': ('f98070b506d2', '7ee473a652f1', 'e4ab1e82362d'),
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


COMPONENTS = ("outcome", "requests", "clocks")


def _hash(part: dict) -> str:
    blob = json.dumps(part, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def digests(state: dict, funneled_now: int = 0) -> tuple[str, str, str]:
    """``COMPONENTS`` hashes of ``state`` (see the module docstring), with
    ``physical`` put back to the parent's figure.

    ``funneled_now`` is what ``data_bytes_physical`` is expected to have
    gained since the parent (0 when capturing there).
    """
    recovered = dict(state["recovered"])
    report = dict(recovered["report"])
    recovery_seconds = report.pop("simulated_seconds")
    recovered["report"] = report
    return (
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
