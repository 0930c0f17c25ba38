"""LLD: the log-structured implementation of the Logical Disk (paper §3).

LLD divides the disk into fixed-size segments, each with a *segment summary*
that serves as a log of LD metadata: for every physical block the summary
records its logical number, timestamp, length and compression flag, and list
modifications are logged as *link tuples* (timestamp, block number, new
successor value). The block-number map, list table, and segment usage table
live in main memory; the paper's recovery rebuilds them in a single sweep
over the segment summaries, taking no checkpoint during normal operation.
With two checkpoint slots LLD also checkpoints them as it runs, and a crash
replays only the summaries of the slots opened since
(:mod:`~repro.lld.checkpoint`, :mod:`~repro.lld.recovery`).

The package follows the paper's Figure 2: :mod:`~repro.lld.state` holds the
three tables and declares once what each record kind does to them;
:mod:`~repro.lld.log` is the segment writer — the open segment, the one
append path and the only disk writes outside the checkpoint region;
:mod:`~repro.lld.cleaner`, the reorganizers and NVRAM are its clients;
:class:`LLD` is the LD surface, the read path, space accounting and stats.

Implementation notes relative to the paper:

* Atomic recovery units are identified by an ARU id and committed with an
  explicit COMMIT record rather than the paper's per-record "ends ARU" bit.
  This is semantically equivalent for the paper's serial ARUs and also
  supports the concurrent-ARU extension listed in paper §5.4.
* The list of lists is kept in main memory only, as in the paper's own
  prototype ("our current implementation ... does not keep the list of
  lists", §3.4).
* Tombstone records (``BLOCK_DEAD``/``LIST_DEAD``) make deletions crash-safe
  under last-writer-wins replay; the cleaner re-logs live metadata whose
  latest tuple lives in the segment being cleaned, which is the mechanism
  behind the paper's "LLD also removes old logging information ... during
  cleaning" (§3.5).
"""

from repro.lld.config import LLDConfig
from repro.lld.lld import LLD, LLDStats
from repro.lld.nvram import NVRAM
from repro.lld.readcache import ReadCache
from repro.lld.recovery import RecoveryReport

__all__ = ["LLD", "LLDConfig", "LLDStats", "NVRAM", "ReadCache", "RecoveryReport"]
