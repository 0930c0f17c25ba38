"""ULD: an update-in-place implementation of the Logical Disk.

The paper (sections 1 and 5.4) stresses that LD "allows for substantially
different implementations of its interface" — including "an update-in-place
strategy". ULD is that alternative: every logical block has a home slot and
writes overwrite it in place; the block-number map, list table, and
allocation bitmap are persisted by shadow-paging two alternating metadata
regions on ``Flush``.

Guarantees are deliberately weaker than LLD's, mirroring the trade-off the
paper discusses: metadata recovers atomically to the last flush, but data
blocks are updated in place, so an ARU is atomic for *metadata* only (data
written inside an ARU is buffered in memory until commit, but a crash
between commit and flush can expose new data under old metadata — the class
of inconsistency that makes update-in-place file systems need fsck).
"""

from repro.uld.uld import ULD

__all__ = ["ULD"]
