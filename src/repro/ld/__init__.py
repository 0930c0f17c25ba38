"""The Logical Disk interface (paper section 2).

LD separates *file management* from *disk management*: file systems address
blocks by stable logical block numbers and express relationships between
blocks with ordered lists; the LD implementation owns physical placement,
clustering, atomic recovery units, and recovery.

This package defines the interface (:class:`LogicalDisk`, mirroring the
paper's Table 1 plus the auxiliary primitives of section 2.2), the hint
types, sentinels, and the error hierarchy. Implementations live in
:mod:`repro.lld` (log-structured), :mod:`repro.uld` (update-in-place), and
:mod:`repro.loge` (Loge-style controller).
"""

from repro.ld.errors import (
    LDError,
    NoSuchBlockError,
    NoSuchListError,
    OutOfSpaceError,
    ARUError,
    ReservationError,
)
from repro.ld.hints import ListHints, LIST_HEAD
from repro.ld.interface import Arrived, ArrivedBlocks, LogicalDisk

__all__ = [
    "LogicalDisk",
    "Arrived",
    "ArrivedBlocks",
    "ListHints",
    "LIST_HEAD",
    "LDError",
    "NoSuchBlockError",
    "NoSuchListError",
    "OutOfSpaceError",
    "ARUError",
    "ReservationError",
]
