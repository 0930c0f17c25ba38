"""Multi-disk volumes behind the single-disk request surface.

See :mod:`repro.volume.volume` for the overlap model,
:mod:`repro.volume.mapping` for the RAID-0/1/5 address maps and
:mod:`repro.volume.stripe_cache` for what a parity volume remembers of
its own writes.
"""

from repro.volume.mapping import ParityStripeMap, RowFragment, StripeMap, SubRequest
from repro.volume.stripe_cache import StripeCache
from repro.volume.volume import (
    DEFAULT_CHUNK_SECTORS,
    LAYOUTS,
    Volume,
    VolumeDegradedError,
    VolumeError,
    VolumeGeometry,
    VolumeStats,
)

__all__ = [
    "DEFAULT_CHUNK_SECTORS",
    "LAYOUTS",
    "ParityStripeMap",
    "RowFragment",
    "StripeCache",
    "StripeMap",
    "SubRequest",
    "Volume",
    "VolumeDegradedError",
    "VolumeError",
    "VolumeGeometry",
    "VolumeStats",
]
