"""Multi-disk volumes behind the single-disk request surface.

See :mod:`repro.volume.volume` for the overlap model and
:mod:`repro.volume.mapping` for the RAID-0/1/4/5 address maps.
"""

from repro.volume.mapping import ParityStripeMap, RowFragment, StripeMap, SubRequest
from repro.volume.volume import (
    DEFAULT_CHUNK_SECTORS,
    LAYOUTS,
    PARITY_LAYOUTS,
    Volume,
    VolumeDegradedError,
    VolumeError,
    VolumeGeometry,
    VolumeStats,
)

__all__ = [
    "DEFAULT_CHUNK_SECTORS",
    "LAYOUTS",
    "PARITY_LAYOUTS",
    "ParityStripeMap",
    "RowFragment",
    "StripeMap",
    "SubRequest",
    "Volume",
    "VolumeDegradedError",
    "VolumeError",
    "VolumeGeometry",
    "VolumeStats",
]
