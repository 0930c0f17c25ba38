"""NVRAM absorption of partial-segment writes (paper section 5.3).

Baker et al. (ASPLOS 1992) showed that ~0.5 MB of non-volatile RAM
absorbs most partially-written segments: the paper expects "similar
results can be obtained for LLD". With an :class:`NVRAM` attached, a
below-threshold ``Flush`` stores the partial segment image in NVRAM
instead of writing it to disk; the image survives a crash (the caller
keeps the NVRAM object across the simulated power failure, as the
hardware would) and recovery replays it back onto the disk.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import Counters


@dataclass(slots=True)
class NVRAM(Counters):
    """A small battery-backed buffer holding one partial segment image.

    The held image is state, not a counter: ``as_dict()`` leaves it out
    and reports ``holds_data`` instead.
    """

    HIDDEN = ("slot", "image")
    DERIVED = ("holds_data",)

    capacity_bytes: int = 512 * 1024
    slot: int | None = None
    image: bytes | None = None
    stores: int = 0
    overflows: int = 0
    #: Cumulative image bytes absorbed — disk write traffic the NVRAM
    #: avoided, the counterpart of ``LLDStats.data_bytes_physical``.
    bytes_stored: int = 0

    def store(self, slot: int, image: bytes) -> bool:
        """Hold the partial image of ``slot``; False if it does not fit."""
        if len(image) > self.capacity_bytes:
            self.overflows += 1
            return False
        self.slot = slot
        self.image = bytes(image)
        self.stores += 1
        self.bytes_stored += len(image)
        return True

    def clear(self) -> None:
        """Discard the held image (its slot was written to disk)."""
        self.slot = None
        self.image = None

    @property
    def holds_data(self) -> bool:
        return self.image is not None
