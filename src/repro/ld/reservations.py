"""Space reservations (paper section 2.2), shared by every LD implementation.

The book counts promised blocks; each implementation says how many it can
still promise (``free_blocks``) from whatever it accounts space in — bytes
of log for LLD, physical slots for ULD and Loge — and subtracts
:attr:`ReservationBook.blocks` from its own free-space figure.
"""

from __future__ import annotations

from repro.ld.errors import OutOfSpaceError, ReservationError
from repro.ld.interface import Reservation


class ReservationBook:
    """Outstanding reservations of one logical disk."""

    def __init__(self, block_size: int) -> None:
        self.block_size = block_size
        #: Blocks promised and not yet consumed or cancelled.
        self.blocks = 0
        self._open: dict[int, Reservation] = {}
        self._next_token = 1

    def reserve(self, count: int, free_blocks: int) -> Reservation:
        """Promise ``count`` blocks out of ``free_blocks`` unpromised ones."""
        if count <= 0:
            raise ReservationError(f"reservation count must be positive: {count}")
        if count > free_blocks:
            raise OutOfSpaceError(
                f"cannot reserve {count} blocks; only {free_blocks} free"
            )
        reservation = Reservation(
            token=self._next_token,
            blocks=count,
            bytes_reserved=count * self.block_size,
        )
        self._next_token += 1
        self._open[reservation.token] = reservation
        self.blocks += count
        return reservation

    def cancel(self, reservation: Reservation) -> None:
        """Give back whatever ``reservation`` has not consumed."""
        stored = self._open.pop(reservation.token, None)
        if stored is None:
            raise ReservationError(f"unknown or spent reservation {reservation.token}")
        self.blocks -= stored.blocks

    def consume(self, reservation: Reservation) -> None:
        """Spend one block of ``reservation`` (a ``new_block`` against it)."""
        stored = self._open.get(reservation.token)
        if stored is None:
            raise ReservationError(
                f"reservation {reservation.token} is unknown or exhausted"
            )
        stored.blocks -= 1
        stored.bytes_reserved -= self.block_size
        self.blocks -= 1
        reservation.blocks = stored.blocks
        reservation.bytes_reserved = stored.bytes_reserved
        if stored.blocks == 0:
            del self._open[stored.token]
