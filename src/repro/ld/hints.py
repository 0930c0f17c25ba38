"""Hint types and sentinels for the LD interface.

``LIST_HEAD`` is the paper's "special value to specify insertion at the
beginning of the list and list of lists, respectively" (Table 1 caption).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ld.errors import NoSuchListError

#: Pass as ``pred_bid`` / ``pred_lid`` to insert at the front of a list
#: (or of the list of lists).
LIST_HEAD = -1


def place_list(order: list[int], lid: int, pred_lid: int) -> None:
    """Put list ``lid`` into a list of lists kept as a Python list, right
    after ``pred_lid`` or first for :data:`LIST_HEAD` (``NewList`` and
    ``MoveList`` of an LD that keeps its order in memory)."""
    if pred_lid == LIST_HEAD:
        order.insert(0, lid)
    elif pred_lid in order:
        order.insert(order.index(pred_lid) + 1, lid)
    else:
        raise NoSuchListError(pred_lid)


@dataclass(frozen=True)
class ListHints:
    """Placement hints attached to a list at creation (``NewList``).

    Attributes:
        cluster: physically cluster the blocks of this list in list order.
        compress: transparently compress blocks written to this list.
        interlist_cluster: place this list near its predecessor in the
            list of lists.
    """

    cluster: bool = True
    compress: bool = False
    interlist_cluster: bool = True

    def pack(self) -> int:
        """Encode to one byte for segment-summary logging."""
        return (
            (1 if self.cluster else 0)
            | (2 if self.compress else 0)
            | (4 if self.interlist_cluster else 0)
        )

    @classmethod
    def unpack(cls, value: int) -> "ListHints":
        """Decode from the byte produced by :meth:`pack`."""
        return cls(
            cluster=bool(value & 1),
            compress=bool(value & 2),
            interlist_cluster=bool(value & 4),
        )
