"""LLD's main-memory data structures and the single record-application path.

The block-number map, list table, and segment usage table of paper Figure 2
live here. Both normal operation and crash recovery mutate state exclusively
through :meth:`LLDState.apply`, so the state reached by replaying the
summaries is the state normal operation maintained — recovery correctness by
construction.

What a record *kind* does to that state is declared once, in
:data:`RECORD_KINDS` (DESIGN.md §6). ``apply``, the ARU pin set
(:meth:`LLDState.superseded_segments`), the log writer's re-logging, the
read-cache invalidation and the death-timestamp default all read that one
table, so they cannot disagree about what a kind supersedes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, NamedTuple

from repro.ld.errors import NoSuchBlockError, NoSuchListError
from repro.ld.hints import ListHints
from repro.lld.records import (
    FLAG_COMPRESSED,
    BlockDeadRecord,
    BlockRecord,
    CommitRecord,
    LinkRecord,
    ListDeadRecord,
    ListFirstRecord,
    ListMetaRecord,
    Record,
)

#: Sentinel for "block has no physical location yet".
NO_SEGMENT = -1

# Key kinds for metadata "homes" (which segment summary holds the latest
# tuple for this piece of metadata). The cleaner re-logs these.
KIND_LINK = "link"
KIND_FIRST = "first"
KIND_META = "meta"
#: A unit's COMMIT, homed only while some other summary holds its records.
KIND_COMMIT = "commit"
#: A block's stored bytes: homed by no summary (a BLOCK record lives where
#: its data lives), but a value an aborted unit puts back like the others.
KIND_DATA = "data"

#: The value of a key that has no table row.
ABSENT = object()


@dataclass
class BlockEntry:
    """One row of the block-number map (paper Figure 2).

    ``segment``/``offset`` locate the stored bytes; ``stored_length`` is the
    on-disk size (after compression), ``length`` the logical size;
    ``successor`` is the next block on the block's list. ``compress_writes``
    is the in-memory flag derived from the owning list's hints.
    """

    segment: int = NO_SEGMENT
    offset: int = 0
    stored_length: int = 0
    length: int = 0
    compressed: bool = False
    successor: int | None = None
    compress_writes: bool = False


@dataclass
class ListEntry:
    """One row of the list table: head pointer plus creation hints."""

    first: int | None = None
    hints: ListHints = field(default_factory=ListHints)


@dataclass
class Tombstone:
    """Remembers a deletion until no stale records can survive anywhere."""

    kind: str  # "block" or "list"
    ident: int
    death_timestamp: int
    home_segment: int

    def settled(self, min_ts: int | None) -> bool:
        """The tombstone-drop rule: with ``min_ts`` the oldest record
        timestamp across the valid on-disk summaries (None = none), no
        stale record for the dead key can exist anywhere."""
        return min_ts is None or min_ts >= self.death_timestamp


class LLDState:
    """Block-number map + list table + usage table + log bookkeeping."""

    def __init__(self) -> None:
        self.blocks: dict[int, BlockEntry] = {}
        self.lists: dict[int, ListEntry] = {}
        # The list of lists is memory-only (as in the paper's prototype);
        # it orders lists for inter-list clustering.
        self.list_order: list[int] = []

        self.usage: dict[int, int] = {}  # segment -> live data bytes
        # Running total of live bytes (clamped per segment), maintained by
        # _adjust_usage so the write path's free-space check is O(1)
        # instead of a sum over every segment.
        self._live_bytes = 0
        self.segment_blocks: dict[int, set[int]] = {}  # segment -> live bids
        # The log's SlotTable, told as a segment's usage crosses zero.
        self.slots = None

        # Metadata homes: (kind, id) -> segment whose summary holds the
        # latest tuple; reverse index segment -> keys.
        self.homes: dict[tuple[str, int], int] = {}
        self.segment_keys: dict[int, set[tuple[str, int]]] = {}

        self.tombstones: dict[tuple[str, int], Tombstone] = {}
        # Reverse index: segment -> tombstone keys homed in its summary.
        self.tombstone_homes: dict[int, set[tuple[str, int]]] = {}
        # Minimum record timestamp of each valid on-disk summary.
        self.summary_min_ts: dict[int, int] = {}
        # Latest write timestamp per segment (cost-benefit cleaning "age").
        self.segment_mod_ts: dict[int, int] = {}
        # Atomic recovery units: unit -> slots whose summaries hold records
        # tagged with it (COMMITs aside), and the reverse index. A record of
        # a unit is applied at recovery only next to the unit's COMMIT.
        self.units: dict[int, set[int]] = {}
        self.slot_units: dict[int, set[int]] = {}
        # The keys changed since the last checkpoint image, per table:
        # what the next one re-packs (``CheckpointRegion``). Blocks and
        # lists by id ("unit" collects COMMITs' ids, which no table keys),
        # homes and tombstones by key.
        self.changed: dict[str, set] = {
            "block": set(), "list": set(), "unit": set(), "home": set(), "tombstone": set(),
        }

        self.next_bid = 1
        self.next_lid = 1
        self.next_ts = 1

    # ------------------------------------------------------------------
    # Record application (the only mutation path)
    # ------------------------------------------------------------------

    def apply(self, record: Record, home_segment: int) -> None:
        """Apply one log record; ``home_segment`` is the summary it lives in.
        Only the value update (``kind.update``) is per-kind code."""
        if record.timestamp >= self.next_ts:
            self.next_ts = record.timestamp + 1
        subject, ident_of, update, sets, retires, data, _ = RECORD_KINDS[type(record)]
        ident = ident_of(record)
        self.changed[subject].add(ident)
        if data:
            entry = self.blocks.get(ident)
            if entry is not None and entry.segment != NO_SEGMENT:
                # The old stored bytes die, moved or killed.
                self._adjust_usage(entry.segment, -entry.stored_length)
                bids = self.segment_blocks.get(entry.segment)
                if bids is not None:
                    bids.discard(ident)
        update(self, ident, record)
        if sets is not None:
            self._set_home((sets, ident), home_segment)
        if retires:
            for retired in retires:
                self._drop_home((retired, ident))
            self.put_tombstone(
                Tombstone(subject, ident, record.death_timestamp, home_segment)
            )
        if record.aru:
            if sets == KIND_COMMIT:
                self._settle_unit(ident)
            else:
                self.units.setdefault(record.aru, set()).add(home_segment)
                self.slot_units.setdefault(home_segment, set()).add(record.aru)

    def value(self, key: str, ident: int):
        """The current value of ``key`` (a :data:`VALUE_KEYS` name) for
        ``ident``; :data:`ABSENT` when there is no row."""
        row = (self.blocks if key in _BLOCK_VALUES else self.lists).get(ident)
        return ABSENT if row is None else _VALUES[key](row)

    def restoring(self, subject: str, ident: int, values: dict[str, object]) -> list[Record]:
        """The records that put ``values`` (key -> value, from
        :meth:`value`) back for ``ident``; the keys not named keep theirs.
        A row whose keys are all absent is buried; bytes a block did not
        have are taken away by burying it first."""
        if subject == "block":
            row = self.blocks.get(ident)
            current = {key: self.value(key, ident) for key in _BLOCK_VALUES}
            link, data = ({**current, **values}[key] for key in _BLOCK_VALUES)
            written = data is not ABSENT and data[0] != NO_SEGMENT
            if link is ABSENT and not written:
                return [] if row is None else [BlockDeadRecord(bid=ident)]
            records: list[Record] = []
            if row is not None and not written and row.segment != NO_SEGMENT:
                records.append(BlockDeadRecord(bid=ident))
                current = dict.fromkeys(current, ABSENT)
            if written and data != current[KIND_DATA]:
                segment, offset, stored_length, length, compressed = data
                records.append(BlockRecord(
                    flags=FLAG_COMPRESSED if compressed else 0, bid=ident,
                    segment=segment, offset=offset,
                    stored_length=stored_length, length=length,
                ))
            successor = None if link is ABSENT else link
            if successor != current[KIND_LINK]:
                records.append(LinkRecord(bid=ident, successor=successor))
            return records
        row = self.lists.get(ident)
        first = values.get(KIND_FIRST, self.value(KIND_FIRST, ident))
        meta = values.get(KIND_META, self.value(KIND_META, ident))
        if first is ABSENT and meta is ABSENT:
            return [] if row is None else [ListDeadRecord(lid=ident)]
        records = []
        hints = ListHints().pack() if meta is ABSENT else meta
        if row is None or row.hints.pack() != hints:
            records.append(ListMetaRecord(lid=ident, hints=hints))
        first = None if first is ABSENT else first
        if row is None or row.first != first:
            records.append(ListFirstRecord(lid=ident, first=first))
        return records

    def inherit_compression(self, bids, compress: bool) -> None:
        """Set the in-memory compression flag of ``bids`` (from the hints
        of the list they now belong to)."""
        for bid in bids:
            self.blocks[bid].compress_writes = compress
            self.changed["block"].add(bid)

    def forget_units(self, slot: int) -> None:
        """``slot``'s summary is being replaced, its live contents re-stated
        at the log head: the unit records in it need no COMMIT any more."""
        for aru in self.slot_units.pop(slot, ()):
            slots = self.units[aru]
            slots.discard(slot)
            if not slots:
                del self.units[aru]
            self._settle_unit(aru)

    def _settle_unit(self, aru: int) -> None:
        """Drop the home of ``aru``'s COMMIT once no summary but its own
        holds a record of the unit: nothing then needs it re-stated."""
        key = (KIND_COMMIT, aru)
        home = self.homes.get(key)
        if home is not None and not self.units.get(aru, set()) - {home}:
            self._drop_home(key)

    def superseded_segments(self, record: Record) -> list[int]:
        """Segments holding what applying ``record`` would supersede: the
        home of every key it sets or retires, and the stored bytes of a
        block it moves or kills. An open ARU pins them against cleaning."""
        kind = RECORD_KINDS[type(record)]
        ident = kind.ident(record)
        homes = self.homes
        segments = [homes[(key, ident)] for key in kind.keys if (key, ident) in homes]
        if kind.data:
            entry = self.blocks.get(ident)
            if entry is not None and entry.segment != NO_SEGMENT:
                segments.append(entry.segment)
        return segments

    # The per-kind value updates RECORD_KINDS names.

    def _update_link(self, bid: int, record: LinkRecord) -> None:
        self._ensure_block(bid).successor = record.successor

    def _update_block(self, bid: int, record: BlockRecord) -> None:
        entry = self._ensure_block(bid)
        entry.segment = record.segment
        entry.offset = record.offset
        entry.stored_length = record.stored_length
        entry.length = record.length
        entry.compressed = record.compressed
        self._adjust_usage(record.segment, record.stored_length)
        self.segment_blocks.setdefault(record.segment, set()).add(bid)
        self.segment_mod_ts[record.segment] = max(
            self.segment_mod_ts.get(record.segment, 0), record.timestamp
        )
        # The block's data record lives where its data lives, by
        # construction, so no separate home bookkeeping is needed.

    def _update_block_dead(self, bid: int, record: BlockDeadRecord) -> None:
        self.blocks.pop(bid, None)
        self.next_bid = max(self.next_bid, bid + 1)

    def _update_list_first(self, lid: int, record: ListFirstRecord) -> None:
        self._ensure_list(lid).first = record.first

    def _update_list_meta(self, lid: int, record: ListMetaRecord) -> None:
        self._ensure_list(lid).hints = ListHints.unpack(record.hints)

    def _update_list_dead(self, lid: int, record: ListDeadRecord) -> None:
        if self.lists.pop(lid, None) is not None:
            self.list_order.remove(lid)
        self.next_lid = max(self.next_lid, lid + 1)

    def _update_commit(self, aru: int, record: CommitRecord) -> None:
        """The recovery filter consumes a COMMIT; it changes no table."""

    def _adjust_usage(self, segment: int, delta: int) -> None:
        """Change a segment's live-byte count, maintaining the clamped
        live-byte total and telling the slot table when it crosses zero."""
        old = self.usage.get(segment, 0)
        new = old + delta
        self.usage[segment] = new
        self._live_bytes += (new if new > 0 else 0) - (old if old > 0 else 0)
        if (old > 0) != (new > 0) and self.slots is not None:
            self.slots.live(segment, new > 0)

    def _ensure_block(self, bid: int) -> BlockEntry:
        entry = self.blocks.get(bid)
        if entry is None:
            entry = BlockEntry()
            self.blocks[bid] = entry
            self.next_bid = max(self.next_bid, bid + 1)
            self.drop_tombstone(("block", bid))
        return entry

    def _ensure_list(self, lid: int) -> ListEntry:
        entry = self.lists.get(lid)
        if entry is None:
            entry = ListEntry()
            self.lists[lid] = entry
            self.list_order.append(lid)
            self.next_lid = max(self.next_lid, lid + 1)
            self.drop_tombstone(("list", lid))
        return entry

    # ------------------------------------------------------------------
    # Tombstone bookkeeping
    # ------------------------------------------------------------------

    def put_tombstone(self, tomb: Tombstone) -> None:
        """Insert or re-home a tombstone, keeping the reverse index."""
        key = (tomb.kind, tomb.ident)
        old = self.tombstones.get(key)
        if old is not None:
            homed = self.tombstone_homes.get(old.home_segment)
            if homed is not None:
                homed.discard(key)
        self.tombstones[key] = tomb
        self.tombstone_homes.setdefault(tomb.home_segment, set()).add(key)
        self.changed["tombstone"].add(key)

    def drop_tombstone(self, key: tuple[str, int]) -> Tombstone | None:
        """Forget a tombstone (retired, or its key came back to life)."""
        tomb = self.tombstones.pop(key, None)
        if tomb is not None:
            homed = self.tombstone_homes.get(tomb.home_segment)
            if homed is not None:
                homed.discard(key)
            self.changed["tombstone"].add(key)
        return tomb

    def tombstones_homed_in(self, segment: int) -> list[Tombstone]:
        """Tombstones whose latest on-disk record lives in ``segment``."""
        keys = self.tombstone_homes.get(segment, set())
        return [self.tombstones[key] for key in sorted(keys)]

    def slot_holds_metadata(self, segment: int) -> bool:
        """True if the slot's on-disk summary holds any *live* metadata:
        the log opens it only once the cleaner re-logged that."""
        if self.segment_keys.get(segment):
            return True
        return bool(self.tombstone_homes.get(segment))

    def _set_home(self, key: tuple[str, int], segment: int) -> None:
        old = self.homes.get(key)
        if old is not None and old != segment:
            keys = self.segment_keys.get(old)
            if keys is not None:
                keys.discard(key)
        self.homes[key] = segment
        self.segment_keys.setdefault(segment, set()).add(key)
        self.changed["home"].add(key)

    def _drop_home(self, key: tuple[str, int]) -> None:
        segment = self.homes.pop(key, None)
        if segment is not None:
            keys = self.segment_keys.get(segment)
            if keys is not None:
                keys.discard(key)
            self.changed["home"].add(key)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def block(self, bid: int) -> BlockEntry:
        """The map entry for ``bid`` or :class:`NoSuchBlockError`."""
        entry = self.blocks.get(bid)
        if entry is None:
            raise NoSuchBlockError(bid)
        return entry

    def list_entry(self, lid: int) -> ListEntry:
        """The list-table entry for ``lid`` or :class:`NoSuchListError`."""
        entry = self.lists.get(lid)
        if entry is None:
            raise NoSuchListError(lid)
        return entry

    def iter_list(self, lid: int):
        """Yield the block numbers of list ``lid`` in order."""
        entry = self.list_entry(lid)
        bid = entry.first
        seen = 0
        limit = len(self.blocks) + 1
        while bid is not None:
            yield bid
            block = self.blocks.get(bid)
            if block is None:
                raise NoSuchBlockError(bid)
            bid = block.successor
            seen += 1
            if seen > limit:  # pragma: no cover - corruption guard
                raise RuntimeError(f"cycle detected in list {lid}")

    def find_predecessor(self, lid: int, bid: int, hint: int | None = None) -> int | None:
        """Predecessor of ``bid`` on list ``lid`` (None if ``bid`` is first).

        ``hint`` is the paper's PredBidHint: when it names a block whose
        successor is ``bid``, the scan is skipped.
        """
        if hint is not None:
            hinted = self.blocks.get(hint)
            if hinted is not None and hinted.successor == bid:
                return hint
        entry = self.list_entry(lid)
        if entry.first == bid:
            return None
        prev = None
        for current in self.iter_list(lid):
            if current == bid:
                return prev
            prev = current
        raise NoSuchBlockError(bid)

    def live_bytes(self) -> int:
        """Total live block-data bytes across all segments (O(1))."""
        return self._live_bytes

    def min_summary_timestamp(self, exclude=()) -> int | None:
        """Oldest record timestamp across valid on-disk summaries but those
        of ``exclude`` (slots being cleaned or scrubbed). The tombstone-drop
        rule: a tombstone may be forgotten once this minimum is at or above
        its death timestamp (no stale record can still exist anywhere)."""
        summaries = self.summary_min_ts.items()
        return min((ts for seg, ts in summaries if seg not in exclude), default=None)


# ----------------------------------------------------------------------
# The per-kind declaration
# ----------------------------------------------------------------------

class RecordKind(NamedTuple):
    """What one record type does to the state — declared once.

    ``subject`` is the table the record's id indexes (``"block"`` /
    ``"list"``; ``"unit"`` for COMMIT, whose id is its ARU's) and
    ``ident`` reads that id off a record. ``sets`` names the metadata key
    whose home becomes the record's summary, ``retires`` the keys whose
    homes a death drops (non-empty exactly for the two tombstone kinds),
    ``data`` whether the block's stored bytes are superseded — moved by
    BLOCK, killed by BLOCK_DEAD. ``update(state, ident, record)`` writes the record's value
    into the tables; ``restate(ident, row)`` builds a fresh record carrying
    the current value of the key it sets (``row`` is the table entry) or
    of its tombstone (``row`` is the :class:`Tombstone`).
    """

    subject: str
    ident: Callable[[Record], int]
    update: Callable
    sets: str | None = None
    retires: tuple[str, ...] = ()
    data: bool = False
    restate: Callable | None = None

    @property
    def keys(self) -> tuple[str, ...]:
        """Every key whose current home the record supersedes."""
        return ((self.sets,) if self.sets else ()) + self.retires


_BLOCK = ("block", attrgetter("bid"))
_LIST = ("list", attrgetter("lid"))

#: The one table (printed in DESIGN.md §6): a new record type is a new row
#: here, and nothing else branches on the type.
RECORD_KINDS: dict[type[Record], RecordKind] = {
    LinkRecord: RecordKind(
        *_BLOCK, LLDState._update_link, sets=KIND_LINK,
        restate=lambda bid, entry: LinkRecord(bid=bid, successor=entry.successor),
    ),
    BlockRecord: RecordKind(*_BLOCK, LLDState._update_block, data=True),
    BlockDeadRecord: RecordKind(
        *_BLOCK, LLDState._update_block_dead, retires=(KIND_LINK,), data=True,
        restate=lambda bid, tomb: BlockDeadRecord(
            bid=bid, death_timestamp=tomb.death_timestamp
        ),
    ),
    ListFirstRecord: RecordKind(
        *_LIST, LLDState._update_list_first, sets=KIND_FIRST,
        restate=lambda lid, entry: ListFirstRecord(lid=lid, first=entry.first),
    ),
    ListMetaRecord: RecordKind(
        *_LIST, LLDState._update_list_meta, sets=KIND_META,
        restate=lambda lid, entry: ListMetaRecord(lid=lid, hints=entry.hints.pack()),
    ),
    ListDeadRecord: RecordKind(
        *_LIST, LLDState._update_list_dead, retires=(KIND_FIRST, KIND_META),
        restate=lambda lid, tomb: ListDeadRecord(
            lid=lid, death_timestamp=tomb.death_timestamp
        ),
    ),
    CommitRecord: RecordKind(
        "unit", attrgetter("aru"), LLDState._update_commit, sets=KIND_COMMIT,
        restate=lambda aru, _slots: CommitRecord(aru=aru),
    ),
}

#: The kind that (re-)homes each metadata key, and the kind that buries
#: each subject — what re-logging a key or a tombstone re-states.
KEY_KINDS = {kind.sets: kind for kind in RECORD_KINDS.values() if kind.sets}
DEATH_KINDS = {kind.subject: kind for kind in RECORD_KINDS.values() if kind.retires}

#: Each key's value, read off its table row: what an aborted unit puts
#: back (:meth:`LLDState.restoring`).
_VALUES: dict[str, Callable] = {
    KIND_LINK: attrgetter("successor"),
    KIND_DATA: attrgetter("segment", "offset", "stored_length", "length", "compressed"),
    KIND_FIRST: attrgetter("first"),
    KIND_META: lambda entry: entry.hints.pack(),
}
_BLOCK_VALUES = (KIND_LINK, KIND_DATA)

#: The values each record type sets — the keys it supersedes, COMMITs'
#: aside, and a block's data: what an open unit's record is undone by.
VALUE_KEYS: dict[type[Record], tuple[str, ...]] = {
    record_type: tuple(key for key in kind.keys if key in _VALUES)
    + ((KIND_DATA,) if kind.data else ())
    for record_type, kind in RECORD_KINDS.items()
}
