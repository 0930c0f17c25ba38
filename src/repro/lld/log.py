"""The LLD log writer (paper §3.2, the segment writer of Figure 2).

:class:`LogWriter` owns the open segment and is the only code in this
package, outside the checkpoint region, that writes to the disk: every
byte goes through ``_disk_write`` (the write-amplification funnel) and
every ordering point through ``barrier``. Which slot it may open, hold,
clean or scrub is its :class:`~repro.lld.slots.SlotTable`'s to decide
(``slots``; the lifecycle is drawn there). On a device with stripe rows
sealed segments leave a row at a time (:meth:`LogWriter.write_held`), and
a retired slot's scrub waits for its row (:meth:`LogWriter._ripe`); with
two checkpoint copies every summary names the slot opened after it
(DESIGN.md §17). The cleaner, the reorganizers, NVRAM and the LD surface
are its clients.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.ld.errors import ARUError, OutOfSpaceError
from repro.lld.checkpoint import CheckpointRegion, CheckpointTooLargeError
from repro.lld.config import CHECKPOINT_RESERVE, PARTIAL_THRESHOLD, LLDConfig
from repro.lld.records import FLAG_CLEANER, FLAG_COMPRESSED, BlockRecord, CommitRecord, Record
from repro.lld.segment import (
    DiskLayout,
    OpenSegment,
    empty_summary,
    pick_slot,
    serialize_summary,
)
from repro.lld.slots import SlotTable
from repro.lld.state import (
    DEATH_KINDS,
    KEY_KINDS,
    KIND_DATA,
    KIND_LINK,
    NO_SEGMENT,
    RECORD_KINDS,
    VALUE_KEYS,
    BlockEntry,
    LLDState,
)
from repro.obs import stack
from repro.obs.trace import NULL_SPAN


_NOTHING = object()


class ARUTable:
    """Open (uncommitted) atomic recovery units.

    ``pins`` maps each open unit (several: the paper's §5.4 extension)
    to the slots holding what it superseded; ``current`` is the unit new
    client records join (0 = none). ``undo`` is what an abort puts back:
    for every key an open unit has set (a
    :data:`~repro.lld.state.VALUE_KEYS` name and an id), each value set
    since, in log order, as ``[unit, value before]`` (unit 0: outside any
    unit), kept while an open unit's entry comes before; ``touched`` names
    each open unit's keys. ``kept``: the pins of units aborted with no
    room to log their rollback, held until restart. ``aborting``: while
    an abort logs its rollback, the keys still holding its values.
    """

    def __init__(self) -> None:
        self.pins: dict[int, set[int]] = {}
        self.current = 0
        self.undo: dict[tuple[str, int], list[list]] = {}
        self.touched: dict[int, set[tuple[str, int]]] = {}
        self.kept: set[int] = set()
        self.aborting: dict[tuple[str, int], int] = {}

    def attach(self, aru: int) -> None:
        """Make open unit ``aru`` (or none: 0) the current one."""
        if aru and aru not in self.pins:
            raise ARUError(f"ARU {aru} is not open")
        self.current = aru

    def pinned_segments(self) -> set[int]:
        """Segments the cleaner must not evacuate while units are open."""
        return self.kept.union(*self.pins.values())

    def note(self, state: LLDState, record: Record, aru: int) -> None:
        """A client's ``record``, about to be applied inside unit ``aru``
        (0: none): remember the values it sets where ``aru`` is open or an
        open unit set them before."""
        ident = RECORD_KINDS[type(record)].ident(record)
        for name in VALUE_KEYS[type(record)]:
            key = (name, ident)
            chain = self.undo.get(key)
            if chain is None:
                if not aru:
                    continue
                chain = self.undo[key] = []
            chain.append([aru, state.value(name, ident)])
            if aru:
                self.touched[aru].add(key)

    def owner(self, record: Record, *, aborting: bool = True) -> int:
        """The open (or, with ``aborting``, aborting) unit whose value a
        re-statement of ``record``'s keys (a relocation, a re-logged key)
        carries: it must vanish with the unit, and commit with it. 0: none."""
        ident = RECORD_KINDS[type(record)].ident(record)
        for name in VALUE_KEYS[type(record)]:
            if aborting and (name, ident) in self.aborting:
                return self.aborting[(name, ident)]
            chain = self.undo.get((name, ident))
            if chain and chain[-1][0] in self.pins:
                return chain[-1][0]
        return 0

    def settle(self, aru: int) -> None:
        """Committed (no longer in ``pins``): ``aru``'s values stay."""
        for key in self.touched.pop(aru, ()):
            self._prune(key)

    def withdraw(self, aru: int) -> dict[tuple[str, int], object]:
        """Aborted: take ``aru``'s entries out. Returns, for each key whose
        latest value was the unit's, the value that goes back — what was
        there before the unit's last run of writes to it; an entry after
        a run inherits its value before."""
        back = {}
        for key in self.touched.pop(aru, ()):
            kept: list[list] = []
            carried = _NOTHING
            for unit, before in self.undo[key]:
                if unit == aru:
                    carried = before if carried is _NOTHING else carried
                    continue
                if carried is not _NOTHING:
                    before, carried = carried, _NOTHING
                kept.append([unit, before])
            self.undo[key] = kept
            if carried is not _NOTHING:
                back[key] = carried
            self._prune(key)
        return back

    def _prune(self, key: tuple[str, int]) -> None:
        """Drop what no abort can reach: the entries before a key's first
        open unit's (and the key, when there is none)."""
        chain = self.undo[key]
        for start, (unit, _before) in enumerate(chain):
            if unit in self.pins:
                del chain[:start]
                return
        del self.undo[key]


class LogWriter:
    """The open segment, the append path and the slot-write funnel."""

    def __init__(
        self,
        disk,
        config: LLDConfig,
        layout: DiskLayout,
        state: LLDState,
        stats,
        compression,
        checkpoint: CheckpointRegion,
        *,
        nvram=None,
        read_cache=None,
    ) -> None:
        self.disk = disk
        self.config = config
        self.layout = layout
        self.state = state
        self.stats = stats
        #: Drained before a sealed image is cut (pipelined compression).
        self.compression = compression
        #: Optional battery-backed buffer absorbing partial-segment flushes
        #: (paper §5.3); pass the same object to the post-crash instance.
        self.nvram = nvram
        self.read_cache = read_cache
        stack.inherit(self, disk)
        self.arus = ARUTable()
        #: Every slot's lifecycle state and facts.
        self.slots = SlotTable(layout.segment_count, state, self.arus, self._slot_moved)
        self.open: OpenSegment | None = None
        #: Sealed segments not written yet: consecutive slots of one stripe
        #: row, in log order. Always empty on a layout without rows.
        self.held: list[OpenSegment] = []
        #: Where the open and the held segments live, laid out as their row
        #: is on disk (one slot on a layout without rows): a row leaves as a
        #: zero-copy view of it, and it bounds what can be held.
        self._row = memoryview(bytearray(layout.row_width * config.segment_size))
        #: Its positions that have held a segment: handed out again they
        #: are zeroed first. (Fresh ones are zero, and stay untouched pages
        #: until something is appended — a recovery opens one and fills
        #: little.)
        self._used = [False] * layout.row_width
        #: What they are zeroed from: allocated once, because a fresh
        #: half-megabyte of zeros per seal is a hundred page faults.
        self._zeros = bytes(config.segment_size)
        #: Space policy run after every seal (``Cleaner.after_seal``).
        self.after_seal: Callable[[], None] = lambda: None
        #: Told by a seal, before it writes, the slot it opens next
        #: (``Cleaner.plan``): the next pass's victim read goes first.
        self.plan_clean: Callable[[int], None] = lambda opening: None
        #: The segments the cleaner will empty over a number of openings,
        #: best first (``Cleaner.victims``): a checkpoint lists them after
        #: the free slots.
        self.victims: Callable[[int], list[int]] = lambda openings: []
        self.checkpoint = checkpoint
        #: Openings between checkpoints, at least: whole stripe rows.
        width = layout.row_width
        self.reserve = -(-CHECKPOINT_RESERVE // width) * width

    # ------------------------------------------------------------------
    # Start-up and shutdown
    # ------------------------------------------------------------------

    def replay_nvram(self) -> None:
        """Put a partial segment held in NVRAM back on its slot, so the
        normal start-up paths (checkpoint or sweep) see it."""
        if self.nvram is not None and self.nvram.holds_data:
            self._disk_write(self.layout.slot_lba(self.nvram.slot), self.nvram.image)

    def _slot_moved(self, slot: int, old: str, new: str, cause: str) -> None:
        ev = self.events
        if ev:
            ev.emit(
                "lld.slot", severity="debug", t=self.disk.clock.now,
                slot=slot, old=old, new=new, cause=cause,
            )

    def open_next(self, slot: int | None = None) -> None:
        """free -> open: start a fresh in-memory segment over ``slot`` —
        the one the sealed segment's summary names (:meth:`_choose`) — or,
        at start-up, over the one :meth:`_restart_slot` picks. Takes a
        checkpoint first when one is due or the slot needs it
        (:meth:`_cover`)."""
        current = self.open.index if self.open is not None else -1
        ranks = self._ranks()
        if slot is None:
            slot = self._restart_slot(ranks)
        self._cover(slot, ranks, current)
        self.slots.chain(slot)
        rows = self.layout.slot_rows
        if self.held and (slot != current + 1 or rows[slot][0] != rows[current][0]):
            self.write_held()  # placement left the row, or skipped a slot of it
        self.slots.open(slot, ranks, settled=rows is not None and not self.held)
        size = self.config.segment_size
        position = rows[slot][1] if rows is not None else 0
        buffer = self._row[position * size : (position + 1) * size]
        if self._used[position]:
            buffer[:] = self._zeros
        self._used[position] = True
        self.open = OpenSegment(slot, self.config, buffer)
        # What the old summary says is superseded everywhere: the unit
        # records in it need no COMMIT any more.
        self.state.forget_units(slot)

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def _choose(self, ranks: dict[int, int], current: int) -> int:
        """Placement: ``pick_slot`` over ``SlotTable.placeable``."""
        ranks = self.slots.placeable(ranks)
        if not ranks:
            self.write_held()  # pick_slot will raise: leave nothing unwritten
        return pick_slot(ranks, self.layout, current)

    def _restart_slot(self, ranks: dict[int, int]) -> int:
        """The first opening after start-up: the slot the recovered chain's
        last summary names, where there is one — a second crash finds it
        the way the first found the chain — else :meth:`_choose`'s."""
        resume = self.slots.resume
        if resume in ranks and resume not in self.slots.since:
            return resume
        return self._choose(ranks, -1)

    def _cover(self, slot: int, ranks: dict[int, int], current: int) -> None:
        """Keep ``slot`` where a recovery finds it: take a checkpoint
        listing it first when it is not ``SlotTable.covered`` or one is
        due, unless deferred (``checkpoints_refused``); a slot not covered
        with no checkpoint possible retires the newest copy, and a crash
        then sweeps (the rules: DESIGN.md §17)."""
        slots = self.slots
        if slots.since is None:
            needed = False
            due = self.checkpoint.copies > 1 and self.open is not None
        else:
            named = slots.resume if self.open is None else self.open.next
            needed = not slots.covered(slot, named)
            due = needed or (
                self.open is not None  # past start-up
                and not slots.listed.intersection(ranks)
                and max(len(slots.since), len(ranks)) >= self.reserve
            )
        if not due:
            return
        rows = self.layout.slot_rows
        if not needed and self.held and current >= 0 and rows[slot][0] == rows[current][0]:
            return  # the held row first: a checkpoint would split it
        if self.checkpoint.copies > 1:
            if not (self.arus.pins or self.arus.kept) and self.save_checkpoint(
                self._listing(ranks, current, slot)
            ):
                return
            self.stats.checkpoints_refused += 1
        if needed:
            self.checkpoint.retire()
            self.barrier("checkpoint")
            slots.checkpoint(None)

    def _listing(
        self, ranks: dict[int, int], current: int, first: int | None = None
    ) -> list[int]:
        """The slots placement would open next — ``first`` first, when
        given — :attr:`reserve` of them and on to the end of the last one's
        stripe row; where fewer are openable, the cleaner's next victims."""
        rows = self.layout.slot_rows
        left = dict(ranks)
        plan: list[int] = []
        while left:
            if first is not None and not plan:
                slot = first
            else:
                slot = pick_slot(left, self.layout, current)
            if len(plan) >= self.reserve and (rows is None or rows[slot][0] != rows[current][0]):
                break
            plan.append(slot)
            left.pop(slot, None)
            current = slot
        if len(plan) < self.reserve:
            plan += self.victims(self.reserve)[: self.reserve - len(plan)]
        return plan

    def save_checkpoint(self, listed: list[int], *, shutdown: bool = False) -> bool:
        """Write the held row, then a checkpoint listing ``listed`` into the
        older copy, ordered after all it describes and before what comes
        next. False when the image does not fit (at ``shutdown``:
        :class:`~repro.lld.checkpoint.CheckpointTooLargeError`)."""
        self.write_held()
        self.barrier("pre-checkpoint")
        try:
            image = self.checkpoint.image(self.state, listed)
        except CheckpointTooLargeError:
            if shutdown:
                raise
            return False
        tr = self.tracer
        with (
            tr.span("lld.checkpoint_write", nbytes=len(image)) if tr else NULL_SPAN
        ):
            self.checkpoint.write(image)
            self.barrier("checkpoint", wait=shutdown)
        self.slots.checkpoint(listed)
        self.stats.checkpoints_written += 1
        self.stats.checkpoint_bytes += len(image)
        ev = self.events
        if ev:
            ev.emit(
                "lld.checkpoint_saved",
                t=self.disk.clock.now,
                sequence=self.checkpoint.sequence,
                nbytes=len(image),
                listed=len(listed),
                shutdown=shutdown,
            )
        return True

    def shutdown_checkpoint(self) -> None:
        """The last checkpoint, at a clean shutdown: listing what a running
        one would, or, with one copy (the paper's region), nothing."""
        current = self.open.index if self.open is not None else -1
        listed = self._listing(self._ranks(), current) if self.checkpoint.copies > 1 else []
        self.save_checkpoint(listed, shutdown=True)

    def resident(self, slot: int) -> OpenSegment | None:
        """The in-memory segment over ``slot`` — the open one or a held
        one — or None: where its blocks must be read from, the slot on
        disk being stale or blank."""
        seg = self.open
        if seg is not None and seg.index == slot:
            return seg
        for seg in self.held:
            if seg.index == slot:
                return seg
        return None

    def has_room(self, data_len: int, record_bytes: int) -> bool:
        """Room left in the open segment for that much data and records?"""
        return self.open is not None and self.open.fits(data_len, record_bytes)

    # ------------------------------------------------------------------
    # The append path
    # ------------------------------------------------------------------

    def append(self, record: Record) -> None:
        """Log a record of the LD's own (a relocation, a re-statement, a
        COMMIT). One that re-states a value an open unit set carries the
        unit's id: it vanishes with the unit, or commits with it."""
        arus = self.arus
        if (arus.undo or arus.aborting) and not record.aru:
            record.aru = arus.owner(record)
        self._append(record)

    def _append(self, record: Record, *, logged: bool = True) -> None:
        """Assign a timestamp, append to the open summary (unless not
        ``logged``), apply to state."""
        if logged and not self.open.fits(0, record.SIZE):
            self._make_room(0, record.SIZE)
        seg = self.open
        kind = RECORD_KINDS[type(record)]
        record.timestamp = self.state.next_ts
        if kind.retires and record.death_timestamp == 0:
            record.death_timestamp = record.timestamp
        if logged:
            seg.append_record(record)
        self.state.apply(record, seg.index)
        # Every contents or location change of a block passes through here
        # as a record that moves or kills its data (write, delete, swap,
        # cleaning, reorganization), so this one hook keeps the read cache
        # coherent.
        if kind.data and self.read_cache is not None:
            self.read_cache.invalidate(record.bid)

    def emit(self, record: Record) -> None:
        """Log a record on behalf of the client. Inside an ARU it carries
        the unit's id, the unit pins the slots holding what it supersedes
        (a recovery needs them if the unit never commits), and what it
        replaces goes on the undo chains, for an abort to put back."""
        arus = self.arus
        aru = arus.current
        if aru:
            record.aru = aru
            self.slots.pin(aru, self.state.superseded_segments(record))
        if aru or arus.undo:
            arus.note(self.state, record, aru)
        self._append(record)

    def _make_room(self, data_len: int, record_bytes: int) -> None:
        """Seal until the open segment fits the pending append. A seal
        opens an empty segment, which fits any one append; the space
        policy after it (cleaning, re-logging) may take that room, so
        re-check. A cleaning pass that fills an empty segment is the
        cleaner's to refuse (:meth:`Cleaner.ensure_free`): a full log ends
        there, not in a loop here."""
        while not self.open.fits(data_len, record_bytes):
            self.seal()

    def write_block(self, bid: int, stored, length: int, flags: int = 0) -> None:
        """Place a block's stored bytes at the log head; log its BLOCK record.

        A record flagged FLAG_CLEANER is the LD's own relocation traffic
        and never joins a client's ARU.
        """
        if not self.open.fits(len(stored), BlockRecord.SIZE):
            self._make_room(len(stored), BlockRecord.SIZE)
        seg = self.open
        record = BlockRecord(
            flags=flags,
            bid=bid,
            segment=seg.index,
            offset=seg.append_data(stored),
            stored_length=len(stored),
            length=length,
        )
        if flags & FLAG_CLEANER:
            self.append(record)
        else:
            self.emit(record)

    def relocate(
        self,
        bids: Iterable[int],
        fetch: Callable[[BlockEntry], bytes | None],
        limit: int | None = None,
    ) -> int:
        """Move live blocks to the log head; returns how many moved.

        ``bids`` is consumed lazily and every block looked up afresh: an
        append may seal, clean, and move what comes later. ``fetch(entry)``
        returns the stored bytes, or None to leave the block where it is.
        """
        blocks = self.state.blocks
        moved = 0
        for bid in bids:
            entry = blocks.get(bid)
            if entry is None or entry.segment == NO_SEGMENT:
                continue
            if limit is not None and moved >= limit:
                break
            stored = fetch(entry)
            if stored is not None:
                flags = FLAG_CLEANER | (FLAG_COMPRESSED if entry.compressed else 0)
                self.write_block(bid, stored, entry.length, flags)
                moved += 1
        return moved

    def relog_slot(self, slot: int) -> None:
        """Re-state at the log head everything ``slot``'s summary homes:
        live metadata keys (the paper's "removes old logging information
        ... during cleaning"), the COMMIT of a unit whose records other
        summaries still hold, and tombstones still needed."""
        state = self.state
        state.forget_units(slot)
        for key, ident in sorted(state.segment_keys.get(slot, ())):
            self.stats.records_relogged += 1
            kind = KEY_KINDS[key]
            entry = getattr(state, kind.subject + "s").get(ident)
            if entry is not None:
                self.append(kind.restate(ident, entry))
        homed = state.tombstones_homed_in(slot)
        if not homed:
            return
        min_ts = state.min_summary_timestamp(exclude=(slot,))
        for tomb in homed:
            if tomb.settled(min_ts):
                state.drop_tombstone((tomb.kind, tomb.ident))
                self.stats.tombstones_dropped += 1
                continue
            record = DEATH_KINDS[tomb.kind].restate(tomb.ident, tomb)
            record.flags |= FLAG_CLEANER
            self.append(record)
            self.stats.records_relogged += 1

    # ------------------------------------------------------------------
    # Atomic recovery units
    # ------------------------------------------------------------------

    def begin_aru(self) -> int:
        """Open a unit and make it the current one; returns its id."""
        aru = self.state.next_ts
        self.state.next_ts += 1
        self.arus.pins[aru] = set()
        self.arus.touched[aru] = set()
        self.arus.current = aru
        tr = self.tracer
        if tr:
            tr.instant("lld.aru_begin", aru=aru)
        return aru

    def end_aru(self, commit: bool, aru: int = 0) -> None:
        """Close unit ``aru`` (default: the current one): log its COMMIT,
        or abort it — its records vanish at the next recovery, and the
        values it set go back in the tables now (:meth:`_roll_back`)."""
        arus = self.arus
        aru = aru or arus.current
        if not aru:
            raise ARUError("no atomic recovery unit is open")
        if commit:
            if aru not in arus.pins:
                raise ARUError(f"ARU {aru} is not open")
            # Logging may seal and clean: the pins hold until it is done.
            self.append(CommitRecord(aru=aru))
            tr = self.tracer
            if tr:
                tr.instant("lld.aru_end", aru=aru)
            arus.pins.pop(aru, None)
            arus.settle(aru)
        elif aru in arus.pins:
            # Logging may seal and clean: the pins hold until it is done.
            back = arus.withdraw(aru)
            try:
                self._roll_back(back, aru)
            except OutOfSpaceError as exc:
                # No room to log what goes back. The tables get it anyway,
                # and the segments holding it on disk stay pinned — so
                # that a crash finds it there — until restart. No
                # checkpoint is taken meanwhile: its image would hold
                # values no summary does.
                self._roll_back(back, aru, logged=False)
                arus.kept |= arus.pins.pop(aru)
                if arus.current == aru:
                    arus.current = 0
                raise OutOfSpaceError(
                    f"ARU {aru} aborted with no room to log its rollback: its "
                    "values are put back in memory, its pins held until restart"
                ) from exc
            del arus.pins[aru]
        if arus.current == aru:
            arus.current = 0

    def _roll_back(
        self, back: dict[tuple[str, int], object], aru: int, *, logged: bool = True
    ) -> None:
        """Log the values aborted unit ``aru`` replaced (``back``, from
        :meth:`ARUTable.withdraw`), each on behalf of the open unit that
        set it, if one did: the tables then hold what a recovery rebuilds
        without the unit. Until a key's value is back, a relocation or
        re-statement of it (logging may clean) carries ``aru``'s id. Not
        ``logged``: into the tables only."""
        arus = self.arus
        subjects: dict[tuple[str, int], dict[str, object]] = {}
        for (name, ident), value in back.items():
            subject = "block" if name in (KIND_LINK, KIND_DATA) else "list"
            subjects.setdefault((subject, ident), {})[name] = value
        if logged:
            arus.aborting = dict.fromkeys(back, aru)
        try:
            for (subject, ident), values in sorted(subjects.items(), key=lambda item: item[0]):
                for record in self.state.restoring(subject, ident, values):
                    if logged:
                        record.aru = arus.owner(record, aborting=False)
                    self._append(record, logged=logged)
                for name in values:
                    arus.aborting.pop((name, ident), None)
        finally:
            arus.aborting = {}

    # ------------------------------------------------------------------
    # Durability: flush, seal, and the slot-write funnel
    # ------------------------------------------------------------------

    def flush(self, wait: bool = True) -> float:
        """Make everything logged durable: the held segments, and the open
        one — sealed at or above the partial threshold, else held in NVRAM
        or written to its slot while it keeps filling in memory (paper
        §3.2). Returns the simulated time at which it all is on the
        medium — not later than now, unless the caller chose not to
        ``wait`` for it."""
        if self.open.fill_fraction >= PARTIAL_THRESHOLD:
            self.seal()  # may join the held row, which then leaves whole
        elif not self.open.is_empty:
            self.write_held()  # log order: what was sealed goes first
            if not self._absorb_in_nvram():
                self._write_partial()
        self.write_held()
        # The acknowledgement point: everything this flush wrote — and any
        # sealed image still in flight behind an ordering barrier — must be
        # on the medium before the client hears back, and before any later
        # write. The crash-state explorer keys its durability oracle off
        # this barrier. It orders either way; only who waits differs.
        self.barrier("flush", wait=wait)
        return self.disk.write_horizon()

    def seal(self) -> None:
        """open -> sealed: bring the slot up to date — one image, or what
        one more partial flush would write (``delta_partial_flush``) — and
        open the next. On a layout with stripe rows the segment is *held*
        instead, to leave with its row, where blanking its slot's summary
        loses nothing: no ``Flush`` touched it, and the slot was dead when
        it opened (``SlotTable.holdable``)."""
        seg = self.open
        if seg.is_empty:
            return
        nvram = self.nvram
        hold = (
            self.slots.holdable(seg.index)
            and seg.never_flushed
            and not (nvram is not None and nvram.slot == seg.index)
        )
        delta = self.config.delta_partial_flush and not seg.never_flushed
        tr = self.tracer
        with (
            tr.span("lld.segment_seal", slot=seg.index, delta=delta, held=hold)
            if tr
            else NULL_SPAN
        ):
            self.compression.drain_pipeline()
            # The slot the log opens next is chosen now: the write that
            # makes this summary final carries it, and placement sees the
            # ranks that write leaves.
            ranks = self._ranks()
            seg.next = self._choose(ranks if hold else self.slots.after_scrubs(ranks), seg.index)
            self.plan_clean(seg.next)
            if hold:
                self.slots.hold(seg.index)
                self.held.append(seg)
                # Its records exist nowhere else yet, but will: they pin
                # tombstones from now on, as the summary they replace does.
                self.state.summary_min_ts.setdefault(seg.index, seg.min_timestamp())
            else:
                self.write_held()
                written = sum(self._write_slot(seg, delta))
                if delta:
                    self.stats.seals_by_delta += 1
                    self.stats.seal_delta_bytes += written
            self.stats.segments_sealed += 1
            self.open_next(seg.next)
        self.after_seal()

    def write_held(self) -> None:
        """held -> sealed: put the held segments on their slots, as one
        write — when placement leaves the row, and before anything that
        needs them on the medium. One goes out as its seal's image.
        Several: the body with every summary magic blanked, a barrier, then
        each real header sector in log order with a barrier between, so a
        crash leaves a prefix of the row (DESIGN.md §8, "What a row writes").
        """
        held = self.held
        if not held:
            return
        self.held = []
        if len(held) == 1:
            self._write_slot(held[0], delta=False)
            self.slots.row_commit(held[0].index)
            return
        layout = self.layout
        size = self.config.segment_size
        full = len(held) == layout.row_width
        tr = self.tracer
        with (
            tr.span("lld.row_write", slot=held[0].index, segments=len(held), full=full)
            if tr
            else NULL_SPAN
        ):
            for seg in held:
                last = seg.image()  # patches the header: the records are final
                seg.blank_magic()
            # A complete row goes out to its last byte — the padding is
            # what makes it a full stripe; a partial one ends with the
            # last segment's image.
            start = layout.slot_rows[held[0].index][1] * size
            end = layout.slot_rows[held[-1].index][1] * size + (size if full else len(last))
            self._disk_write(layout.slot_lba(held[0].index), self._row[start:end])
            self.barrier("row-body")
            self._commit_row(held)
            self.stats.rows_written += 1
            self.stats.segments_gathered += len(held)

    def _commit_row(self, held: list[OpenSegment]) -> None:
        """Make a written row's segments part of the log, in log order."""
        for seg in held:
            if seg is not held[0]:
                self.barrier("row-commit")
            self._disk_write(self.layout.slot_lba(seg.index), seg.header_sector())
            self.stats.header_commits += 1
            seg.mark_durable()
            self.slots.row_commit(seg.index)
        self._summaries_durable("row-commit", held)

    def _write_partial(self) -> None:
        """Write the below-threshold open segment to its slot: the whole
        image, or what ``LLDConfig.delta_partial_flush`` leaves of it."""
        seg = self.open
        tr = self.tracer
        with tr.span("lld.partial_flush", slot=seg.index) if tr else NULL_SPAN:
            if not self.config.delta_partial_flush:
                self._write_slot(seg, delta=False)
            elif not (seg.summary_dirty or seg.data_dirty):
                # Everything is already durable on disk: nothing to write.
                self.stats.partial_delta_noop += 1
                return
            elif seg.never_flushed:
                self._write_slot(seg, delta=False)
                self.stats.partial_full_writes += 1
            else:
                data_bytes, summary_bytes = self._write_slot(seg, delta=True)
                self.stats.partial_delta_flushes += 1
                self.stats.partial_delta_data_bytes += data_bytes
                self.stats.partial_delta_summary_bytes += summary_bytes
            self.stats.partial_segment_writes += 1

    def _write_slot(self, seg: OpenSegment, delta: bool) -> tuple[int, int]:
        """Bring ``seg``'s slot up to date: the whole image, or (``delta``)
        the data tail past the watermark, then the summary, each only if it
        has something new; returns the ``(data, summary)`` bytes written.
        One epoch: a crash may land either without the other, or tear one,
        which the summary header's two prefixes make safe (DESIGN.md §9)."""
        lba = self.layout.slot_lba(seg.index)
        data_bytes = summary_bytes = 0
        if not delta:
            image = seg.image()
            self._slot_write("lld.segment_image_write", seg, lba, image)
            summary_bytes = self.config.summary_capacity
            data_bytes = len(image) - summary_bytes
        else:
            if seg.data_dirty:
                sector, tail = seg.data_tail()
                self._slot_write(
                    "lld.data_tail_write", seg, lba + self.config.summary_sectors + sector, tail
                )
                data_bytes = len(tail)
            if seg.summary_dirty:
                # Only ``next`` new (a seal after a flush): the header sector.
                summary = seg.summary_delta_image() if seg.records_dirty else seg.header_sector()
                self._slot_write("lld.summary_write", seg, lba, summary)
                summary_bytes = len(summary)
        seg.mark_durable()
        if self.nvram is not None and self.nvram.slot == seg.index:
            self.nvram.clear()  # the disk copy supersedes the NVRAM image
        self._summaries_durable("segment-image", (seg,))
        return data_bytes, summary_bytes

    def _slot_write(self, span: str, seg: OpenSegment, lba: int, data) -> None:
        tr = self.tracer
        with tr.span(span, slot=seg.index, nbytes=len(data)) if tr else NULL_SPAN:
            self._disk_write(lba, data)

    def _absorb_in_nvram(self) -> bool:
        """Hold the partial segment in NVRAM instead of writing it."""
        if self.nvram is None:
            return False
        seg = self.open
        tr = self.tracer
        with (tr.span("lld.nvram_absorb", slot=seg.index) if tr else NULL_SPAN) as sp:
            image = seg.image()
            absorbed = self.nvram.store(seg.index, image)
            if sp is not None:
                sp.attrs["absorbed"] = absorbed
                sp.attrs["image_bytes"] = len(image)
            if not absorbed:
                return False
            ev = self.events
            if ev:
                ev.emit(
                    "lld.nvram_absorb",
                    severity="debug",
                    t=self.disk.clock.now,
                    slot=seg.index,
                    image_bytes=len(image),
                )
            # The NVRAM image supersedes whatever prefix is on disk, so the
            # watermark no longer describes durable-on-disk bytes: reset it,
            # and a later non-absorbed flush writes the full image again.
            seg.reset_durable()
            self._summaries_durable("nvram-absorb", (seg,))
            self.stats.nvram_absorbed += 1
            return True

    def _summaries_durable(self, label: str, segs) -> None:
        """``segs``' summaries just became durable (slots or NVRAM), ordered
        before what follows — the scrubs, safe once the records re-logged
        out of the retired slots are durable: ``segs`` include the open
        segment, or it has logged nothing that is not on its slot."""
        self.barrier(label)
        for seg in segs:
            min_ts = seg.min_timestamp()
            if min_ts is None:
                self.state.summary_min_ts.pop(seg.index, None)
            else:
                self.state.summary_min_ts[seg.index] = min_ts
        due = self._ripe(self.slots.scrubbable())
        if due and (self.open in segs or not self.open.summary_dirty):
            # Destroying the stale summaries lets the minimum summary
            # timestamp rise.
            self.scrub(due)
            self.drop_dead_tombstones()

    def _ranks(self) -> dict[int, int]:
        """``SlotTable.openable``, where scrubs wait for their rows
        (:meth:`_ripe`) with a waiting slot ranked as if its scrub were
        done: placement takes the slots the cleaner empties as it would
        once their stale summaries were gone."""
        ranks = self.slots.openable()
        return self.slots.after_scrubs(ranks) if self.layout.whole_rows else ranks

    def _ripe(self, due: set[int]) -> set[int]:
        """Of the retired slots ``due`` a scrub, those to scrub now. On
        stripe rows a scrub is a partial-row write, two pre-reads and two
        writes, and the stale summary it destroys harms nothing meanwhile
        (it only keeps the tombstones it could contradict, and the log
        opening the slot writes over it, which often comes first): a slot
        waits until every slot of its row is :meth:`_row_openable`, or
        until tombstone compaction scrubs it (DESIGN.md §14)."""
        whole_rows = self.layout.whole_rows
        if not whole_rows or not due:
            return due
        rows = self.layout.slot_rows
        ranks = self.slots.openable()
        return {
            slot
            for slot in due
            if rows[slot][0] not in whole_rows or self._row_openable(slot, ranks)
        }

    def _row_openable(self, slot: int, ranks: dict[int, int]) -> bool:
        """Is every slot of ``slot``'s stripe row — a row of log slots alone
        (``DiskLayout.whole_rows``) — one of ``ranks`` (openable: no live
        data or metadata, not in memory, not pinned) and off the recovery
        chain (not opened since the newest checkpoint)?"""
        row_slots = self.layout.whole_rows.get(self.layout.slot_rows[slot][0])
        if row_slots is None:
            return False
        since = self.slots.since or ()
        return all(other in ranks and other not in since for other in row_slots)

    def scrub(self, slots: Iterable[int]) -> None:
        """Destroy the stale summaries of those of ``slots`` the table lets
        go (``SlotTable.scrub``). The caller guarantees that whatever a
        summary still homes is durable elsewhere — once the held segments
        are, which therefore go first. The package's only
        ``empty_summary`` writer.
        """
        self.write_held()
        empty = empty_summary(self.config.summary_capacity)
        state = self.state
        for slot in sorted(slots):
            if self.slots.scrub(slot):
                self._disk_write(self.layout.slot_lba(slot), empty)
                state.summary_min_ts.pop(slot, None)
                state.forget_units(slot)

    def repair_summary(self, slot: int, records: list[Record]) -> None:
        """Rewrite ``slot``'s summary as ``records`` alone — the previous
        prefix of a summary whose current prefix checks but whose data
        never landed (recovery, DESIGN.md §9). Left as it was, that prefix
        would be taken whole by the recovery after the next crash, once a
        newer summary no longer lets the tail check reach it; the ordering
        barrier puts the rewrite ahead of anything the log writes next.
        No records: the slot is empty, and its summary is the empty one.
        """
        image = serialize_summary(records, self.config.summary_capacity)
        self._disk_write(self.layout.slot_lba(slot), image)
        self.barrier("summary-repair")

    def drop_dead_tombstones(self) -> int:
        """Forget tombstones no surviving summary could contradict."""
        state = self.state
        min_ts = state.min_summary_timestamp()
        dead = [key for key, tomb in state.tombstones.items() if tomb.settled(min_ts)]
        for key in dead:
            state.drop_tombstone(key)
        self.stats.tombstones_dropped += len(dead)
        return len(dead)

    def _disk_write(self, lba: int, data) -> None:
        """Every LD write-path disk write funnels through here (write-amp)."""
        self.disk.write(lba, data)
        self.stats.data_bytes_physical += len(data)

    def barrier(self, label: str, *, wait: bool = False) -> None:
        """Announce a write-ordering point to the disk (the crash-state
        explorer closes a reorder epoch here). Order is not
        acknowledgement: only a client's ``Flush`` and the shutdown
        checkpoint ``wait``; on a ``Volume`` that costs the slowest
        member's queue, an ordering one at most the epoch it closes."""
        self.disk.barrier(label, wait=wait)
