"""Segment cleaning (paper section 3.5).

The cleaner evacuates live blocks from mostly-dead segments into the open
segment, re-logs any metadata tuples whose latest copy lives in the cleaned
segment, and thereby produces empty segments. Two victim-selection policies
from Rosenblum & Ousterhout are provided:

* ``greedy`` — fewest live bytes first;
* ``cost_benefit`` — maximize ``(1 - u) * age / (1 + u)`` where ``u`` is
  utilization, so cold, fairly empty segments win over hot ones.

While copying, blocks are re-ordered along their list chains (the paper's
"uses the list information to reorder the blocks to improve sequential read
performance").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.ld.errors import OutOfSpaceError
from repro.lld.config import MIN_FREE_SEGMENTS
from repro.lld.segment import pick_slot
from repro.obs.trace import NULL_SPAN

if TYPE_CHECKING:  # pragma: no cover
    from repro.lld.lld import LLD


class Cleaner:
    """Produces empty segments for an :class:`~repro.lld.lld.LLD`."""

    def __init__(self, lld: "LLD") -> None:
        self.lld = lld
        # Re-entrancy guards: a seal inside a cleaning pass must not start
        # another, and compaction (which cleans and flushes) must not nest.
        self.cleaning = False
        self.compacting = False

    # ------------------------------------------------------------------
    # Victim selection
    # ------------------------------------------------------------------

    def select_victim(self) -> int | None:
        """Pick the next segment to clean under the configured policy, out
        of ``SlotTable.cleanable``: the best one the newest checkpoint
        listed, while one is left (:meth:`victims`), else the best one."""
        slots = self.lld.slots
        candidates = slots.cleanable(self.lld.open_segment_index)
        if not candidates:
            return None
        planned = [slot for slot in candidates if slot in slots.listed]
        return min(planned or candidates, key=self._victim_key())

    def victims(self, openings: int) -> list[int]:
        """The segments the policy would clean next, best first: as many
        as the next ``openings`` openings make it clean, one each once the
        free slots are down to :data:`MIN_FREE_SEGMENTS`. A checkpoint
        lists them after the free slots (``LogWriter._listing``)."""
        count = openings - (self.lld.free_segment_count() - MIN_FREE_SEGMENTS)
        if count <= 0:
            return []
        candidates = self.lld.slots.cleanable(self.lld.open_segment_index)
        return sorted(candidates, key=self._victim_key())[:count]

    def _victim_key(self) -> Callable[[int], tuple]:
        """Sort key of the configured policy: the best victim sorts first."""
        lld = self.lld
        usage = lld.state.usage
        if lld.config.clean_policy == "greedy":
            spindles = lld.layout.slot_spindles
            if spindles is not None:
                # Multi-spindle tie-break: among equally-dead victims,
                # prefer one off the open segment's spindle, where the
                # evacuated blocks will be written. (The write in flight
                # while the victim is read is not that one but the slot
                # just sealed — behind an ordering barrier nobody waits
                # for it — and the tie-break does not look at its member.)
                open_index = lld.open_segment_index
                open_spindle = spindles[open_index] if open_index is not None else -1
                return lambda slot: (
                    usage.get(slot, 0),
                    spindles[slot] == open_spindle,
                    slot,
                )
            return lambda slot: (usage.get(slot, 0), slot)
        # cost_benefit
        capacity = lld.config.data_capacity
        now = lld.state.next_ts

        def benefit(slot: int) -> float:
            u = min(1.0, usage.get(slot, 0) / capacity)
            age = now - lld.state.segment_mod_ts.get(slot, 0)
            return (1.0 - u) * age / (1.0 + u)

        return lambda slot: (-benefit(slot), slot)

    # ------------------------------------------------------------------
    # Cleaning
    # ------------------------------------------------------------------

    def after_seal(self) -> None:
        """The space policy the log writer runs after every seal."""
        if self.cleaning:
            return
        config = self.lld.config
        tombstones = len(self.lld.state.tombstones)
        if tombstones > config.max_tombstones and not self.compacting:
            self.compacting = True
            try:
                # Shallow compaction (scrub free slots) normally; a deep
                # pass (clean live cold segments) only if the table has
                # grown far past its target.
                self.compact_tombstones(
                    config.max_tombstones // 2,
                    deep=tombstones > 8 * config.max_tombstones,
                )
            finally:
                self.compacting = False
        self.ensure_free(MIN_FREE_SEGMENTS)

    def ensure_free(self, target: int) -> None:
        """Clean until at least ``target`` segments are free, then see that
        the log has one it may open (:meth:`keep_a_slot_to_open`)."""
        lld = self.lld
        guard = 4 * lld.layout.segment_count
        stalled = 0
        best_free = lld.free_segment_count()
        while lld.free_segment_count() < target:
            if guard <= 0 or stalled > lld.layout.segment_count:
                self._note_starved(target)
                raise OutOfSpaceError(
                    "cleaner cannot produce enough free segments "
                    f"(live bytes: {lld.state.live_bytes()})"
                )
            guard -= 1
            victim = self.select_victim()
            if victim is None:
                self._note_starved(target)
                raise OutOfSpaceError("no cleanable segments available")
            self.clean_segment(victim)
            free_now = lld.free_segment_count()
            if free_now > best_free:
                best_free = free_now
                stalled = 0
            else:
                stalled += 1
        self.keep_a_slot_to_open()

    def keep_a_slot_to_open(self) -> None:
        """The floor under placement: when every reusable slot still homes
        metadata, retire the one placement would open next — its homes
        re-logged at the log head, no data to read — so that the log has a
        slot to open."""
        log = self.lld.log
        reusable = log.slots.reusable()
        if reusable and all(map(self.lld.state.slot_holds_metadata, reusable)):
            slot = pick_slot(dict.fromkeys(reusable, 0), log.layout, log.open.index)
            log.relog_slot(slot)
            log.slots.retire(slot)

    def clean_segments(self, count: int) -> int:
        """Clean up to ``count`` victims; returns how many were cleaned."""
        cleaned = 0
        for _ in range(count):
            victim = self.select_victim()
            if victim is None:
                break
            self.clean_segment(victim)
            cleaned += 1
        return cleaned

    def _note_starved(self, target: int) -> None:
        """Log the starvation the caller is about to raise for."""
        lld = self.lld
        ev = lld.events
        if ev:
            ev.emit(
                "lld.cleaner_starved",
                severity="error",
                t=lld.disk.clock.now,
                target=target,
                free_segments=lld.free_segment_count(),
                live_bytes=lld.state.live_bytes(),
            )

    def clean_segment(self, slot: int) -> None:
        """Evacuate every live block and metadata tuple from ``slot``."""
        lld = self.lld
        if slot == lld.open_segment_index:
            raise ValueError("cannot clean the open segment")
        tr = lld.tracer
        with tr.span("lld.cleaner_pass", slot=slot) if tr else NULL_SPAN:
            self._clean_segment(slot)
        ev = lld.events
        if ev:
            ev.emit(
                "lld.cleaner_pass",
                severity="debug",
                t=lld.disk.clock.now,
                slot=slot,
                free_segments=lld.free_segment_count(),
            )

    def _clean_segment(self, slot: int) -> None:
        lld = self.lld
        self.cleaning = True
        lld.stats.cleanings += 1
        try:
            # The victim is read from the medium, and may be a held slot.
            lld.log.write_held()
            data = self._read_data_area(slot)
            lld.stats.blocks_cleaned += lld.log.relocate(
                self._clustered_order(slot),
                lambda entry: (
                    data[entry.offset : entry.offset + entry.stored_length]
                    if entry.segment == slot
                    else None  # moved while we were copying
                ),
            )
            # Metadata tuples and tombstones homed here must move too. The
            # stale summary is garbage once the re-logged records are
            # durable: the slot is retired, for a later scrub.
            lld.log.relog_slot(slot)
            lld.slots.clean(slot)
        finally:
            self.cleaning = False

    # ------------------------------------------------------------------
    # Tombstone compaction
    # ------------------------------------------------------------------

    def compact_tombstones(self, target_count: int, deep: bool = False) -> int:
        """Retire tombstones by raising the minimum summary timestamp that
        pins them: scrub the oldest free slots (their homes re-logged
        first) until enough are settled or the oldest summary is a live
        segment's — which ``deep`` cleans first. Returns how many dropped."""
        lld = self.lld
        state = lld.state
        dropped = lld.log.drop_dead_tombstones()
        need_to_retire = len(state.tombstones) - target_count
        if need_to_retire <= 0:
            return dropped

        # Phase 1: pick scrub targets, oldest summaries first, until the
        # projected post-scrub minimum would retire enough tombstones.
        scrub_set: set[int] = set()
        relogged_any = False
        guard = 2 * lld.layout.segment_count
        while guard > 0:
            guard -= 1
            slot = self._oldest_summary_slot(exclude=scrub_set)
            if slot is None:
                break
            if state.usage.get(slot, 0) > 0:
                if not deep:
                    break  # only live segments remain: scrubbing is done
                self.clean_segment(slot)
                relogged_any = True
            elif state.slot_holds_metadata(slot):
                lld.log.relog_slot(slot)
                relogged_any = True
            scrub_set.add(slot)
            projected_min = state.min_summary_timestamp(exclude=scrub_set)
            retirable = sum(
                tomb.settled(projected_min) for tomb in state.tombstones.values()
            )
            if retirable >= need_to_retire:
                break
        if not scrub_set:
            return dropped

        # Phase 2: one durability point covers every re-logged record,
        # then the stale summaries go, and only then their tombstones. A
        # target the log opened again meanwhile homes what was re-logged:
        # it is left alone.
        if relogged_any:
            lld.flush()
        lld.log.scrub(slot for slot in scrub_set if not state.slot_holds_metadata(slot))
        return dropped + lld.log.drop_dead_tombstones()

    def _oldest_summary_slot(self, exclude: set[int] | None = None) -> int | None:
        """Slot with the oldest valid summary, not the open or a pinned one."""
        lld = self.lld
        excluded = lld.slots.pinned().union(exclude or (), [lld.open_segment_index])
        return min(
            ((ts, slot) for slot, ts in lld.state.summary_min_ts.items() if slot not in excluded),
            default=(None, None),
        )[1]

    def scrub_slot(self, slot: int) -> None:
        """Invalidate the stale summary of a reusable slot, its homes
        re-logged and flushed first."""
        lld = self.lld
        if slot not in lld.slots.reusable():
            raise ValueError(f"segment {slot} is in memory, live or pinned by an open ARU")
        if lld.state.slot_holds_metadata(slot):
            lld.log.relog_slot(slot)
            lld.flush()
        lld.log.scrub((slot,))

    def _read_data_area(self, slot: int) -> bytes:
        """One long read of the victim's data area (realistic cleaner I/O)."""
        lld = self.lld
        config = lld.config
        lba = lld.layout.slot_lba(slot) + config.summary_sectors
        nsectors = config.sectors_per_segment - config.summary_sectors
        return lld.disk.read(lba, nsectors)

    def _clustered_order(self, slot: int) -> list[int]:
        """Live blocks of ``slot``, ordered along their list chains.

        Chains are followed only within the victim segment: a block whose
        predecessor also lives in the segment is emitted right after it,
        which preserves sequential-read locality after the copy.
        """
        lld = self.lld
        live = set(lld.state.segment_blocks.get(slot, set()))
        if not live:
            return []
        has_in_segment_predecessor = set()
        for bid in live:
            entry = lld.state.blocks.get(bid)
            if entry is not None and entry.successor in live:
                has_in_segment_predecessor.add(entry.successor)
        heads = sorted(live - has_in_segment_predecessor)
        ordered: list[int] = []
        seen: set[int] = set()
        for head in heads:
            bid: int | None = head
            while bid is not None and bid in live and bid not in seen:
                ordered.append(bid)
                seen.add(bid)
                entry = lld.state.blocks.get(bid)
                bid = entry.successor if entry is not None else None
        # Any stragglers (cycles among themselves cannot happen in a
        # well-formed list, but stay defensive).
        for bid in sorted(live - seen):
            ordered.append(bid)
        return ordered
