"""Every segment slot's lifecycle, in one table (DESIGN.md §8)::

    free -> open -> sealed -> retired -> free
            open -> held -> sealed

``free``: the summary holds nothing (never written, or scrubbed);
``open``: filling in memory; ``held``: sealed, waiting in memory for its
stripe row; ``sealed``: the summary on the medium is the log's latest;
``retired``: emptied by the cleaner, the stale summary awaiting its scrub.
Orthogonal facts: live data (the usage table, as :attr:`SlotTable.empty`),
pinned by an open unit (``ARUTable.pins``, consulted), homes live metadata
(``LLDState.slot_holds_metadata``), durably dead (:attr:`SlotTable.dead`),
and the newest checkpoint's :attr:`~SlotTable.listed`,
:attr:`~SlotTable.since` and :attr:`~SlotTable.resume`. Each event is one
guarded method; every state change goes through ``_move``, and
:meth:`SlotTable.check` asserts the invariants between events.
"""

from __future__ import annotations

from typing import Callable

FREE, OPEN, HELD, SEALED, RETIRED = "free", "open", "held", "sealed", "retired"


class SlotError(AssertionError):
    """A transition's guard or an invariant of the table failed."""


class SlotTable:
    """The state and facts of every slot of one log. ``state`` (the
    ``LLDState``) calls :meth:`live` as a slot's usage crosses zero;
    ``moved(slot, old, new, cause)`` hears every state change."""

    def __init__(self, count: int, state, arus, moved: Callable | None = None) -> None:
        self.state = state
        self.arus = arus
        self.moved = moved
        self.of = [FREE] * count
        self._in = {name: set() for name in (OPEN, HELD, SEALED, RETIRED)}
        self._in[FREE] = set(range(count))
        #: Slots with no live data, kept as usage crosses zero.
        self.empty: set[int] = set(range(count))
        state.slots = self
        #: Openable and not retired the last time nothing sealed was held:
        #: their summaries, and all that killed them, are on the medium.
        self.dead: set[int] = set()
        #: Listed by the newest checkpoint, not opened since: opened first.
        self.listed: set[int] = set()
        #: Opened since the newest checkpoint: the chain a recovery follows.
        #: None: no checkpoint covers the log (a crash sweeps).
        self.since: set[int] | None = None
        #: At start-up, the slot the recovered chain's last summary names.
        self.resume: int | None = None

    # ------------------------------------------------------------------
    # Facts and queries
    # ------------------------------------------------------------------

    def live(self, slot: int, live: bool) -> None:
        """``slot``'s usage crossed zero (from ``LLDState``)."""
        if live:
            self.empty.discard(slot)
        elif 0 <= slot < len(self.of):
            self.empty.add(slot)

    def pinned(self) -> set[int]:
        """Slots holding what a recovery needs if an open unit never commits."""
        return self.arus.pinned_segments()

    def pin(self, aru: int, slots) -> None:
        """Open unit ``aru`` superseded what ``slots`` hold."""
        self.arus.pins[aru].update(slots)

    def reusable(self) -> set[int]:
        """Slots with no live data, no segment in memory over them, and no
        pin: the free slots placement and the cleaner count."""
        return self.empty - self._in[OPEN] - self._in[HELD] - self.pinned()

    def openable(self) -> dict[int, int]:
        """The :meth:`reusable` slots whose summaries home no live metadata,
        ranked for ``pick_slot``: 0 no summary, 1 a pure-stale one."""
        state = self.state
        return {
            slot: int(slot in state.summary_min_ts)
            for slot in self.reusable()
            if not state.slot_holds_metadata(slot)
        }

    def placeable(self, ranks: dict[int, int]) -> dict[int, int]:
        """Of ``ranks``, the listed ones, else those not opened since the
        checkpoint (the chain reaches them), else — a checkpoint is then
        needed — all."""
        since = self.since
        if since is None:
            return ranks
        fresh = {slot: rank for slot, rank in ranks.items() if slot not in since}
        listed = {slot: rank for slot, rank in fresh.items() if slot in self.listed}
        return listed or fresh or ranks

    def scrubbable(self) -> set[int]:
        """Retired slots off the chain: what the next scrub destroys."""
        return self._in[RETIRED].difference(self.since or ())

    def after_scrubs(self, ranks: dict[int, int]) -> dict[int, int]:
        """``ranks`` as they will be once :meth:`scrubbable` slots are free."""
        due = self.scrubbable()
        return {slot: 0 if slot in due else rank for slot, rank in ranks.items()}

    def holdable(self, slot: int) -> bool:
        """May the open segment over ``slot`` be held once sealed?"""
        return self.of[slot] == OPEN and slot in self.dead

    def cleanable(self, current: int | None) -> list[int]:
        """Slots with live data the cleaner may take: not ``current`` (the
        open segment's, held or not), not a pinned one. Another held one
        is written first."""
        skip = self.empty | self.pinned() | {current}
        return [slot for slot in range(len(self.of)) if slot not in skip]

    def covered(self, slot: int, named: int | None) -> bool:
        """Will a recovery find ``slot``: listed by the newest checkpoint,
        or ``named`` by the summary before it, and not opened since?"""
        since = self.since
        return since is not None and slot not in since and (slot in self.listed or slot == named)

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------

    def _move(self, slot: int, new: str, cause: str) -> None:
        """The one place a slot changes state."""
        old = self.of[slot]
        self._in[old].discard(slot)
        self._in[new].add(slot)
        self.of[slot] = new
        if self.moved is not None:
            self.moved(slot, old, new, cause)

    def _guard(self, ok: bool, event: str, slot: int) -> None:
        if not ok:
            raise SlotError(f"{event} refused: slot {slot} {self.of[slot]}, "
                            f"empty {slot in self.empty}, pinned {slot in self.pinned()}")

    def chain(self, slot: int) -> None:
        """The log opens ``slot`` next: never one it opened since the
        newest checkpoint."""
        since = self.since
        self._guard(since is None or slot not in since, "chain", slot)
        if since is not None:
            since.add(slot)
        self.listed.discard(slot)
        self.resume = None

    def open(self, slot: int, ranks: dict[int, int], settled: bool) -> None:
        """-> open, over one of ``ranks`` (:meth:`openable`), sealing the
        segment open before it unless held. ``settled``: nothing is held,
        so all that is logged is on the medium or ordered ahead of what
        is written next, and the openable slots not retired are dead."""
        self._guard(slot in ranks and slot in self.reusable(), "open", slot)
        self._guard(not self.state.slot_holds_metadata(slot), "open", slot)
        for current in list(self._in[OPEN]):
            self.seal(current)
        if settled:
            self.dead = {free for free in ranks if self.of[free] != RETIRED}
        self._move(slot, OPEN, "open")

    def seal(self, slot: int) -> None:
        """open -> sealed: the segment is on its slot."""
        self._guard(self.of[slot] == OPEN, "seal", slot)
        self.dead.discard(slot)
        self._move(slot, SEALED, "seal")

    def hold(self, slot: int) -> None:
        """open -> held: only over a slot that was dead when it opened."""
        self._guard(self.holdable(slot), "hold", slot)
        self.dead.discard(slot)
        self._move(slot, HELD, "hold")

    def row_commit(self, slot: int) -> None:
        """held -> sealed: its row is written and its header committed."""
        self._guard(self.of[slot] == HELD, "row_commit", slot)
        self._move(slot, SEALED, "row_commit")

    def clean(self, slot: int) -> None:
        """sealed -> retired: the cleaner moved out every live block and
        home. Never the open, a held or a pinned slot."""
        ok = self.of[slot] == SEALED and slot in self.empty and slot not in self.pinned()
        self._guard(ok, "clean", slot)
        self._move(slot, RETIRED, "clean")

    def retire(self, slot: int) -> None:
        """A reusable slot whose homes were re-logged -> retired."""
        self._guard(slot in self.reusable(), "retire", slot)
        self._move(slot, RETIRED, "retire")

    def scrub(self, slot: int) -> bool:
        """-> free: may ``slot``'s stale summary be destroyed now? Only a
        reusable one, and no chain slot before the next checkpoint: that
        one is retired, for a later scrub."""
        if slot not in self.reusable():
            return False
        if self.since is not None and slot in self.since:
            if self.of[slot] != RETIRED:
                self._move(slot, RETIRED, "scrub")
            return False
        self._move(slot, FREE, "scrub")
        return True

    def checkpoint(self, listed: list[int] | None) -> None:
        """A checkpoint that lists ``listed`` is written; None: the newest
        copy is retired, and no checkpoint covers the log."""
        self.listed = set(listed or ())
        self.since = None if listed is None else set()

    def recover(self, listed=(), since: set[int] | None = None, resume=None) -> None:
        """Start-up: every slot with a summary is sealed, the rest free;
        the chain facts are what the recovery found."""
        summaries = self.state.summary_min_ts
        for slot in range(len(self.of)):
            new = SEALED if slot in summaries else FREE
            if self.of[slot] != new:
                self._move(slot, new, "recover")
        self.dead = set()
        self.listed = set(listed)
        self.since = since
        self.resume = resume

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def check(self) -> None:
        """Raise :class:`SlotError` unless the invariants hold."""
        summaries, usage, of, by = self.state.summary_min_ts, self.state.usage, self.of, self._in
        resident = by[OPEN] | by[HELD]
        problems = [
            f"slot {slot} {name}: usage {usage.get(slot, 0)}, summary {slot in summaries}"
            for slot, name in enumerate(of)
            if (slot in self.empty) != (usage.get(slot, 0) <= 0)
            or slot not in by[name]
            or (name != OPEN and (name == FREE) == (slot in summaries))
        ]
        if len(by[OPEN]) > 1 or by[RETIRED] - self.empty or by[RETIRED] & self.pinned():
            problems.append(f"open {by[OPEN]}, retired {by[RETIRED]} (live or pinned)")
        if self.dead - self.empty - by[OPEN]:
            problems.append(f"dead slots with live data: {self.dead - self.empty}")
        if self.listed & resident or (
            self.since is not None and (self.listed & self.since or resident - self.since)
        ):
            problems.append(f"listed {self.listed}, since {self.since}, in memory {resident}")
        if problems:
            raise SlotError("; ".join(problems))
