"""Crash-state enumeration and exploration.

Given a :class:`~repro.crashsim.recording.RecordingDisk` journal, the
enumerator generates every distinct crash image the recorded execution
could have left on the medium under the standard disk crash model:

* **Prefixes** — the crash hit between write ``i-1`` and write ``i``;
  every journal prefix is a legal image (within an epoch, the in-order
  prefix models "no reordering happened").
* **Torn writes** — the crash hit *during* a multi-sector write; any
  sector-aligned proper prefix of that write may have reached the medium
  on top of the journal prefix before it.
* **Reorderings** — writes inside one epoch carry no ordering guarantee,
  so any subset of an epoch (each write fully applied, in program order)
  on top of the preceding epochs is a legal image. Program-order subsets
  model both reordering and dropped writes for non-overlapping requests;
  epochs whose writes overlap are rare.

States are deduplicated by their canonical plan — the exact
``(write seq, sectors applied)`` multiset — so e.g. the torn state that
applies *all* sectors of a write is never counted twice with the prefix
that includes it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import TYPE_CHECKING, Callable

from repro.disk.disk import SimulatedDisk

if TYPE_CHECKING:  # pragma: no cover
    from repro.crashsim.recording import RecordingDisk

#: A crash plan: for each applied write, ``(journal seq, sectors applied)``
#: in journal order. The image it denotes is base + these writes replayed.
Plan = tuple[tuple[int, int], ...]

#: Sector counts a multi-sector write is torn at, at most: both boundary
#: tears and the rest spread evenly between them.
MAX_TORN_SPLITS_PER_WRITE = 8
#: Epochs of up to this many writes have every proper subset enumerated;
#: wider ones are sampled.
MAX_REORDER_EPOCH_WRITES = 6
#: The enumeration stops at this many states.
MAX_STATES = 100_000


@dataclass(frozen=True)
class CrashState:
    """One enumerated crash state.

    ``covered_seq`` is the conservative durability horizon: every write
    with ``seq < covered_seq`` is fully applied in this image. The oracle
    uses it to find the latest acknowledgement point this image must
    honour.
    """

    state_id: int
    kind: str  # "prefix" | "torn" | "reorder"
    covered_seq: int
    plan: Plan
    detail: str = ""


@dataclass
class Violation:
    """One invariant broken by one crash state."""

    state_id: int
    kind: str
    invariant: str
    message: str
    detail: str = ""

    def __str__(self) -> str:
        return (
            f"[state {self.state_id} {self.kind}{' ' + self.detail if self.detail else ''}] "
            f"{self.invariant}: {self.message}"
        )


@dataclass
class CheckOutcome:
    """What one recovery check produced."""

    violations: list[Violation] = field(default_factory=list)
    recovery_seconds: float = 0.0


@dataclass
class ExplorationReport:
    """Aggregate result of exploring every enumerated crash state."""

    states_total: int = 0
    states_by_kind: dict[str, int] = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)
    recovery_seconds: list[float] = field(default_factory=list)

    @classmethod
    def collect(cls, states, check: Callable[[object], CheckOutcome]) -> "ExplorationReport":
        """Run ``check`` on every state (of any enumerator), aggregate."""
        report = cls()
        for state in states:
            outcome = check(state)
            report.states_total += 1
            report.states_by_kind[state.kind] = report.states_by_kind.get(state.kind, 0) + 1
            report.violations.extend(outcome.violations)
            report.recovery_seconds.append(outcome.recovery_seconds)
        return report

    @property
    def recovery_seconds_mean(self) -> float:
        if not self.recovery_seconds:
            return 0.0
        return sum(self.recovery_seconds) / len(self.recovery_seconds)

    @property
    def recovery_seconds_max(self) -> float:
        return max(self.recovery_seconds, default=0.0)

    def __str__(self) -> str:
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(self.states_by_kind.items()))
        return (
            f"explored {self.states_total} crash states ({kinds}), "
            f"{len(self.violations)} violation(s), "
            f"recovery mean {self.recovery_seconds_mean * 1000:.1f} ms / "
            f"max {self.recovery_seconds_max * 1000:.1f} ms"
        )


class CrashStateEnumerator:
    """Enumerates and materializes the crash states of a recorded run."""

    def __init__(
        self,
        recording: "RecordingDisk",
        *,
        reorder_samples_per_epoch: int = 16,
        seed: int = 0,
    ) -> None:
        self.recording = recording
        self.reorder_samples_per_epoch = reorder_samples_per_epoch
        self.seed = seed

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------

    def enumerate(self) -> list[CrashState]:
        """All distinct crash states, prefixes first, capped at
        :data:`MAX_STATES`."""
        events = self.recording.events
        seen: set[Plan] = set()
        states: list[CrashState] = []

        def add(kind: str, covered_seq: int, plan: Plan, detail: str = "") -> bool:
            if len(states) >= MAX_STATES:
                return False
            if plan in seen:
                return True
            seen.add(plan)
            states.append(
                CrashState(
                    state_id=len(states),
                    kind=kind,
                    covered_seq=covered_seq,
                    plan=plan,
                    detail=detail,
                )
            )
            return True

        # 1. Every journal prefix, including the empty disk and the full run.
        full: list[tuple[int, int]] = [
            (event.seq, event.nsectors) for event in events
        ]
        for i in range(len(events) + 1):
            if not add("prefix", i, tuple(full[:i]), detail=f"cut@{i}"):
                return states

        # 2. Torn multi-sector writes: prefix before the write, plus a
        # proper sector prefix of the write itself.
        for event in events:
            if event.nsectors < 2:
                continue
            splits = self._torn_splits(event.nsectors)
            for k in splits:
                plan = tuple(full[: event.seq]) + ((event.seq, k),)
                if not add(
                    "torn", event.seq, plan, detail=f"w{event.seq}+{k}/{event.nsectors}"
                ):
                    return states

        # 3. Intra-epoch reorderings: all epochs fully applied before this
        # one, plus a strict subset of this epoch in program order.
        rng = random.Random(self.seed)
        for start, end in self.recording.epoch_bounds():
            width = end - start
            if width < 2:
                continue  # subsets of a 1-write epoch are all prefixes
            base = tuple(full[:start])
            members = list(range(start, end))
            if width <= MAX_REORDER_EPOCH_WRITES:
                subset_iter = self._all_proper_subsets(members)
            else:
                subset_iter = self._sampled_subsets(members, rng)
            for subset in subset_iter:
                plan = base + tuple(full[seq] for seq in subset)
                detail = f"epoch@{start}:{{{','.join(map(str, subset))}}}"
                if not add("reorder", start, plan, detail=detail):
                    return states

        return states

    def _torn_splits(self, nsectors: int) -> list[int]:
        """Which sector counts to tear a write of ``nsectors`` at."""
        candidates = list(range(1, nsectors))
        if len(candidates) <= MAX_TORN_SPLITS_PER_WRITE:
            return candidates
        # Always keep the boundary tears (1 sector applied, one-short of
        # complete) and spread the rest evenly across the middle.
        keep = {candidates[0], candidates[-1]}
        step = (len(candidates) - 1) / (MAX_TORN_SPLITS_PER_WRITE - 1)
        for i in range(1, MAX_TORN_SPLITS_PER_WRITE - 1):
            keep.add(candidates[round(i * step)])
        return sorted(keep)

    def _all_proper_subsets(self, members: list[int]):
        """Every subset except the empty set and the full set.

        Those two are the prefix states at the epoch's start and end; the
        dedup set would drop them anyway, skipping just avoids the churn.
        """
        for size in range(1, len(members)):
            yield from combinations(members, size)

    def _sampled_subsets(self, members: list[int], rng: random.Random):
        """Seeded sample of proper subsets for epochs too wide to exhaust."""
        emitted: set[tuple[int, ...]] = set()
        # Deterministic structured samples first: drop exactly one write
        # (the states most likely to expose a missing-barrier bug).
        for i in range(len(members)):
            subset = tuple(members[:i] + members[i + 1 :])
            emitted.add(subset)
        budget = max(self.reorder_samples_per_epoch, len(emitted))
        attempts = 0
        while len(emitted) < budget and attempts < budget * 8:
            attempts += 1
            subset = tuple(m for m in members if rng.random() < 0.5)
            if 0 < len(subset) < len(members):
                emitted.add(subset)
        yield from sorted(emitted)

    # ------------------------------------------------------------------
    # Materialization and exploration
    # ------------------------------------------------------------------

    def materialize(self, state: CrashState) -> SimulatedDisk:
        """Build the crash image as a fresh disk (fresh clock, zero stats)."""
        return self.recording.image(state.plan)

    def explore(
        self, check: Callable[[SimulatedDisk, CrashState], CheckOutcome]
    ) -> ExplorationReport:
        """Materialize every state, run ``check`` on it, aggregate results."""
        return ExplorationReport.collect(
            self.enumerate(), lambda state: check(self.materialize(state), state)
        )
