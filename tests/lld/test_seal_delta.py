"""Seal by delta: a sealed segment writes only its non-durable tail.

With ``delta_partial_flush`` on, ``LogWriter.seal`` over a slot whose
prefix earlier partial flushes made durable issues the writes one more
partial flush would — the data tail, then the summary — instead of the
whole image again. Three things are pinned here:

* the slot, the device and everything a recovery makes of them end up
  exactly as with ``delta_partial_flush=False`` (hypothesis op scripts on
  a bare disk and on RAID-5, with and without ``torn_write_protection``
  and NVRAM, plus the two seal triggers spelled out);
* the counters stay truthful: a seal is not a partial flush;
* a crash anywhere inside the seal — every prefix, torn and reordered
  state of its epochs — recovers to the acknowledgement before the seal
  or to the sealed state, never to anything else.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crashsim import (
    CrashStateEnumerator,
    LLDCrashChecker,
    OracleDriver,
    RecordingDisk,
)
from repro.disk import SimulatedDisk, fast_test_disk
from repro.ld import LIST_HEAD
from repro.lld import LLD
from repro.lld.config import SECTOR
from repro.lld.segment import parse_summary, summary_next
from repro.obs import Tracer
from repro.sim import VirtualClock

from tests.lld.conftest import make_lld, small_config
from tests.lld.test_log_golden import Rig, observe
from tests.lld.test_write_path import fill_block as fill

BLOCK = 4096


# ----------------------------------------------------------------------
# What a seal writes
# ----------------------------------------------------------------------


def grown(lld: LLD, count: int, size: int = BLOCK) -> list[int]:
    """A new list of ``count`` written blocks."""
    lid = lld.new_list()
    bids, pred = [], LIST_HEAD
    for i in range(count):
        pred = lld.new_block(lid, pred)
        lld.write(pred, fill(i, size))
        bids.append(pred)
    return bids


def test_seal_over_a_durable_prefix_writes_only_the_tail():
    lld = make_lld()
    bids = grown(lld, 8)
    lld.flush()  # first flush onto the slot: the whole image
    assert lld.stats.partial_full_writes == 1
    for bid in bids[:4]:
        lld.write(bid, fill(9))  # 12 of 15 blocks: past the 75% threshold
    before = lld.disk.stats.snapshot()
    partial = lld.stats.snapshot()
    lld.flush()
    assert lld.stats.segments_sealed == 1 and lld.stats.seals_by_delta == 1
    written = lld.disk.stats.bytes_written - before.bytes_written
    assert lld.disk.stats.writes - before.writes == 2  # data tail, summary
    assert 4 * BLOCK < written < 5 * BLOCK
    assert lld.stats.seal_delta_bytes == written
    # A seal is not a partial flush.
    for name in (
        "partial_segment_writes", "partial_delta_flushes", "partial_full_writes",
        "partial_delta_noop", "partial_delta_data_bytes", "partial_delta_summary_bytes",
    ):
        assert getattr(lld.stats, name) == getattr(partial, name), name
    assert lld.stats.data_bytes_physical == lld.disk.stats.bytes_written


def test_seal_of_a_never_flushed_segment_is_still_one_image():
    lld = make_lld()
    grown(lld, 13)
    writes = lld.disk.stats.writes
    lld.flush()
    assert lld.stats.segments_sealed == 1 and lld.stats.seals_by_delta == 0
    assert lld.disk.stats.writes == writes + 1
    assert lld.stats.seal_delta_bytes == 0


def test_full_image_strategy_still_rewrites_the_whole_slot():
    lld = make_lld(delta_partial_flush=False)
    bids = grown(lld, 8)
    lld.flush()
    for bid in bids[:4]:
        lld.write(bid, fill(9))
    before = lld.disk.stats.snapshot()
    lld.flush()
    assert lld.stats.segments_sealed == 1 and lld.stats.seals_by_delta == 0
    assert lld.disk.stats.writes - before.writes == 1
    assert lld.disk.stats.bytes_written - before.bytes_written > 12 * BLOCK


def test_seal_with_nothing_dirty_writes_only_its_header():
    """Partial flush, then an append that does not fit: the slot is already
    up to date but for the slot the log opens next, so sealing it writes
    the header sector that names it, and its barrier."""
    lld = make_lld(partial_threshold=1.0)
    bids = grown(lld, 14)  # 56 KB of 60: one more block fits, two do not
    lld.flush()
    assert lld.stats.segments_sealed == 0 and lld.stats.partial_segment_writes == 1
    lld.write(bids[0], fill(7, 3000))
    lld.flush()
    before = lld.disk.stats.snapshot()
    lld.write(bids[1], fill(8))  # no room: _make_room seals first
    assert lld.stats.segments_sealed == 1 and lld.stats.seals_by_delta == 1
    assert lld.disk.stats.writes == before.writes + 1
    assert lld.disk.stats.sectors_written == before.sectors_written + 1
    assert lld.disk.stats.barriers == before.barriers + 1
    assert lld.stats.seal_delta_bytes == SECTOR
    assert lld.log.open.index != 0 and lld.read(bids[1]) == fill(8)
    sealed = parse_summary(lld.disk.peek(lld.layout.slot_lba(0), lld.config.summary_sectors))
    assert sealed is not None and len(sealed) == 45
    assert summary_next(lld.disk.peek(lld.layout.slot_lba(0), 1)) == lld.log.open.index


def test_seal_span_says_which_kind_it_was():
    disk = SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock())
    tracer = Tracer(disk.clock)
    lld = LLD(disk, small_config(), tracer=tracer)
    lld.initialize()
    grown(lld, 13)
    lld.flush()  # never flushed: image
    grown(lld, 6)
    lld.flush()  # partial
    grown(lld, 6)
    lld.flush()  # seal over the durable prefix
    seals = [s for s in tracer.spans if s.name == "lld.segment_seal"]
    assert [s.attrs["delta"] for s in seals] == [False, True]


# ----------------------------------------------------------------------
# Same slot, same device, same recovery as the full-image strategy
# ----------------------------------------------------------------------

OPS = st.lists(
    st.one_of(
        # Bursts of appends, so that segments fill and seal between flushes.
        st.tuples(st.just("new"), st.integers(1, 8), st.sampled_from([1500, BLOCK, BLOCK])),
        st.tuples(st.just("over"), st.integers(0, 1 << 16), st.sampled_from([200, 3000, BLOCK])),
        st.tuples(st.just("del"), st.integers(0, 1 << 16)),
        st.tuples(st.just("flush")),
    ),
    min_size=12,
    max_size=60,
)


def play(rig: Rig, ops) -> None:
    lld = rig.lld
    lid = lld.new_list()
    live: list[int] = []
    for op in ops:
        if op[0] == "new":
            for _ in range(op[1]):
                bid = lld.new_block(lid, live[-1] if live else LIST_HEAD)
                lld.write(bid, rig.data(op[2]))
                live.append(bid)
        elif op[0] == "flush":
            lld.flush()
        elif live and op[0] == "over":
            lld.write(live[op[1] % len(live)], rig.data(op[2]))
        elif live:
            lld.delete_block(live.pop(op[1] % len(live)), lid)
    lld.flush()


def outcome_of(device: str, delta: bool, torn: bool, nvram: bool, ops) -> tuple[dict, dict]:
    rig = Rig("seal-delta", device, delta, torn, nvram)
    play(rig, ops)
    state = observe(rig)
    assert state["physical"] == state["written"]  # the funnel invariant
    state["recovered"]["report"].pop("simulated_seconds")
    return state, {"image": state["image"], "recovered": state["recovered"]}


@pytest.mark.parametrize("nvram", [False, True], ids=["disk", "nvram"])
@pytest.mark.parametrize("torn", [False, True], ids=["plain", "torn"])
@pytest.mark.parametrize("device", ["bare", "raid5"])
@given(ops=OPS)
@settings(max_examples=20, deadline=None)
def test_delta_and_image_strategies_leave_the_same_device(device, torn, nvram, ops):
    by_delta, left_by_delta = outcome_of(device, True, torn, nvram, ops)
    by_image, left_by_image = outcome_of(device, False, torn, nvram, ops)
    assert left_by_delta == left_by_image
    counted = by_delta["stats"][-1]
    assert counted.get("seals_by_delta", 0) <= counted["segments_sealed"]
    assert counted["segments_sealed"] == by_image["stats"][-1]["segments_sealed"]
    assert by_delta["written"] <= by_image["written"]
    assert "seals_by_delta" not in by_image["stats"][-1]  # dropped when zero


@pytest.mark.parametrize("trigger", ["threshold", "make_room"])
@pytest.mark.parametrize("device", ["bare", "raid5"])
def test_seals_that_follow_partial_flushes_both_triggers(device, trigger):
    """The two ways a seal finds a durable prefix, spelled out (the property
    above meets them only by chance): ``flush`` at the threshold, and an
    append that does not fit."""
    ops = [("new", 6, BLOCK), ("flush",), ("new", 3, BLOCK), ("flush",)]
    if trigger == "threshold":
        ops += [("new", 3, BLOCK), ("flush",)]
    else:
        ops += [("new", 9, BLOCK)]
    ops += [("over", 2, 3000), ("flush",), ("del", 4)]
    left = {}
    for delta in (True, False):
        state, left[delta] = outcome_of(device, delta, False, False, ops)
        assert state["stats"][-1].get("seals_by_delta", 0) == (1 if delta else 0)
    assert left[True] == left[False]


# ----------------------------------------------------------------------
# A crash inside the seal
# ----------------------------------------------------------------------


def recorded_seals(torn: bool, delta: bool = True):
    """An oracle-driven run whose two seals both follow partial flushes;
    returns the journal range ``[start, end)`` of each seal's writes."""
    config = small_config(torn_write_protection=torn, delta_partial_flush=delta)
    recording = RecordingDisk(SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock()))
    lld = LLD(recording, config)
    lld.initialize()
    driver = OracleDriver(lld, recording)
    rng = random.Random("seal-crash")
    lid = driver.new_list(lld)
    bids, pred = [], LIST_HEAD

    def grow(count: int, size: int = BLOCK) -> None:
        nonlocal pred
        for _ in range(count):
            pred = driver.new_block(lld, lid, pred)
            driver.write(lld, pred, rng.randbytes(size))
            bids.append(pred)

    ranges = []
    # Seal inside a flush, at the threshold.
    grow(5)
    driver.ack(lld, "first")
    grow(3, 1700)
    driver.write(lld, bids[0], rng.randbytes(900))
    driver.ack(lld, "partial")
    grow(5)  # past the 75% threshold
    driver.delete_block(lld, bids.pop(1), lid)
    start = recording.position
    driver.ack(lld, "sealing-flush")
    ranges.append((start, recording.position))
    # Seal by an append that does not fit. What the seal makes durable is
    # everything before that append: a state the client was never told
    # about but every crash past the seal must recover.
    grow(6)
    driver.ack(lld, "first-again")
    grow(5)
    driver.ack(lld, "partial-again")  # 44 KB: still under the threshold
    grow(3)
    driver.write(lld, bids[2], rng.randbytes(700))  # 56.7 KB of 60
    before = driver.freeze("make-room-seal")
    start = recording.position
    driver.write(lld, bids[3], rng.randbytes(BLOCK))
    ranges.append((start, recording.position))
    driver.oracle.points.append(replace(before, seq=recording.position))
    assert lld.stats.segments_sealed == 2
    assert lld.stats.seals_by_delta == (2 if delta else 0)
    driver.ack(lld, "end")
    return config, recording, driver, ranges


def explore_seals(torn: bool, delta: bool = True):
    """Check every crash state that cuts, tears or reorders a seal's writes:
    everything before the seal applied, nothing after it, any of it."""
    config, recording, driver, ranges = recorded_seals(torn, delta)
    enum = CrashStateEnumerator(recording, max_torn_splits_per_write=12)
    checker = LLDCrashChecker(config, driver.oracle)
    full = tuple((event.seq, event.nsectors) for event in recording.events)
    kinds: dict[str, int] = {}
    violations = []
    for state in enum.enumerate():
        plan = state.plan
        if not any(
            plan[:a] == full[:a] and all(a <= seq < b for seq, _ in plan[a:])
            for a, b in ranges
        ):
            continue
        kinds[state.kind] = kinds.get(state.kind, 0) + 1
        violations.extend(checker(enum.materialize(state), state).violations)
    return recording, ranges, kinds, violations


def test_every_crash_state_inside_a_protected_seal_recovers():
    recording, ranges, kinds, violations = explore_seals(torn=True)
    for start, end in ranges:
        # data tail + summary tail | header flip: two epochs, three writes.
        labels = [b.label for b in recording.barriers if start < b.position <= end]
        assert end - start == 3 and labels == ["summary-guard", "segment-image"]
        assert recording.events[end - 1].nsectors == 1
    assert kinds == {"prefix": 8, "torn": 26, "reorder": 2}
    assert violations == []


def test_unprotected_seal_fails_only_where_the_unprotected_image_did():
    """Without ``torn_write_protection`` the summary is rewritten in place
    by one multi-sector write — by a delta seal exactly as by the image it
    replaces — so a crash that tears it, or lands it without the data tail
    beside it in the epoch, is the defect ``TestTornSummaryRegression``
    pins (lost acknowledged records), not a new one. Every cut *between*
    the seal's writes is sound: tail without summary is the flush before,
    tail and summary the sealed state."""
    recording, ranges, kinds, violations = explore_seals(torn=False)
    summaries = set()
    for start, end in ranges:
        assert end - start == 2  # data tail, then the summary, one epoch
        assert recording.events[end - 1].nsectors > 1
        summaries.add(end - 1)
    assert kinds == {"prefix": 6, "torn": 28, "reorder": 2}
    assert violations and {v.invariant for v in violations} == {"acked-durability"}
    # Exactly the states where a summary write landed torn, or whole but
    # ahead of its data tail; none where it did not land at all.
    torn_summary = {
        f"w{seq}+{k}/{recording.events[seq].nsectors}"
        for seq in summaries
        for k in range(1, recording.events[seq].nsectors)
    }
    alone = {f"epoch@{start}:{{{end - 1}}}" for start, end in ranges}
    assert {v.detail for v in violations} == torn_summary | alone
    # The image the delta replaces tears the same way.
    _, _, _, image_violations = explore_seals(torn=False, delta=False)
    assert {(v.kind, v.invariant) for v in image_violations} == {("torn", "acked-durability")}
