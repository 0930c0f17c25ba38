"""EventLog: emission, severity validation, bounded ring, JSONL round-trip,
and the events the layers emit: slot transitions, cleaner starvation, and
a member failure and rebuild on the composed stack."""

import pytest

from repro.ld import LIST_HEAD
from repro.ld.errors import OutOfSpaceError
from repro.obs import attach_events
from repro.obs.events import (
    Event,
    EventLog,
    export_events_jsonl,
    load_events_jsonl,
)
from repro.sim import VirtualClock

from tests.lld.conftest import make_lld


def test_emit_stamps_virtual_time_and_payload():
    clock = VirtualClock()
    log = EventLog(clock)
    clock.advance(1.5)
    event = log.emit("volume.member_failed", severity="warn", member=2)
    assert event.t == 1.5
    assert event.layer == "volume"
    assert event.payload == {"member": 2}
    assert log.emitted == 1


def test_empty_log_is_truthy():
    # The choke-point guard is `ev = self.events` / `if ev:` — an empty
    # log being falsy would silently swallow the first event of a run.
    log = EventLog(VirtualClock())
    assert len(log) == 0
    assert bool(log)


def test_unknown_severity_raises():
    log = EventLog(VirtualClock())
    with pytest.raises(ValueError, match="unknown severity"):
        log.emit("x.y", severity="fatal")


def test_explicit_timestamp_and_clock_default():
    clock = VirtualClock()
    log = EventLog(clock)
    clock.advance(2.0)
    assert log.emit("a.b").t == 2.0
    assert log.emit("a.b", t=3.25).t == 3.25


def test_ring_is_bounded_and_counts_drops():
    log = EventLog(VirtualClock(), capacity=4)
    for i in range(10):
        log.emit("lld.cleaner_pass", slot=i)
    assert len(log) == 4
    assert log.emitted == 10
    assert log.dropped == 6
    assert [e.payload["slot"] for e in log] == [6, 7, 8, 9]
    with pytest.raises(ValueError):
        EventLog(VirtualClock(), capacity=0)


def test_select_filters_compose():
    log = EventLog(VirtualClock())
    log.emit("volume.member_failed", severity="warn", t=1.0)
    log.emit("lld.cleaner_pass", severity="debug", t=2.0)
    log.emit("volume.rebuild_started", severity="info", t=3.0)
    assert [e.name for e in log.select(layer="volume")] == [
        "volume.member_failed",
        "volume.rebuild_started",
    ]
    assert len(log.select(min_severity="warn")) == 1
    assert len(log.select(since=2.5)) == 1
    assert len(log.select(layer="volume", name="volume.rebuild_started")) == 1


def test_clear_keeps_the_lifetime_count():
    log = EventLog(VirtualClock())
    log.emit("a.x")
    log.emit("a.x")
    log.emit("b.y")
    assert [event.name for event in log] == ["a.x", "a.x", "b.y"]
    log.clear()
    assert len(log) == 0
    assert log.emitted == 3  # lifetime total survives a clear


def test_jsonl_round_trip(tmp_path):
    log = EventLog(VirtualClock())
    log.emit("volume.member_failed", severity="error", t=1.25, member=2)
    log.emit("volume.rebuild_started", t=1.5, member=2, rows=25)
    path = tmp_path / "events.jsonl"
    export_events_jsonl(log, path)
    loaded = load_events_jsonl(path)
    assert [e.as_dict() for e in loaded] == [e.as_dict() for e in log]
    assert loaded[0].severity == "error"
    assert loaded[0].payload["member"] == 2


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"t": 1.0, "name": "a.b"}\n\n\n')
    loaded = load_events_jsonl(path)
    assert len(loaded) == 1
    assert loaded[0].severity == "info"  # defaulted
    assert isinstance(loaded[0], Event)


# ----------------------------------------------------------------------
# lld.slot: one event per slot state change, from the slot table
# ----------------------------------------------------------------------


def _slot_script(events):
    """A 4 MB LLD (one checkpoint slot) that fills a few segments, kills
    most of the first one's blocks, cleans it and flushes; ``events``
    (an EventLog or None) attached from the start. Returns the LLD, its
    recording disk and the cleaned slot."""
    from repro.crashsim import RecordingDisk
    from repro.disk import SimulatedDisk, fast_test_disk
    from repro.lld import LLD

    from tests.lld.conftest import small_config

    disk = RecordingDisk(SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock()))
    lld = LLD(disk, small_config())
    attach_events(events, lld)
    lld.initialize()
    lid, pred, bids = lld.new_list(), LIST_HEAD, []
    for i in range(40):
        pred = lld.new_block(lid, pred)
        lld.write(pred, bytes([i + 1]) * 4096)
        bids.append(pred)
    lld.flush()
    victim = lld.state.blocks[bids[0]].segment
    for bid in bids:
        if lld.state.blocks[bid].segment == victim and bid != bids[0]:
            lld.write(bid, b"n" * 4096)
    lld.flush()
    assert lld.clean(1) == 1 and lld.slots.of[victim] == "retired"
    lld.write(bids[-1], b"z" * 4096)
    lld.flush()  # the re-logged records are durable: the scrub follows
    return lld, disk, victim


def test_slot_events_follow_one_slot_through_a_clean():
    log = EventLog(VirtualClock(), capacity=100_000)
    lld, _disk, victim = _slot_script(log)
    moves = [
        (e.payload["old"], e.payload["new"], e.payload["cause"])
        for e in log.select(name="lld.slot")
        if e.payload["slot"] == victim
    ]
    assert moves == [
        ("free", "open", "open"),
        ("open", "sealed", "seal"),
        ("sealed", "retired", "clean"),
        ("retired", "free", "scrub"),
    ]
    assert lld.slots.of[victim] == "free"
    times = [e.t for e in log.select(name="lld.slot")]
    assert times == sorted(times) and all(
        e.severity == "debug" for e in log.select(name="lld.slot")
    )


def test_slot_events_do_not_change_what_the_disk_sees():
    with_sink, disk_a, _ = _slot_script(EventLog(VirtualClock(), capacity=100_000))
    without, disk_b, _ = _slot_script(None)
    assert disk_a.events == disk_b.events and disk_a.barriers == disk_b.barriers
    assert disk_a.clock.now == disk_b.clock.now
    assert with_sink.stats.as_dict() == without.stats.as_dict()


# ----------------------------------------------------------------------
# lld.cleaner_starved: one event before each raise of the cleaner
# ----------------------------------------------------------------------


def _starved(log):
    return log.select(name="lld.cleaner_starved")


def test_cleaner_starved_precedes_each_raise_of_the_cleaner():
    """Fill a small LLD until it refuses a write, then ask its cleaner for
    more free segments than the log can give. Admission control's refusal
    is not starvation and logs nothing; each raise of ``ensure_free`` —
    no progress, then no victim at all — comes after exactly one
    ``lld.cleaner_starved`` event, stamped now, with the target and the
    free segments the cleaner was left with."""
    lld = make_lld(capacity_mb=1)
    log = attach_events(EventLog(lld.disk.clock), lld)
    lid, pred = lld.new_list(), LIST_HEAD
    with pytest.raises(OutOfSpaceError, match="exceeds free space"):
        while True:
            pred = lld.new_block(lid, pred)
            lld.write(pred, b"f" * 4096)
    assert not _starved(log)

    for target in (lld.free_segment_count() + 1, lld.layout.segment_count):
        before = len(_starved(log))
        with pytest.raises(OutOfSpaceError, match="cannot produce enough free segments"):
            lld.cleaner.ensure_free(target)
        starved = _starved(log)[before:]
        assert len(starved) == 1 and log.events[-1] is starved[0]
        event = starved[0]
        assert event.severity == "error" and event.t == lld.disk.clock.now
        assert event.payload["target"] == target
        assert event.payload["free_segments"] == lld.free_segment_count() < target

    empty = make_lld(capacity_mb=1)
    log = attach_events(EventLog(empty.disk.clock), empty)
    target = empty.layout.segment_count  # the open segment is never free
    with pytest.raises(OutOfSpaceError, match="no cleanable segments"):
        empty.cleaner.ensure_free(target)
    [event] = _starved(log)
    assert log.events[-1] is event and event.severity == "error"
    assert event.payload["target"] == target
    assert event.payload["free_segments"] == empty.free_segment_count() == target - 1


# ----------------------------------------------------------------------
# The composed stack: a member failure and its rebuild, as events
# ----------------------------------------------------------------------


def test_degraded_rebuild_reports_each_transition_once_when_it_happens():
    """``degraded_rebuild`` on the benchmark's stack (MINIX -> LDServer ->
    LLD -> RAID-5), with an event log attached after set-up: the member
    failure, the rebuild's start and its completion each appear once, in
    that order, stamped with the simulated time the stream made them
    happen, and the decile progress events between them rise strictly."""
    from benchmarks.e2e.stack import Stack
    from benchmarks.e2e.workloads import DegradedRebuild

    workload = DegradedRebuild(1993, 0.1)
    stack = Stack(group_commit=workload.group_commit)
    workload.setup(stack)
    volume = stack.volume
    log = attach_events(EventLog(stack.clock, capacity=100_000), stack.filesystems["fs"])
    at = {}  # transition -> the clock before and after the step that made it
    for op in workload.steps():
        before, rebuilding = stack.clock.now, volume.rebuild_active
        workload.step(op)
        if op[0] in ("fail", "replace"):
            at[op[0]] = (before, stack.clock.now)
        elif rebuilding and not volume.rebuild_active:
            at["done"] = (before, stack.clock.now)
    assert not workload.tally.failures
    assert at.keys() == {"fail", "replace", "done"}

    transitions = [e for e in log.select(layer="volume") if e.name != "volume.rebuild_progress"]
    assert [e.name for e in transitions] == [
        "volume.member_failed",
        "volume.rebuild_started",
        "volume.rebuild_completed",
    ]
    failed, started, completed = transitions
    assert all(e.payload["member"] == DegradedRebuild.MEMBER for e in transitions)
    # A marker takes no simulated time: its event is stamped with the clock at it.
    assert failed.t == at["fail"][0] == at["fail"][1]
    assert started.t == at["replace"][0] == at["replace"][1]
    assert at["done"][0] <= completed.t <= at["done"][1]

    progress = log.select(name="volume.rebuild_progress")
    fractions = [e.payload["progress"] for e in progress]
    assert fractions and all(a < b for a, b in zip(fractions, fractions[1:]))
    assert all(0.0 < f < 1.0 for f in fractions)
    assert all(started.t <= e.t <= completed.t for e in progress)
