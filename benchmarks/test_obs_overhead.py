"""Observability overhead: tracing must be free when off, cheap when on.

Every choke point in the FS → LD → LLD → disk stack now carries a
``tracer`` hook written as ``tr = self.tracer; with tr.span(...) if tr
else NULL_SPAN:`` — one attribute load and a truth test when tracing is
off, no span objects, no kwargs evaluation. This benchmark proves the
disabled path adds under 2% to the write-path benchmark:

* **per-site cost**, measured with a tight microbenchmark of the exact
  guard idiom (detached ``None`` vs an attached disabled ``Tracer``),
* **times the guard hits** the fsync workload actually executes (counted
  exactly: with tracing on, every guard hit emits one span), and
* **divided by the workload's CPU time** — giving the disabled-path
  overhead fraction directly, immune to the scheduling noise that
  dominates end-to-end wall-clock deltas on shared machines.

End-to-end paired timings (same round, adjacent runs, balanced order)
are reported alongside as evidence. Tracing also never advances the
virtual clock or adds disk I/O, so all simulated figures must stay
byte-identical in every mode; and attaching a tracer must not grow new
attributes on un-instrumented hot objects (that would un-share their
CPython instance dicts and slow every attribute access — a real
regression this benchmark caught).

A fourth **monitored** arm runs the full continuous-monitoring bundle
(:class:`~repro.obs.Monitor`: series sampling, event log, health rules,
one ``tick()`` per fsync) and is priced the same analytic way: measured
per-unit costs (idle tick, firing sample+check, event emit) times exact
unit counts. What is gated is that cost *per fsync*, in bare ``dict.get``
upserts timed in the same loop (:func:`monitoring_cost`,
``MONITOR_COST_UPSERTS``) — a ratio of two in-process figures, which
moves with the monitoring code and with nothing else. Its share of the
workload's CPU, the old ``< 3%`` gate, is still computed and written to
the report, ungated: the share grows whenever the write path it is a
share of gets cheaper (11-18% in the seal-by-delta PR), and had come to
fail about one run in three (0.0316, 0.0324) with the monitor untouched.
The simulated-figure byte-identity requirement and "a clean run reports
zero warn/critical findings" hold as before.

Two smaller checks ride along. Stats bookkeeping
(``DiskStats.record_request``, which also bounds the LLD write counters)
is gated against an in-process reference that does not move when the
write path gets faster: one call may cost at most
``STATS_COST_UPSERTS`` bare ``dict.get`` upserts, both timed in the same
loop (:func:`stats_cost`, asserted by its own ``test_stats_cost``). Its
share of raw-LD write-path CPU — the old gate, which every write-path
speed-up pushed over its limit — is still computed and written to the
report, ungated. And because the fsync workload never reads more than
one block at a time, every mode's stack finishes with the same cold
multi-block ``fs.read`` pass (:func:`read_back`), so the byte-identity
requirement also covers the demand gather and its ``fs.demand_read``
span.

Results land in ``BENCH_obs_overhead.json``; a sample Chrome trace of
one round (~60 fsyncs) lands in ``trace.json``.
"""

import gc
import json
import statistics
import time
from pathlib import Path

from repro.bench import render_table, write_json_report
from repro.bench.builders import build_minix_lld, fresh_disk
from repro.disk.stats import DiskStats
from repro.ld.hints import LIST_HEAD
from repro.lld import LLD, LLDConfig
from repro.obs import NULL_SPAN, Tracer, attach_tracer, export_chrome_trace, registry_of
from repro.obs.events import EventLog
from repro.obs.health import Monitor
from repro.sim import VirtualClock
from benchmarks.conftest import emit

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs_overhead.json"
TRACE_PATH = Path(__file__).resolve().parent.parent / "trace.json"

MODES = ("none", "disabled", "enabled", "monitored")
ROUNDS = 12
FILE_BYTES = 1024
MONITOR_INTERVAL = 0.5  # virtual seconds between monitoring samples (2 Hz)
#: ``record_request`` is a method call, two attribute ``+=`` and two
#: histogram upserts: 6.6-8.2 bare local-variable upserts over eight runs
#: on a noisy box. Half as much again is the limit.
STATS_COST_UPSERTS = 12.0
#: Continuous monitoring, per fsync: one idle tick, a twentieth of a firing
#: tick (sample every series, run every rule) and the events emitted —
#: 81-124 bare upserts over thirteen runs on a noisy box, median 100 (and
#: 151 in a fourteenth whose every timing had doubled). Twice the median is
#: the limit: what the old 3% line allowed when it was drawn.
MONITOR_COST_UPSERTS = 200.0
READ_BACK_BYTES = 256 * 1024
READ_BACK_REQUEST = 16 * 1024


#: Enabled-path cost per span site of the pre-``slots``, pre-freelist
#: tracer this file used to carry as a second in-process arm (a Span with
#: a per-instance ``__dict__``, a fresh context object per ``span()``):
#: its last committed figure, frozen — kept in the report for the record,
#: nothing is compared against it (DESIGN.md §11).
FROZEN_ENABLED_BEFORE_LAZY_ALLOC = {"commit": "437b929", "ns": 2360.9402000147384}


class _GuardSite:
    """Replica of the instrumented choke-point idiom, for timing."""

    __slots__ = ("tracer",)

    def __init__(self, tracer) -> None:
        self.tracer = tracer

    def op(self) -> None:
        tr = self.tracer
        with tr.span("obs.probe", i=1) if tr else NULL_SPAN:
            pass


def guard_ns(tracer, iterations: int = 100_000, reps: int = 5) -> float:
    """Best-of-reps cost of one guarded choke point, in nanoseconds."""
    site = _GuardSite(tracer)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(iterations):
            site.op()
        best = min(best, time.perf_counter() - t0)
    return best / iterations * 1e9


def enabled_guard_ns(iterations: int = 100_000, reps: int = 5) -> float:
    """Enabled-path cost per span site (fresh tracer per rep).

    A new tracer each rep keeps the finished-span list from growing
    across reps; within one rep its amortized append is part of the cost
    being measured.
    """
    best = float("inf")
    for _ in range(reps):
        site = _GuardSite(Tracer(VirtualClock(), enabled=True))
        t0 = time.perf_counter()
        for _ in range(iterations):
            site.op()
        best = min(best, time.perf_counter() - t0)
    return best / iterations * 1e9


def build_stack(spec, mode: str):
    fs, lld = build_minix_lld(spec)
    tracer = None
    monitor = None
    if mode in ("disabled", "enabled"):
        tracer = Tracer(lld.disk.clock, enabled=(mode == "enabled"))
        attach_tracer(tracer, fs, lld)
    elif mode == "monitored":
        monitor = Monitor(registry_of(fs), lld.disk.clock, interval=MONITOR_INTERVAL)
        monitor.attach(fs, lld)
    return fs, lld, tracer, monitor


def run_chunk(stack, round_no: int, count: int) -> float:
    """One round of the fsync workload; returns its CPU seconds.

    Each mode's stack replays the identical round, so per-round pairs are
    directly comparable (the ``monitor`` branch test is executed in every
    mode; only the monitored stack has one to tick). Files are removed
    again after the timed region (identical untimed work for every mode)
    to keep i-node and segment pressure flat across rounds.
    """
    fs, lld, _tracer, monitor = stack
    gc.collect()
    gc.disable()
    t0 = time.process_time()
    for i in range(count):
        fd = fs.open(f"/r{round_no}f{i}", create=True)
        fs.write(fd, bytes([i % 251 + 1]) * FILE_BYTES)
        fs.close(fd)
        fs.sync()
        if monitor is not None:
            monitor.tick()
    elapsed = time.process_time() - t0
    gc.enable()
    for i in range(count):
        fs.unlink(f"/r{round_no}f{i}")
    fs.sync()
    return elapsed


def read_back(fs) -> None:
    """A cold pass of multi-block reads: four zones per ``fs.read``."""
    fd = fs.open("/readback", create=True)
    fs.write(fd, bytes(range(256)) * (READ_BACK_BYTES // 256))
    fs.drop_caches()
    fs.seek(fd, 0)
    for _ in range(READ_BACK_BYTES // READ_BACK_REQUEST):
        assert len(fs.read(fd, READ_BACK_REQUEST)) == READ_BACK_REQUEST
    fs.close(fd)


def stats_cost(spec) -> dict:
    """What the always-on stats counters cost, two ways.

    ``record_request`` runs once per disk request; the LLD write counters
    (seven ``+=`` per logical write) are bounded by the same
    microbenchmark shape. ``upserts_per_call`` prices one call in bare
    ``dict.get`` upserts timed in the same loop — a ratio of two
    in-process figures, so it moves with the bookkeeping and with nothing
    else. ``fraction_of_write_cpu`` is the analytic share of an LD fsync
    loop (``new_block`` + ``write`` + ``flush`` per op, no file system
    diluting it): per-call figure times the exact request+write count over
    the loop's CPU — informative, but it grows whenever the write path
    itself gets cheaper.
    """
    lld = LLD(
        fresh_disk(spec),
        LLDConfig(
            segment_size=spec.segment_size, block_size=spec.block_size, checkpoint_slots=2
        ),
    )
    lld.initialize()
    payload = bytes(range(256)) * (spec.block_size // 256)
    lid = lld.new_list()
    prev = LIST_HEAD
    gc.collect()
    gc.disable()
    t0 = time.process_time()
    for _ in range(spec.small_file_count(1000)):
        prev = bid = lld.new_block(lid, prev)
        lld.write(bid, payload)
        lld.flush()
    write_cpu = time.process_time() - t0
    gc.enable()
    probe = DiskStats()
    sizes: dict[int, int] = {}
    iterations = 50_000
    best = best_upsert = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(iterations):
            probe.record_request(8, True)
        best = min(best, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for _ in range(iterations):
            sizes[8] = sizes.get(8, 0) + 1
        best_upsert = min(best_upsert, time.perf_counter() - t0)
    calls = lld.disk.stats.requests + lld.stats.blocks_written
    return {
        "record_request_ns": best / iterations * 1e9,
        "dict_upsert_ns": best_upsert / iterations * 1e9,
        "upserts_per_call": best / best_upsert,
        "fraction_of_write_cpu": best / iterations * calls / write_cpu,
    }


def monitoring_cost(monitor, ticks: int, fires: int, events: int, reps: int = 5) -> dict:
    """What continuous monitoring costs per fsync, priced two ways.

    Three units, best of ``reps``: an *idle* tick (clock inside the
    interval), a *firing* one (collect, record every series, run every
    rule) and one structured event emission into a bounded log; a round of
    ``ticks`` fsyncs pays ``ticks`` idle ticks (conservatively charged on
    firing ticks too), ``fires`` firing ones and ``events`` emissions.
    ``upserts_per_fsync`` prices the per-fsync sum in bare ``dict.get``
    upserts timed in the same loop, as :func:`stats_cost` prices
    ``record_request``: it does not move when the write path gets faster.
    """
    log = EventLog(VirtualClock(), capacity=1024)
    sizes: dict[int, int] = {}
    monitor.sample_now()  # pin the sample time at the current clock value
    idle = fire = emitted = upsert = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(50_000):
            monitor.tick()
        idle = min(idle, (time.perf_counter() - t0) / 50_000)
        t0 = time.perf_counter()
        for _ in range(200):
            monitor.sample_now()
        fire = min(fire, (time.perf_counter() - t0) / 200)
        t0 = time.perf_counter()
        for i in range(100_000):
            log.emit("obs.probe", severity="debug", slot=i)
        emitted = min(emitted, (time.perf_counter() - t0) / 100_000)
        t0 = time.perf_counter()
        for _ in range(50_000):
            sizes[8] = sizes.get(8, 0) + 1
        upsert = min(upsert, (time.perf_counter() - t0) / 50_000)
    per_fsync = (idle * ticks + fire * fires + emitted * events) / ticks
    return {
        "tick_idle_ns": idle * 1e9,
        "sample_and_check_ns": fire * 1e9,
        "event_emit_ns": emitted * 1e9,
        "dict_upsert_ns": upsert * 1e9,
        "ns_per_fsync": per_fsync * 1e9,
        "upserts_per_fsync": per_fsync / upsert,
    }


def descendants(spans, root):
    """All spans transitively parented under ``root``."""
    children = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append(s)
    out = []
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for child in children.get(node.span_id, ()):
            out.append(child)
            frontier.append(child)
    return out


def test_obs_overhead(spec):
    count = max(16, spec.small_file_count(600))
    stacks = {mode: build_stack(spec, mode) for mode in MODES}

    # Attaching must not grow attributes on un-instrumented objects: a
    # new attribute would un-share the instance dict of the hottest
    # object in the simulation and tax every access on it.
    fs_enabled, lld_enabled, tracer_enabled, _ = stacks["enabled"]
    assert not hasattr(fs_enabled, "tracer")
    assert fs_enabled.store.tracer is tracer_enabled
    assert lld_enabled.tracer is tracer_enabled
    assert lld_enabled.disk.tracer is tracer_enabled
    fs_mon, lld_mon, _, monitor = stacks["monitored"]
    assert not hasattr(fs_mon, "events")
    assert not hasattr(fs_mon.store, "events")
    assert lld_mon.events is monitor.events

    for mode in MODES:
        run_chunk(stacks[mode], 999, count)  # warmup round, discarded
    tracer_enabled.clear()

    times = {mode: [] for mode in MODES}
    sample_spans = None
    guard_hits = None
    fires_per_round = None
    events_per_round = None
    for round_no in range(ROUNDS):
        # Balanced order: position-in-round bias cancels across rounds.
        order = MODES if round_no % 2 == 0 else tuple(reversed(MODES))
        checks_before = monitor.checks
        emitted_before = monitor.events.emitted
        for mode in order:
            times[mode].append(run_chunk(stacks[mode], round_no, count))
        if round_no == 0:
            # Every guard hit emits exactly one span when tracing is on,
            # so this chunk's span count *is* the per-round guard count.
            sample_spans = list(tracer_enabled.spans)
            guard_hits = len(sample_spans)
            # Same exact-count discipline for the monitoring arm: how
            # many ticks fired (sampled + ran the rules) and how many
            # events the stack emitted in one round.
            fires_per_round = monitor.checks - checks_before
            events_per_round = monitor.events.emitted - emitted_before
        tracer_enabled.clear()

    # The analytic bound: measured per-site cost delta x exact hit count.
    none_ns = guard_ns(None)
    disabled_ns = guard_ns(Tracer(VirtualClock(), enabled=False))
    enabled_ns = enabled_guard_ns()
    per_site_delta_ns = max(0.0, disabled_ns - none_ns)
    workload_cpu = statistics.median(times["none"])
    disabled_overhead = per_site_delta_ns * 1e-9 * guard_hits / workload_cpu

    # Same analytic accounting for the enabled-monitoring arm: exact unit
    # counts of one round times measured unit costs. The share of the
    # workload's CPU is reported; the per-fsync cost is what is gated.
    monitoring = monitoring_cost(monitor, count, fires_per_round, events_per_round)
    idle_ns = monitoring["tick_idle_ns"]
    fire_ns = monitoring["sample_and_check_ns"]
    event_ns = monitoring["event_emit_ns"]
    monitored_overhead = monitoring["ns_per_fsync"] * 1e-9 * count / workload_cpu

    # End-to-end paired evidence (noise-dominated on shared machines,
    # hence reported rather than asserted against the 2%/3% lines).
    ratio = {
        mode: statistics.median(
            t / n for t, n in zip(times[mode], times["none"])
        )
        for mode in MODES
    }

    # Observability observes the simulation; it must never perturb it —
    # the demand gather of a multi-block read included.
    for mode in MODES:
        read_back(stacks[mode][0])
    assert any(s.name == "fs.demand_read" for s in tracer_enabled.spans)
    tracer_enabled.clear()
    base_fs, base_lld, _, _ = stacks["none"]
    for mode in ("disabled", "enabled", "monitored"):
        fs, lld, tracer, _mon = stacks[mode]
        assert lld.disk.clock.now == base_lld.disk.clock.now
        assert lld.disk.stats.as_dict() == base_lld.disk.stats.as_dict()
        assert lld.stats.as_dict() == base_lld.stats.as_dict()
        assert fs.store.stats.as_dict() == base_fs.store.stats.as_dict()
    assert not stacks["disabled"][2].spans

    # A clean run must be clean: rules evaluated, zero warn/critical.
    verdicts = monitor.check()
    assert verdicts, "health rules produced no verdicts on a live stack"
    assert not monitor.findings, [f.as_dict() for f in monitor.findings]
    assert monitor.series.samples_taken > 0
    assert fires_per_round > 0

    # One fsync -> a causally-linked span tree across all four layers.
    syncs = [s for s in sample_spans if s.name == "fs.sync"]
    assert syncs
    best = max(syncs, key=lambda s: len(descendants(sample_spans, s)))
    below = descendants(sample_spans, best)
    names = {s.name for s in below}
    assert len(below) >= 3
    assert "lld.data_tail_write" in names
    assert "lld.summary_write" in names
    assert "disk.barrier" in names
    for child in below:
        assert child.start >= best.start
        if child.end is not None:
            assert child.end <= best.end

    emit(f"wrote {export_chrome_trace(sample_spans, TRACE_PATH)}")

    rows = {
        mode: {
            "CPU median (ms)": statistics.median(times[mode]) * 1000.0,
            "CPU min (ms)": min(times[mode]) * 1000.0,
            "Paired ratio": ratio[mode],
        }
        for mode in MODES
    }
    emit(
        render_table(
            f"Observability overhead — {count} fsyncs/round, {ROUNDS} rounds",
            ["CPU median (ms)", "CPU min (ms)", "Paired ratio"],
            rows,
            note=(
                f"guard site: {none_ns:.0f} ns detached, {disabled_ns:.0f} ns "
                f"disabled, {enabled_ns:.0f} ns enabled; "
                f"{guard_hits} hits/round -> disabled path adds "
                f"{disabled_overhead * 100:.3f}%; monitoring: {idle_ns:.0f} ns "
                f"idle tick x {count}, {fire_ns:.0f} ns firing tick x "
                f"{fires_per_round}, {event_ns:.0f} ns emit x "
                f"{events_per_round} -> {monitoring['ns_per_fsync']:.0f} ns = "
                f"{monitoring['upserts_per_fsync']:.1f} dict upserts per fsync "
                f"(limit {MONITOR_COST_UPSERTS:.0f}), {monitored_overhead * 100:.3f}% "
                f"of the workload (ungated)"
            ),
        )
    )

    report = {
        "benchmark": "obs_overhead",
        "scale": spec.scale,
        "rounds": ROUNDS,
        "files_per_round": count,
        "file_bytes": FILE_BYTES,
        "guard_site_ns": {
            "none": none_ns,
            "disabled": disabled_ns,
            "enabled": enabled_ns,
        },
        "frozen_enabled_before_lazy_alloc": FROZEN_ENABLED_BEFORE_LAZY_ALLOC,
        "guard_hits_per_round": guard_hits,
        "disabled_overhead_fraction": disabled_overhead,
        "monitoring_site_ns": {
            "tick_idle": idle_ns,
            "sample_and_check": fire_ns,
            "event_emit": event_ns,
        },
        "monitor_interval": MONITOR_INTERVAL,
        "monitor_ticks_per_round": count,
        "monitor_fires_per_round": fires_per_round,
        "monitor_events_per_round": events_per_round,
        "monitor_series_count": len(monitor.series.series),
        "monitor_cost_per_fsync": {
            "ns": monitoring["ns_per_fsync"],
            "dict_upsert_ns": monitoring["dict_upsert_ns"],
            "upserts": monitoring["upserts_per_fsync"],
            "upserts_limit": MONITOR_COST_UPSERTS,
        },
        "monitored_overhead_fraction": monitored_overhead,
        "monitor_findings_clean": not monitor.findings,
        "end_to_end_median_ratio": ratio,
        "cpu_seconds_median": {
            mode: statistics.median(times[mode]) for mode in MODES
        },
        "sim_time_identical": True,
        "disk_counters_identical": True,
        "sample_span_count": len(sample_spans),
        "fsync_descendant_count": len(below),
    }
    emit(f"wrote {write_json_report(REPORT_PATH, report)}")

    # Acceptance: the disabled path adds < 2% to the write-path workload;
    # the full monitoring bundle (series + events + health) costs a bounded
    # number of dict upserts per fsync, whatever share of the write path
    # that is this year.
    assert disabled_overhead < 0.02
    assert monitoring["upserts_per_fsync"] < MONITOR_COST_UPSERTS


def test_stats_cost(spec):
    """One ``record_request`` costs at most ``STATS_COST_UPSERTS`` upserts.

    Its own test: a wall-clock bound must not gate the simulated-figure
    identity checks of :func:`test_obs_overhead`. The figures join that
    test's report (or start one when run alone).
    """
    cost = stats_cost(spec)
    emit(
        f"record_request {cost['record_request_ns']:.0f} ns = "
        f"{cost['upserts_per_call']:.1f} dict upserts; stats counters "
        f"{cost['fraction_of_write_cpu']:.1%} of raw-LD write CPU (ungated)"
    )
    report = json.loads(REPORT_PATH.read_text()) if REPORT_PATH.exists() else {}
    report["stats_cost"] = cost
    emit(f"wrote {write_json_report(REPORT_PATH, report)}")
    assert cost["upserts_per_call"] < STATS_COST_UPSERTS
