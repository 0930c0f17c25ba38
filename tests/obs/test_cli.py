"""The ``python -m repro.obs`` dashboard: layer attribution from a trace."""

from repro.obs import Tracer, export_chrome_trace, export_jsonl
from repro.obs.__main__ import main, render_dashboard, self_times
from repro.sim import VirtualClock


def make_trace():
    clock = VirtualClock()
    tracer = Tracer(clock)
    with tracer.span("fs.sync"):
        clock.advance(0.010)  # 10 ms of fs-exclusive work
        with tracer.span("lld.flush"):
            clock.advance(0.005)
            with tracer.span("disk.write", sectors=8):
                clock.advance(0.030)
        tracer.instant("disk.barrier")
    return tracer.spans


def test_self_times_are_exclusive():
    spans = make_trace()
    exclusive = self_times(spans)
    by_name = {s.name: exclusive[s.span_id] for s in spans}
    assert abs(by_name["fs.sync"] - 0.010) < 1e-12
    assert abs(by_name["lld.flush"] - 0.005) < 1e-12
    assert abs(by_name["disk.write"] - 0.030) < 1e-12
    # Exclusive times sum to the wall window of the root span.
    root = next(s for s in spans if s.parent_id is None)
    assert abs(sum(exclusive.values()) - root.duration) < 1e-12


def test_dashboard_attributes_time_to_layers():
    text = render_dashboard(make_trace())
    # The disk dominates (30 of 45 ms), so it ranks first.
    layer_section = text.split("per-op latency")[0]
    disk_line = next(l for l in layer_section.splitlines() if l.startswith("disk"))
    assert "66.7%" in disk_line
    assert "fs" in layer_section and "lld" in layer_section
    assert "1 root span(s)" in text
    assert "3 levels" in text


def test_dashboard_counts_commits_in_flight():
    clock = VirtualClock()
    tracer = Tracer(clock)
    for inflight in (0.040, 0.0, 0.025):
        with tracer.span("sched.group_commit", intents=2, forced=False) as span:
            clock.advance(0.001)  # issuing the writes
            span.attrs["complete_at"] = clock.now + inflight
        clock.advance(0.001)
    # Reads delivered later than dispatched: one alone, a batch that parked
    # three, and one served at once.
    for name, inflight, attrs in (
        ("sched.dispatch", 0.010, {"kind": "read"}),
        ("sched.read_batch", 0.004, {"count": 5}),
        ("sched.dispatch", 0.0, {"kind": "read"}),
    ):
        with tracer.span(name, **attrs) as span:
            span.attrs["complete_at"] = clock.now + inflight
            if name == "sched.read_batch":
                span.attrs["parked"] = 3
    with tracer.span("sched.idle_advance"):
        clock.advance(0.015)
    text = render_dashboard(tracer.spans)
    section = text.split("== commits and reads in flight")[1]
    rows = {l.split()[0]: l.split()[1:] for l in section.splitlines() if l.startswith("sched.")}
    assert rows["sched.group_commits"] == ["3", "-"]
    assert rows["sched.commits_deferred"] == ["2", "65.000"]
    assert rows["sched.reads_parked"] == ["4", "22.000"]
    assert rows["sched.idle_advances"] == ["1", "15.000"]
    # A trace without commits or parked reads has no such section.
    assert "in flight" not in render_dashboard(make_trace())


def test_dashboard_handles_empty_trace():
    assert "empty trace" in render_dashboard([])


def test_cli_handles_empty_trace_file(tmp_path, capsys):
    path = tmp_path / "empty.json"
    export_chrome_trace([], path)
    assert main([str(path)]) == 0
    assert "empty trace: no spans" in capsys.readouterr().out


def test_cli_handles_instant_only_trace(tmp_path, capsys):
    clock = VirtualClock()
    tracer = Tracer(clock)
    with tracer.span("disk.write"):
        tracer.instant("disk.barrier")
        tracer.instant("lld.aru_boundary")
    path = tmp_path / "instants.json"
    # The clock never advanced: every span is zero-duration. The dashboard
    # must not divide by the zero time window or crash ranking the ops.
    export_chrome_trace(tracer.spans, path)
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "3 spans" in out
    assert "disk.barrier" in out
    assert "window 0.000 ms" in out


def test_cli_handles_unknown_layer_spans(tmp_path, capsys):
    clock = VirtualClock()
    tracer = Tracer(clock)
    with tracer.span("mystery_op"):  # no dot: layer falls back to full name
        clock.advance(0.002)
        with tracer.span("custom.step"):
            clock.advance(0.001)
    path = tmp_path / "unknown.json"
    export_chrome_trace(tracer.spans, path)
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    layer_section = out.split("per-op latency")[0]
    assert "mystery_op" in layer_section
    assert "custom" in layer_section


def test_cli_main_renders_both_formats(tmp_path, capsys):
    spans = make_trace()
    chrome = tmp_path / "trace.json"
    jsonl = tmp_path / "trace.jsonl"
    export_chrome_trace(spans, chrome)
    export_jsonl(spans, jsonl)
    for path in (chrome, jsonl):
        assert main([str(path), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "per-layer attribution" in out
        assert "disk.write" in out
