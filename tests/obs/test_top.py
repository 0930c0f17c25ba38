"""ldtop rendering and the offline ``python -m repro.obs.top`` CLI."""

import json

import pytest

from repro.obs import MetricsRegistry, Monitor
from repro.obs.events import EventLog, export_events_jsonl
from repro.obs.hist import LatencyHistogram
from repro.obs.series import SeriesRecorder, export_series_jsonl
from repro.obs.top import _load_metrics, main, render_monitor, render_top
from repro.sim import VirtualClock


def sample_payload():
    hist = LatencyHistogram()
    for v in (0.010, 0.020, 0.080):
        hist.record(v)
    return {
        "volume": {
            "reads": 3,
            "live_disks": 3,
            "n_disks": 4,
            "rebuild_active": False,
            "read_latency_hist": hist.as_dict(),
        },
        "disk": {"reads": 12, "writes": 7},
    }


def make_recorder():
    clock = VirtualClock()
    recorder = SeriesRecorder(clock, interval=0.1)
    counter = iter(range(0, 100, 10))
    recorder.track("disk.reads", lambda: next(counter))
    for _ in range(4):
        clock.advance(0.2)
        recorder.tick()
    return recorder


def test_render_top_shows_all_sections():
    events = EventLog()
    events.emit("volume.member_failed", severity="warn", t=0.5, member=1)
    text = render_top(
        sample_payload(),
        series=make_recorder(),
        events=events,
        findings=[],
    )
    assert "ldtop —" in text
    assert "== rates (windowed, per simulated second) ==" in text
    assert "disk.reads" in text
    assert "== latency quantiles (bounded histograms, ms simulated) ==" in text
    assert "volume.read_latency_hist" in text
    assert "== health ==" in text
    assert "all ok" in text
    assert "== recent events" in text
    assert "volume.member_failed" in text


def test_render_top_falls_back_to_totals_without_series():
    text = render_top(sample_payload())
    assert "== totals (no series data; rates unavailable) ==" in text
    assert "disk.reads" in text
    assert "rates" not in text.split("totals")[0]


def test_totals_show_how_much_of_the_commits_overlapped():
    payload = sample_payload()
    payload["sched"] = {
        "group_commits": 1039,
        "commits_deferred": 1038,
        "commit_inflight_s": 58.85,
        "idle_advances": 149,
        "idle_advance_s": 15.56,
        "reads_parked": 8012,
        "read_inflight_s": 40.25,
    }
    totals = render_top(payload).split("totals")[1]
    for name, shown in (
        ("sched.commits_deferred", "1038"),
        ("sched.commit_inflight_s", "58.850"),
        ("sched.idle_advances", "149"),
        ("sched.idle_advance_s", "15.560"),
        ("sched.reads_parked", "8012"),
        ("sched.read_inflight_s", "40.250"),
    ):
        (line,) = [l for l in totals.splitlines() if l.startswith(name + " ")]
        assert shown in line


def test_render_top_empty_inputs():
    text = render_top()
    assert "t=0.000000s simulated" in text
    assert "==" not in text  # no sections without data


def test_render_top_active_findings_sort_critical_first():
    from repro.obs.health import Finding

    findings = [
        Finding(rule="slo_burn", status="warn", detail="over", subject="a"),
        Finding(rule="volume_degraded", status="critical", detail="down"),
        Finding(rule="free_segments", status="ok", detail="fine"),
    ]
    text = render_top(findings=findings)
    health = text.split("== health ==")[1]
    assert health.index("CRITICAL") < health.index("WARN")
    assert "free_segments" not in health  # ok verdicts are not noise


def test_render_monitor_over_a_live_monitor():
    clock = VirtualClock()
    registry = MetricsRegistry()
    registry.register(
        "volume",
        lambda: {"live_disks": 2, "n_disks": 4, "rebuild_active": False},
    )
    monitor = Monitor(registry, clock, interval=0.1)
    monitor.sample_now()
    text = render_monitor(monitor)
    assert "CRITICAL" in text
    assert "volume_degraded" in text
    assert "health.volume_degraded" in text  # transition event in the tail


def test_load_metrics_normalizes_flat_payloads(tmp_path):
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps({"disk": {"reads": 1}}))
    assert _load_metrics(nested) == {"disk": {"reads": 1}}
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"disk.reads": 1, "disk.writes": 2, "loose": 3}))
    assert _load_metrics(flat) == {"disk": {"reads": 1, "writes": 2}, "loose": 3}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError):
        _load_metrics(bad)


def test_cli_offline_round_trip(tmp_path, capsys):
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps(sample_payload()))
    events = EventLog()
    events.emit("volume.member_failed", severity="warn", t=0.5, member=1)
    events_path = tmp_path / "events.jsonl"
    export_events_jsonl(events, events_path)
    series_path = tmp_path / "series.jsonl"
    export_series_jsonl(make_recorder(), series_path)

    assert (
        main(
            [
                "--metrics",
                str(metrics),
                "--events",
                str(events_path),
                "--series",
                str(series_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    # Health rules re-evaluated offline: the degraded volume is caught.
    assert "CRITICAL" in out
    assert "volume_degraded" in out
    assert "volume.read_latency_hist" in out
    assert "disk.reads" in out
    assert "volume.member_failed" in out


def test_cli_events_only(tmp_path, capsys):
    events = EventLog()
    events.emit("lld.cleaner_pass", severity="debug", t=1.0, slot=3)
    path = tmp_path / "events.jsonl"
    export_events_jsonl(events, path)
    assert main(["--events", str(path), "--max-events", "5"]) == 0
    out = capsys.readouterr().out
    assert "lld.cleaner_pass" in out
    assert "t=1.000000s" in out


def test_cli_requires_at_least_one_input():
    with pytest.raises(SystemExit):
        main([])
