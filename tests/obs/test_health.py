"""Health rules and the Monitor: each failure mode fires in a crafted scenario."""

import pytest

from repro.obs import MetricsRegistry
from repro.obs.health import (
    CRITICAL,
    OK,
    WARN,
    FreeSegmentsRule,
    HealthContext,
    HealthMonitor,
    Monitor,
    RebuildStalledRule,
    SLOBurnRule,
    VolumeDegradedRule,
    WriteAmpSpikeRule,
    default_rules,
)
from repro.obs.events import EventLog
from repro.obs.series import Series
from repro.sim import VirtualClock


def one(findings):
    assert len(findings) == 1, findings
    return findings[0]


def volume_payload(live=4, total=4, rebuild=False, progress=0.0):
    return {
        "volume": {
            "live_disks": live,
            "n_disks": total,
            "rebuild_active": rebuild,
            "rebuild_progress": progress,
        }
    }


class TestVolumeDegradedRule:
    def test_all_members_live_is_ok(self):
        f = one(VolumeDegradedRule().evaluate(HealthContext(volume_payload())))
        assert f.status == OK

    def test_member_down_without_rebuild_is_critical(self):
        ctx = HealthContext(volume_payload(live=3))
        f = one(VolumeDegradedRule().evaluate(ctx))
        assert f.status == CRITICAL
        assert "redundancy lost" in f.detail

    def test_member_down_during_rebuild_is_warn(self):
        ctx = HealthContext(volume_payload(live=3, rebuild=True, progress=0.4))
        f = one(VolumeDegradedRule().evaluate(ctx))
        assert f.status == WARN
        assert "40%" in f.detail

    def test_no_volume_layer_is_silent(self):
        assert VolumeDegradedRule().evaluate(HealthContext({"lld": {}})) == []


def progress_series(points):
    series = Series("volume.rebuild_progress", capacity=64)
    for t, v in points:
        series.record(t, v)
    return {"volume.rebuild_progress": series}


class TestRebuildStalledRule:
    def test_flatlined_progress_is_warn(self):
        series = progress_series([(0.0, 0.3), (0.5, 0.3), (0.7, 0.3), (0.9, 0.3)])
        ctx = HealthContext(
            volume_payload(live=3, rebuild=True, progress=0.3), series=series
        )
        f = one(RebuildStalledRule().evaluate(ctx))
        assert f.status == WARN
        assert "stuck at 30%" in f.detail

    def test_advancing_progress_is_ok(self):
        series = progress_series([(0.0, 0.3), (0.5, 0.5), (0.7, 0.65), (0.9, 0.8)])
        ctx = HealthContext(
            volume_payload(live=3, rebuild=True, progress=0.8), series=series
        )
        assert one(RebuildStalledRule().evaluate(ctx)).status == OK

    def test_warming_up_with_few_samples_is_ok(self):
        series = progress_series([(0.0, 0.1)])
        ctx = HealthContext(
            volume_payload(live=3, rebuild=True, progress=0.1), series=series
        )
        f = one(RebuildStalledRule().evaluate(ctx))
        assert f.status == OK
        assert "warming up" in f.detail

    def test_no_rebuild_is_ok(self):
        f = one(RebuildStalledRule().evaluate(HealthContext(volume_payload())))
        assert f.status == OK


def sched_payload(p99, acks=10):
    return {"sched": {"tenants": {"a": {"acks": acks, "ack_latency_p99": p99}}}}


class TestSLOBurnRule:
    def test_under_target_is_ok(self):
        rule = SLOBurnRule({"a": 0.010})
        f = one(rule.evaluate(HealthContext(sched_payload(0.008))))
        assert f.status == OK
        assert f.subject == "a"

    def test_over_target_is_warn(self):
        f = one(SLOBurnRule({"a": 0.010}).evaluate(HealthContext(sched_payload(0.015))))
        assert f.status == WARN
        assert "1.50x" in f.detail

    def test_double_target_is_critical(self):
        f = one(SLOBurnRule({"a": 0.010}).evaluate(HealthContext(sched_payload(0.021))))
        assert f.status == CRITICAL

    def test_sustained_burn_escalates_to_critical(self):
        series = Series("sched.tenants.a.ack_latency_p99", capacity=64)
        for i in range(10):
            series.record(i * 0.1, 0.015)  # every sample over the 10ms SLO
        ctx = HealthContext(
            sched_payload(0.015),
            series={"sched.tenants.a.ack_latency_p99": series},
        )
        f = one(SLOBurnRule({"a": 0.010}).evaluate(ctx))
        assert f.status == CRITICAL
        assert "burn rate 100%" in f.detail

    def test_tenant_without_target_or_acks_is_skipped(self):
        rule = SLOBurnRule({"b": 0.010})  # "a" has no target
        assert rule.evaluate(HealthContext(sched_payload(0.5))) == []
        rule = SLOBurnRule({"a": 0.010})
        assert rule.evaluate(HealthContext(sched_payload(0.5, acks=0))) == []

    def test_default_target_covers_unnamed_tenants(self):
        rule = SLOBurnRule(default_p99=0.010)
        assert one(rule.evaluate(HealthContext(sched_payload(0.05)))).status != OK


class TestWriteAmpSpikeRule:
    @staticmethod
    def ctx(values):
        series = Series("lld.write_amplification", capacity=64)
        for i, v in enumerate(values):
            series.record(i * 0.1, v)
        return HealthContext(
            {"lld": {"write_amplification": values[-1] if values else 0.0}},
            series={"lld.write_amplification": series},
        )

    def test_spike_over_baseline_is_warn(self):
        f = one(WriteAmpSpikeRule().evaluate(self.ctx([1.1, 1.2, 1.1, 1.2, 3.0])))
        assert f.status == WARN
        assert "3.00x" in f.detail

    def test_steady_write_amp_is_ok(self):
        f = one(WriteAmpSpikeRule().evaluate(self.ctx([1.1, 1.2, 1.1, 1.2, 1.3])))
        assert f.status == OK

    def test_few_samples_is_warming_up(self):
        f = one(WriteAmpSpikeRule().evaluate(self.ctx([1.1, 4.0])))
        assert f.status == OK
        assert "warming up" in f.detail


class TestFreeSegmentsRule:
    def test_above_floor_is_ok(self):
        ctx = HealthContext({"space": {"free_segments": 9, "min_free_segments": 2}})
        assert one(FreeSegmentsRule().evaluate(ctx)).status == OK

    def test_below_floor_is_warn(self):
        ctx = HealthContext({"space": {"free_segments": 1, "min_free_segments": 2}})
        f = one(FreeSegmentsRule().evaluate(ctx))
        assert f.status == WARN
        assert "below" in f.detail

    def test_cleaner_starved_event_is_critical(self):
        events = EventLog()
        events.emit("lld.cleaner_starved", severity="error", target=3)
        ctx = HealthContext(
            {"space": {"free_segments": 4, "min_free_segments": 2}}, events=events
        )
        f = one(FreeSegmentsRule().evaluate(ctx))
        assert f.status == CRITICAL
        assert "starved" in f.detail


def test_health_monitor_runs_every_rule_in_order():
    payload = {
        **volume_payload(live=3),
        "space": {"free_segments": 0, "min_free_segments": 2},
    }
    findings = HealthMonitor(default_rules()).evaluate(HealthContext(payload))
    rules = [f.rule for f in findings]
    assert rules == ["volume_degraded", "rebuild_stalled", "free_segments"]
    assert {f.rule: f.status for f in findings}["volume_degraded"] == CRITICAL


class FakeVolume:
    """Mutable metrics source driving Monitor transition scenarios."""

    def __init__(self):
        self.live = 4
        self.rebuild_active = False
        self.progress = 0.0

    def __call__(self):
        return {
            "live_disks": self.live,
            "n_disks": 4,
            "rebuild_active": self.rebuild_active,
            "rebuild_progress": self.progress,
        }


def make_monitor():
    clock = VirtualClock()
    volume = FakeVolume()
    registry = MetricsRegistry()
    registry.register("volume", volume)
    return clock, volume, Monitor(registry, clock, interval=0.1)


def test_monitor_tick_gates_on_the_virtual_clock():
    clock, _volume, monitor = make_monitor()
    assert monitor.tick()
    assert not monitor.tick()  # idle: clock hasn't moved
    clock.advance(0.2)
    assert monitor.tick()
    assert monitor.checks == 2
    assert monitor.series.get("volume.live_disks").values() == [4.0, 4.0]


def test_monitor_records_status_transitions_not_steady_state():
    clock, volume, monitor = make_monitor()
    monitor.sample_now()
    monitor.sample_now()
    # First-ever ok is steady state: no health events yet.
    assert not monitor.events.select(layer="health")
    assert not monitor.findings

    volume.live = 3
    clock.advance(0.2)
    monitor.sample_now()
    assert {f.rule: f.status for f in monitor.findings} == {
        "volume_degraded": CRITICAL
    }

    volume.rebuild_active = True
    for _ in range(4):  # flatlined progress -> stall warning
        clock.advance(0.2)
        monitor.sample_now()
    statuses = {f.rule: f.status for f in monitor.findings}
    assert statuses["volume_degraded"] == WARN
    assert statuses["rebuild_stalled"] == WARN

    volume.progress = 1.0
    volume.rebuild_active = False
    volume.live = 4
    clock.advance(0.2)
    monitor.sample_now()
    assert not monitor.findings

    assert monitor.status_history("volume_degraded") == [CRITICAL, WARN, OK]
    assert monitor.status_history("rebuild_stalled") == [WARN, OK]
    # Transition events carry the previous status for the audit trail.
    last = monitor.events.select(name="health.volume_degraded")[-1]
    assert last.payload["previous"] == WARN
    assert last.severity == "info"


def test_monitor_attach_points_stack_events_here():
    class Component:
        def __init__(self):
            self.events = None

    _clock, _volume, monitor = make_monitor()
    component = Component()
    monitor.attach(component)
    assert component.events is monitor.events


def test_slo_burn_subject_tracks_per_tenant_history():
    clock = VirtualClock()
    tenants = {"a": {"acks": 5, "ack_latency_p99": 0.005}}
    registry = MetricsRegistry()
    registry.register("sched", lambda: {"tenants": tenants})
    monitor = Monitor(registry, clock, interval=0.1, slo_p99={"a": 0.010})
    monitor.sample_now()
    clock.advance(0.2)
    monitor.sample_now()
    # Burn rate is 1/3 (< the 0.5 critical threshold): a plain warn.
    tenants["a"]["ack_latency_p99"] = 0.015
    clock.advance(0.2)
    monitor.sample_now()
    tenants["a"]["ack_latency_p99"] = 0.004
    clock.advance(0.2)
    monitor.sample_now()
    assert monitor.status_history("slo_burn", subject="a") == [WARN, OK]


def test_monitor_repr_counts_active_findings():
    _clock, volume, monitor = make_monitor()
    volume.live = 2
    monitor.sample_now()
    assert "1 active finding(s)" in repr(monitor)
