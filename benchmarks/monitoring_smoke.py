"""CI monitoring smoke: degrade a RAID-5 volume, rebuild it, watch health.

Drives the full continuous-monitoring loop end to end on a real failure
scenario — the one an operator actually cares about:

1. a healthy 4-spindle RAID-5 volume serves traffic (all rules **ok**);
2. a member fails → ``volume_degraded`` goes **critical**, the
   ``volume.member_failed`` event lands in the log;
3. a blank replacement is installed with the rebuild scanner parked
   (rate 0) → ``volume_degraded`` relaxes to **warn**, and after enough
   flatlined samples ``rebuild_stalled`` goes **warn**;
4. the scanner is unparked and driven to completion → decile
   ``volume.rebuild_progress`` events, ``volume.rebuild_completed``, and
   every rule back to **ok**.

The script asserts the recorded ``health.*`` status transitions (the
warn→ok round trip CI wants proof of), prints the ldtop dashboard, and
exports ``events.jsonl`` / ``metrics.json`` / ``series.jsonl`` for the
artifact upload + offline ``python -m repro.obs.top`` invocation.

Usage::

    PYTHONPATH=src python benchmarks/monitoring_smoke.py [events.jsonl metrics.json series.jsonl]
"""

import json
import os
import sys

from repro.bench.builders import BuildSpec, default_scale, fresh_volume
from repro.obs import Monitor, export_events_jsonl, export_series_jsonl, registry_of
from repro.obs.top import render_monitor

REQUEST_SECTORS = 64  # 32 KB requests


def build_monitored_volume():
    spec = BuildSpec.from_scale(default_scale())
    volume = fresh_volume(spec, 4, layout="raid5")
    monitor = Monitor(registry_of(volume), volume.clock, interval=0.01)
    monitor.attach(volume)
    return volume, monitor


def serve_traffic(volume, monitor, requests: int, offset: int = 0) -> None:
    """Foreground reads (they advance the shared clock) with ticks."""
    for i in range(requests):
        span = volume.geometry.total_sectors // 2
        volume.read(((offset + i) * REQUEST_SECTORS) % span, REQUEST_SECTORS)
        monitor.tick()


def main(argv: list[str]) -> int:
    events_path = argv[1] if len(argv) > 1 else "events.jsonl"
    metrics_path = argv[2] if len(argv) > 2 else "metrics.json"
    series_path = argv[3] if len(argv) > 3 else "series.jsonl"

    volume, monitor = build_monitored_volume()
    payload = os.urandom(REQUEST_SECTORS * 512)
    for i in range(32):
        volume.write(i * REQUEST_SECTORS, payload)
    volume.barrier()

    # Phase 1: healthy baseline.
    serve_traffic(volume, monitor, 8)
    verdicts = monitor.sample_now()
    assert verdicts and not monitor.findings, [
        f.as_dict() for f in monitor.findings
    ]

    # Phase 2: lose a member — no rebuild yet, redundancy is gone.
    volume.fail_member(2)
    serve_traffic(volume, monitor, 4, offset=100)
    monitor.sample_now()
    statuses = {f.rule: f.status for f in monitor.verdicts}
    assert statuses["volume_degraded"] == "critical", statuses

    # Phase 3: replacement installed, scanner parked — rebuild stalls.
    volume.replace_member(2)  # rebuild_rate stays 0.0: no progress
    serve_traffic(volume, monitor, 40, offset=200)
    monitor.sample_now()
    statuses = {f.rule: f.status for f in monitor.verdicts}
    assert statuses["volume_degraded"] == "warn", statuses
    assert statuses["rebuild_stalled"] == "warn", statuses

    # Phase 4: unpark the scanner and let it finish between requests.
    volume.rebuild_rate = 8.0
    while volume.rebuild_active:
        serve_traffic(volume, monitor, 2, offset=400)
    monitor.sample_now()
    assert not monitor.findings, [f.as_dict() for f in monitor.findings]

    # The recorded transitions are exactly the story above.
    degraded_history = monitor.status_history("volume_degraded")
    assert degraded_history == ["critical", "warn", "ok"], degraded_history
    stalled_history = monitor.status_history("rebuild_stalled")
    assert stalled_history == ["warn", "ok"], stalled_history

    # The stack's own state-change events made it into the log.
    counts = monitor.events.counts_by_name()
    for name in (
        "volume.member_failed",
        "volume.rebuild_started",
        "volume.rebuild_progress",
        "volume.rebuild_completed",
    ):
        assert counts.get(name), f"missing event {name}: {counts}"

    print(render_monitor(monitor))
    print()

    export_events_jsonl(monitor.events, events_path)
    with open(metrics_path, "w", encoding="utf-8") as handle:
        json.dump(monitor.registry.collect_nested(), handle, indent=2, sort_keys=True)
    export_series_jsonl(monitor.series, series_path)
    print(
        f"monitoring smoke OK: wrote {events_path} "
        f"({monitor.events.emitted} events), {metrics_path}, {series_path}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
