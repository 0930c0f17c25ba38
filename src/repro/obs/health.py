"""Declarative health rules: ok/warn/critical verdicts over series + events.

The slow-motion failures a production LD deployment worries about — a
cleaner starving for free segments, a RAID rebuild stalling, a tenant's
p99 burning through its SLO, write amplification spiking — are all
visible in the metrics the stack already exports; what was missing is
something that *watches*. Each :class:`HealthRule` evaluates one failure
mode against a :class:`HealthContext` (a nested metrics payload plus
optional :class:`~repro.obs.series.SeriesRecorder` windows and
:class:`~repro.obs.events.EventLog` history) and produces
:class:`Finding` verdicts.

:class:`Monitor` is the turnkey bundle: one registry, one series
recorder, one event log, one rule set. Drivers call ``tick()`` wherever
they already loop; every sample re-evaluates the rules and status
*transitions* land in the event log as ``health.*`` events — which is
what lets a test (or CI) assert "degrading the volume went warn, and
finishing the rebuild went back to ok".
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.obs import stack
from repro.obs.events import EventLog
from repro.obs.series import Series, SeriesRecorder, _flatten_numeric

OK = "ok"
WARN = "warn"
CRITICAL = "critical"

#: Health verdict → event-log severity for transition events.
_STATUS_SEVERITY = {OK: "info", WARN: "warn", CRITICAL: "error"}


@dataclass(slots=True)
class Finding:
    """One rule's verdict on one subject."""

    rule: str
    status: str
    detail: str
    subject: str = ""
    value: float | None = None
    t: float = 0.0

    @property
    def key(self) -> tuple[str, str]:
        return (self.rule, self.subject)

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "subject": self.subject,
            "status": self.status,
            "detail": self.detail,
            "value": self.value,
            "t": self.t,
        }


class HealthContext:
    """Everything a rule may look at for one evaluation."""

    def __init__(
        self,
        payload: dict,
        *,
        series=None,
        events: EventLog | None = None,
        now: float = 0.0,
    ) -> None:
        #: Nested metrics payload (``MetricsRegistry.collect_nested()``).
        self.payload = payload
        #: A :class:`SeriesRecorder` or a plain ``{name: Series}`` dict
        #: (the offline, loaded-from-JSONL form) — or ``None``.
        self.series = series
        self.events = events
        self.now = now

    def layer(self, name: str) -> dict | None:
        value = self.payload.get(name)
        return value if isinstance(value, dict) else None

    def metric(self, layer: str, key: str, default=None):
        payload = self.layer(layer)
        return payload.get(key, default) if payload is not None else default

    def get_series(self, name: str) -> Series | None:
        source = self.series
        if source is None:
            return None
        if isinstance(source, SeriesRecorder):
            return source.get(name)
        return source.get(name)

    def recent_events(self, name: str) -> list:
        if self.events is None:
            return []
        return self.events.select(name=name)


class HealthRule:
    """One watched failure mode; subclasses set ``name`` and evaluate."""

    name = "base"

    def evaluate(self, ctx: HealthContext) -> list[Finding]:
        raise NotImplementedError

    def finding(
        self,
        ctx: HealthContext,
        status: str,
        detail: str,
        *,
        subject: str = "",
        value: float | None = None,
    ) -> Finding:
        return Finding(
            rule=self.name,
            status=status,
            detail=detail,
            subject=subject,
            value=value,
            t=ctx.now,
        )


class VolumeDegradedRule(HealthRule):
    """A member is down: critical with no rebuild underway, warn during one."""

    name = "volume_degraded"

    def evaluate(self, ctx: HealthContext) -> list[Finding]:
        volume = ctx.layer("volume")
        if volume is None:
            return []
        live = volume.get("live_disks")
        total = volume.get("n_disks")
        if live is None or total is None:
            return []
        if live >= total:
            return [self.finding(ctx, OK, f"all {total} members live")]
        missing = total - live
        if volume.get("rebuild_active"):
            progress = volume.get("rebuild_progress", 0.0)
            return [
                self.finding(
                    ctx,
                    WARN,
                    f"{missing} member(s) down, rebuild at "
                    f"{progress * 100.0:.0f}%",
                    value=progress,
                )
            ]
        return [
            self.finding(
                ctx,
                CRITICAL,
                f"{missing} member(s) down, no rebuild in progress "
                f"(redundancy lost)",
                value=float(live),
            )
        ]


class RebuildStalledRule(HealthRule):
    """An active rebuild whose progress flatlined over the stall window."""

    name = "rebuild_stalled"

    def __init__(self, stall_seconds: float = 0.5, min_samples: int = 3) -> None:
        self.stall_seconds = stall_seconds
        self.min_samples = min_samples

    def evaluate(self, ctx: HealthContext) -> list[Finding]:
        volume = ctx.layer("volume")
        if volume is None:
            return []
        if not volume.get("rebuild_active"):
            return [self.finding(ctx, OK, "no rebuild in progress")]
        series = ctx.get_series("volume.rebuild_progress")
        if series is None or len(series) < self.min_samples:
            return [self.finding(ctx, OK, "rebuild in progress (warming up)")]
        points = series.window(self.stall_seconds)
        if len(points) < self.min_samples:
            return [self.finding(ctx, OK, "rebuild in progress (warming up)")]
        span = points[-1][0] - points[0][0]
        gained = points[-1][1] - points[0][1]
        if span >= self.stall_seconds * 0.5 and gained <= 0.0:
            return [
                self.finding(
                    ctx,
                    WARN,
                    f"rebuild stuck at {points[-1][1] * 100.0:.0f}% for "
                    f"{span:.3f}s simulated",
                    value=points[-1][1],
                )
            ]
        return [
            self.finding(
                ctx,
                OK,
                f"rebuild progressing ({points[-1][1] * 100.0:.0f}%)",
                value=points[-1][1],
            )
        ]


class SLOBurnRule(HealthRule):
    """Per-tenant fsync-ack p99 against its SLO target.

    ``slo_p99`` maps tenant name → target p99 (virtual seconds);
    ``default_p99`` covers unnamed tenants. The *burn rate* is the
    fraction of recent series samples over target — sustained burn (or a
    2x instantaneous breach) escalates warn to critical.
    """

    name = "slo_burn"

    def __init__(
        self,
        slo_p99: dict | None = None,
        default_p99: float | None = None,
        burn_critical: float = 0.5,
    ) -> None:
        self.slo_p99 = dict(slo_p99 or {})
        self.default_p99 = default_p99
        self.burn_critical = burn_critical

    def evaluate(self, ctx: HealthContext) -> list[Finding]:
        tenants = ctx.metric("sched", "tenants")
        if not isinstance(tenants, dict):
            return []
        findings = []
        for tenant in sorted(tenants):
            target = self.slo_p99.get(tenant, self.default_p99)
            if not target:
                continue
            stats = tenants[tenant]
            if not isinstance(stats, dict) or not stats.get("acks"):
                continue
            p99 = stats.get("ack_latency_p99", 0.0)
            series = ctx.get_series(f"sched.tenants.{tenant}.ack_latency_p99")
            burn = None
            if series is not None and len(series) >= 2:
                # Burn over the recent window only: bounded per-check cost
                # and a sharper signal than lifetime history.
                values = series.values()[-64:]
                burn = sum(1 for v in values if v > target) / len(values)
            ratio = p99 / target
            if p99 <= target:
                status = OK
            elif ratio >= 2.0 or (burn is not None and burn >= self.burn_critical):
                status = CRITICAL
            else:
                status = WARN
            detail = (
                f"ack p99 {p99 * 1000.0:.2f}ms vs SLO {target * 1000.0:.2f}ms "
                f"({ratio:.2f}x)"
            )
            if burn is not None:
                detail += f", burn rate {burn * 100.0:.0f}%"
            findings.append(
                self.finding(ctx, status, detail, subject=tenant, value=ratio)
            )
        return findings


class WriteAmpSpikeRule(HealthRule):
    """Write amplification jumping well above its recent baseline."""

    name = "write_amp_spike"

    def __init__(
        self,
        factor: float = 1.5,
        min_delta: float = 0.5,
        min_samples: int = 5,
        window: int = 32,
    ) -> None:
        self.factor = factor
        self.min_delta = min_delta
        self.min_samples = min_samples
        self.window = window

    def evaluate(self, ctx: HealthContext) -> list[Finding]:
        if ctx.layer("lld") is None:
            return []
        series = ctx.get_series("lld.write_amplification")
        if series is None or len(series) < self.min_samples:
            return [self.finding(ctx, OK, "write amplification baseline warming up")]
        values = series.values()[-self.window :]
        latest = values[-1]
        baseline = statistics.median(values[:-1])
        if latest > baseline * self.factor and latest - baseline >= self.min_delta:
            return [
                self.finding(
                    ctx,
                    WARN,
                    f"write amplification {latest:.2f}x vs recent median "
                    f"{baseline:.2f}x",
                    value=latest,
                )
            ]
        return [
            self.finding(
                ctx, OK, f"write amplification {latest:.2f}x", value=latest
            )
        ]


class FreeSegmentsRule(HealthRule):
    """Free-segment low water / cleaner starvation.

    The LLD keeps ``min_free_segments`` slots free by cleaning after each
    seal; sampling below that floor means the cleaner is not keeping up,
    and a logged ``lld.cleaner_starved`` event (the cleaner raised
    ``OutOfSpaceError``) is outright critical.
    """

    name = "free_segments"

    def evaluate(self, ctx: HealthContext) -> list[Finding]:
        space = ctx.layer("space")
        if space is None:
            return []
        free = space.get("free_segments")
        floor = space.get("min_free_segments", 1)
        if free is None:
            return []
        starved = ctx.recent_events("lld.cleaner_starved")
        if starved:
            return [
                self.finding(
                    ctx,
                    CRITICAL,
                    f"cleaner starved ({len(starved)} OutOfSpace event(s); "
                    f"{free} segment(s) free)",
                    value=float(free),
                )
            ]
        if free < floor:
            return [
                self.finding(
                    ctx,
                    WARN,
                    f"{free} free segment(s), below the {floor}-segment floor",
                    value=float(free),
                )
            ]
        return [
            self.finding(
                ctx, OK, f"{free} free segment(s) (floor {floor})", value=float(free)
            )
        ]


def default_rules(
    slo_p99: dict | None = None, default_p99: float | None = None
) -> list[HealthRule]:
    """The standard rule set, in evaluation order."""
    return [
        VolumeDegradedRule(),
        RebuildStalledRule(),
        SLOBurnRule(slo_p99, default_p99),
        WriteAmpSpikeRule(),
        FreeSegmentsRule(),
    ]


class HealthMonitor:
    """Evaluates a rule set over one context; stateless between calls."""

    def __init__(self, rules: list[HealthRule] | None = None) -> None:
        self.rules = rules if rules is not None else default_rules()

    def evaluate(self, ctx: HealthContext) -> list[Finding]:
        """Every rule's verdicts (ok included), in rule order."""
        findings: list[Finding] = []
        for rule in self.rules:
            findings.extend(rule.evaluate(ctx))
        return findings


class Monitor:
    """Registry + series + events + rules behind one ``tick()``.

    The continuous-monitoring spine: construct it over a stack's
    :class:`~repro.obs.MetricsRegistry`, :meth:`attach` it so the
    stack's choke points emit into its event log, and call :meth:`tick`
    from the driving loop. Each interval-gated sample re-evaluates the
    health rules; a rule whose status *changed* emits a ``health.<rule>``
    transition event (ok→warn→ok sequences become assertable history).
    """

    def __init__(
        self,
        registry,
        clock,
        *,
        interval: float = 0.1,
        capacity: int = 512,
        slo_p99: dict | None = None,
        default_p99: float | None = None,
        rules: list[HealthRule] | None = None,
        events: EventLog | None = None,
        event_capacity: int = 4096,
    ) -> None:
        self.registry = registry
        self.clock = clock
        self.events = (
            events
            if events is not None
            else EventLog(clock, capacity=event_capacity)
        )
        self.series = SeriesRecorder(clock, interval=interval, capacity=capacity)
        self.health = HealthMonitor(
            rules if rules is not None else default_rules(slo_p99, default_p99)
        )
        self.verdicts: list[Finding] = []
        self.checks = 0
        self._last_status: dict[tuple[str, str], str] = {}

    def attach(self, *components) -> None:
        """Point the stack's ``events`` hooks at this monitor's log."""
        stack.attach(*components, events=self.events)

    @property
    def findings(self) -> list[Finding]:
        """Active non-ok findings from the most recent check."""
        return [f for f in self.verdicts if f.status != OK]

    def tick(self) -> bool:
        """Sample + re-evaluate iff the sampling interval elapsed.

        The idle path — interval not reached — is one clock read and a
        float compare. A firing tick collects the registry *once* and
        feeds the same payload to the series rings and the health rules.
        """
        if not self.series.due:
            return False
        self.sample_now()
        return True

    def sample_now(self) -> list[Finding]:
        """Sample + re-evaluate unconditionally (one registry collection)."""
        payload = self.registry.collect_nested()
        flat: dict = {}
        _flatten_numeric("", payload, flat)
        self.series.record_flat(flat)
        return self.check(payload)

    def check(self, payload: dict | None = None) -> list[Finding]:
        """Evaluate all rules now; records transitions; returns verdicts."""
        ctx = HealthContext(
            payload if payload is not None else self.registry.collect_nested(),
            series=self.series,
            events=self.events,
            now=self.clock.now,
        )
        verdicts = self.health.evaluate(ctx)
        self.checks += 1
        last = self._last_status
        for finding in verdicts:
            previous = last.get(finding.key)
            if previous == finding.status:
                continue
            # A rule's first-ever "ok" is steady state, not a transition.
            if previous is not None or finding.status != OK:
                self.events.emit(
                    f"health.{finding.rule}",
                    severity=_STATUS_SEVERITY[finding.status],
                    subject=finding.subject,
                    status=finding.status,
                    previous=previous,
                    detail=finding.detail,
                )
            last[finding.key] = finding.status
        self.verdicts = verdicts
        return verdicts

    def status_history(self, rule: str, subject: str = "") -> list[str]:
        """Recorded status transitions for one rule (event-log order)."""
        return [
            e.payload["status"]
            for e in self.events.select(name=f"health.{rule}")
            if e.payload.get("subject", "") == subject
        ]

    def __repr__(self) -> str:
        active = len(self.findings)
        return f"Monitor({self.checks} checks, {active} active finding(s))"
