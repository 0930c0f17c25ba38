"""Observability: tracing, metrics, and the continuous-monitoring layer.

The paper's evaluation attributes cost to *layers* — file management vs
disk management vs raw I/O (Tables 3–6, Fig. 1). This package makes that
attribution a first-class capability of the reproduction, and grows it
into an always-on monitoring subsystem:

* :mod:`repro.obs.trace` — spans with causality. A :class:`Tracer` hands
  out ``span(op, **attrs)`` context managers; each span is stamped with
  virtual-clock start/end times (latency attribution uses *simulated*
  time) and linked to the span active when it was opened, so one MINIX
  ``fsync`` expands into its data-tail write, summary write, and barrier.
* :mod:`repro.obs.metrics` — :class:`Counters`, the base every
  per-layer stats class derives ``snapshot()`` / ``as_dict()`` /
  ``reset()`` from, and a :class:`MetricsRegistry` that adopts them
  behind one :class:`Snapshot` protocol and merges them into a single
  layer-prefixed dict; :meth:`~MetricsRegistry.collect_delta` diffs two
  collections.
* :mod:`repro.obs.stack` — the one walker over a built stack, and what
  is written on it: :func:`attach_tracer` / :func:`attach_events`,
  constructor-time inheritance, and :func:`registry_of`.
* :mod:`repro.obs.hist` — :class:`LatencyHistogram`, the bounded
  log-bucketed sketch every latency series in the tree records into.
* :mod:`repro.obs.series` — :class:`SeriesRecorder`, windowed
  time-series rings sampled on the virtual clock.
* :mod:`repro.obs.events` — :class:`EventLog`, the structured state-
  change log (member failures, rebuilds, cleaner passes, checkpoints,
  scheduler saturation), exported as JSONL beside ``trace.json``.
* :mod:`repro.obs.health` — declarative health rules over series +
  events producing ok/warn/critical :class:`Finding` verdicts, bundled
  behind :class:`Monitor`.
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON and JSONL
  exporters plus loaders for round-tripping traces.
* ``python -m repro.obs trace.json`` — per-layer latency/ops dashboard
  from an exported trace; ``python -m repro.obs.top`` — the live/offline
  ldtop monitoring dashboard.

Tracing and event emission are **off by default** and zero-overhead when
disabled: every instrumented choke point guards with a plain attribute
load and truth test (``if tracer`` / ``if events``), so the paper's
benchmark figures are untouched unless :func:`attach_tracer` /
:func:`attach_events` is called.
"""

from repro.obs.events import EventLog, Event, export_events_jsonl, load_events_jsonl
from repro.obs.export import (
    export_chrome_trace,
    export_jsonl,
    load_chrome_trace,
    load_jsonl,
    load_trace,
)
from repro.obs.health import (
    Finding,
    HealthContext,
    HealthMonitor,
    HealthRule,
    Monitor,
    default_rules,
)
from repro.obs.hist import LatencyHistogram
from repro.obs.metrics import Counters, MetricsRegistry, Snapshot, diff_payloads
from repro.obs.series import (
    Series,
    SeriesRecorder,
    export_series_jsonl,
    load_series_jsonl,
)
from repro.obs import stack
from repro.obs.stack import registry_of
from repro.obs.trace import NULL_SPAN, Span, Tracer

__all__ = [
    "NULL_SPAN",
    "Counters",
    "Event",
    "EventLog",
    "Finding",
    "HealthContext",
    "HealthMonitor",
    "HealthRule",
    "LatencyHistogram",
    "MetricsRegistry",
    "Monitor",
    "Series",
    "SeriesRecorder",
    "Snapshot",
    "Span",
    "Tracer",
    "attach_events",
    "attach_tracer",
    "default_rules",
    "diff_payloads",
    "export_chrome_trace",
    "export_events_jsonl",
    "export_jsonl",
    "export_series_jsonl",
    "load_chrome_trace",
    "load_events_jsonl",
    "load_jsonl",
    "load_series_jsonl",
    "load_trace",
    "registry_of",
]

def attach_tracer(tracer: Tracer | None, *components) -> Tracer | None:
    """Attach ``tracer`` to ``components`` and every layer beneath them.

    One call instruments the whole FS → LD → LLD → disk stack; passing
    ``None`` detaches (restores the zero-overhead path). See
    :func:`repro.obs.stack.attach` for the traversal rules.
    """
    stack.attach(*components, tracer=tracer)
    return tracer


def attach_events(log: EventLog | None, *components) -> EventLog | None:
    """Attach an :class:`EventLog` to ``components`` and the stack below.

    The event-emitting choke points (volume membership changes, cleaner
    passes, checkpoints, scheduler saturation, ...) start recording into
    ``log``; passing ``None`` detaches.
    """
    stack.attach(*components, events=log)
    return log
