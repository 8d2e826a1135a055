"""Unified observability layer.

The paper's entire evaluation is telemetry — cycle accounting of
software handlers (Tables 1–2), counter aggregates (Figures 2–6), and
NWO's role as a deterministic debugging environment.  This package
provides the machinery to *watch* a run without perturbing it:

- :mod:`repro.obs.events` — a zero-cost-when-idle event bus with typed
  probe points fired from the engine, the processor, the fabric, and
  the software handler path;
- :mod:`repro.obs.timeseries` — an interval sampler snapshotting
  per-node counters every N cycles (phase behaviour inside a run);
- :mod:`repro.obs.hist` — exact integer histograms with p50/p90/p99
  queries over handler and end-to-end remote-access latencies;
- :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``) and a deterministic metrics dump;
- :mod:`repro.obs.spans` — per-transaction span trees: every data miss
  carries a deterministic transaction id through messages, traps,
  handlers, and directory transitions;
- :mod:`repro.obs.attribution` — exact critical-path cycle accounting:
  every stall cycle lands in one named bucket, and the bucket totals
  sum cycle-for-cycle to the run's stall count;
- :mod:`repro.obs.fleet` — telemetry for the experiment runner: the
  parent emits every job, plan and cache event, aggregates a live
  sweep status and appends a ``repro-fleetlog/1`` JSONL run log — all
  side-channel only (results and cache keys are byte-identical with
  telemetry on or off).

Observers subscribe to a :class:`~repro.obs.events.EventBus` obtained
from :meth:`Machine.observe() <repro.machine.machine.Machine.observe>`;
probe sites are inert (a single ``None`` check) until a bus exists, and
observers never schedule simulation events, so attaching any of them
changes no simulated cycle count.
"""

from repro.obs.events import (
    EventBus,
    HandlerSpan,
    StallSpan,
    TransitionApplied,
    TrapPosted,
    UserSpan,
)
from repro.obs.hist import Histogram, HistogramSet, LatencyRecorder
from repro.obs.timeseries import IntervalRow, IntervalSampler
from repro.obs.export import (
    TraceCollector,
    chrome_trace,
    dumps_json,
    metrics_dict,
    write_json,
)
from repro.obs.spans import SpanCollector, TransactionTrace, format_trace
from repro.obs.attribution import (
    ATTRIBUTION_SCHEMA,
    BUCKETS,
    AttributionReport,
    attribute_stall,
    attribution_dict,
)
from repro.obs.fleet import (
    FLEETLOG_SCHEMA,
    FleetLogWriter,
    FleetMonitor,
    ProgressPrinter,
    RunProgress,
    format_fleet_summary,
    load_eta_hints,
    read_fleet_log,
    replay_fleet_log,
    summarize_fleet_log,
    validate_event,
)

__all__ = [
    "EventBus",
    "HandlerSpan",
    "StallSpan",
    "TransitionApplied",
    "TrapPosted",
    "UserSpan",
    "Histogram",
    "HistogramSet",
    "LatencyRecorder",
    "IntervalRow",
    "IntervalSampler",
    "TraceCollector",
    "chrome_trace",
    "dumps_json",
    "metrics_dict",
    "write_json",
    "SpanCollector",
    "TransactionTrace",
    "format_trace",
    "ATTRIBUTION_SCHEMA",
    "BUCKETS",
    "AttributionReport",
    "attribute_stall",
    "attribution_dict",
    "FLEETLOG_SCHEMA",
    "FleetLogWriter",
    "FleetMonitor",
    "ProgressPrinter",
    "RunProgress",
    "format_fleet_summary",
    "load_eta_hints",
    "read_fleet_log",
    "replay_fleet_log",
    "summarize_fleet_log",
    "validate_event",
]
