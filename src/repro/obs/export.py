"""Exporters: Chrome trace-event JSON and deterministic metrics dumps.

Two machine-readable views of a run:

- :func:`chrome_trace` — the Trace Event Format consumed by Perfetto
  and ``chrome://tracing``.  One track per node shows user, stall and
  handler spans; protocol messages appear as flow arrows from sender
  to receiver.  Timestamps are simulated cycles (the viewers label
  them "us"; read "us" as "cycles").
- :func:`metrics_dict` / :func:`write_json` — a stable JSON metrics
  document.  Because the simulator is deterministic and the dump
  contains no wall-clock state, two runs of the same configuration
  produce byte-identical files; CI diffs them as a determinism gate.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.obs.events import (
    HandlerSpan,
    StallSpan,
    UserSpan,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.machine import Machine
    from repro.network.fabric import Message
    from repro.obs.hist import LatencyRecorder
    from repro.obs.timeseries import IntervalSampler
    from repro.sim.stats import RunStats

#: NodeStats integer fields included in the metrics dump.
_TOTAL_FIELDS = (
    "user_cycles", "stall_cycles", "handler_cycles",
    "loads", "stores", "ifetches",
    "cache_hits", "cache_misses", "victim_hits",
    "evictions", "dirty_evictions",
    "invalidations_hw", "invalidations_sw",
    "busy_replies", "retries", "watchdog_activations",
)


class TraceCollector:
    """Buffers span and message events for later trace export.

    Usage::

        collector = TraceCollector.attach(machine)
        machine.run(workload)
        write_json("trace.json", chrome_trace(collector))
    """

    def __init__(self) -> None:
        self.user_spans: List[UserSpan] = []
        self.stall_spans: List[StallSpan] = []
        self.handler_spans: List[HandlerSpan] = []
        self.messages: List["Message"] = []

    @classmethod
    def attach(cls, machine: "Machine") -> "TraceCollector":
        collector = cls()
        bus = machine.observe()
        bus.on_user.append(collector.user_spans.append)
        bus.on_stall.append(collector.stall_spans.append)
        bus.on_handler.append(collector.handler_spans.append)
        bus.on_message.append(collector.messages.append)
        return collector

    def __len__(self) -> int:
        return (len(self.user_spans) + len(self.stall_spans)
                + len(self.handler_spans) + len(self.messages))


def _cpu_lane(node: int) -> int:
    return 2 * node


def _sw_lane(node: int) -> int:
    return 2 * node + 1


def chrome_trace(collector: TraceCollector,
                 n_nodes: Optional[int] = None) -> Dict[str, object]:
    """Build a Trace Event Format document from collected events.

    Each node gets *two* lanes: an even-numbered cpu lane (user and
    stall spans) and an odd-numbered software lane (protocol handler
    occupancy).  Handlers run while user code is stalled or pre-empted,
    and the processor batches short user work into windows that can
    wall-clock-overlap a handler on the same node — separate lanes keep
    every lane's slices non-overlapping, which the trace viewers
    require for correct nesting.

    Messages appear as flow arrows (``cat: "message"``) between cpu
    lanes; transactions as flow chains (``cat: "txn"``) from the
    requester's stall slice through every software handler the miss
    triggered.  An empty collector still yields a valid document
    (metadata only).
    """
    events: List[Dict[str, object]] = []
    nodes = set()
    sw_nodes = set()
    for span in collector.user_spans:
        nodes.add(span.node)
        events.append({
            "ph": "X", "pid": 0, "tid": _cpu_lane(span.node),
            "ts": span.start, "dur": span.end - span.start,
            "name": "user", "cat": "cpu",
        })
    txn_stalls: Dict[int, StallSpan] = {}
    for span in collector.stall_spans:
        nodes.add(span.node)
        args: Dict[str, object] = {}
        if span.block is not None:
            args["block"] = span.block
        if span.txn is not None:
            args["txn"] = span.txn
            txn_stalls[span.txn] = span
        events.append({
            "ph": "X", "pid": 0, "tid": _cpu_lane(span.node),
            "ts": span.start, "dur": span.end - span.start,
            "name": f"stall:{span.kind}", "cat": "stall", "args": args,
        })
    txn_handlers: Dict[int, List[HandlerSpan]] = {}
    for span in collector.handler_spans:
        nodes.add(span.node)
        sw_nodes.add(span.node)
        args = {"pointers": span.pointers,
                "implementation": span.implementation}
        if span.txn is not None:
            args["txn"] = span.txn
            txn_handlers.setdefault(span.txn, []).append(span)
        events.append({
            "ph": "X", "pid": 0, "tid": _sw_lane(span.node),
            "ts": span.start, "dur": span.end - span.start,
            "name": f"handler:{span.kind}", "cat": "software",
            "args": args,
        })
    for index, message in enumerate(collector.messages):
        nodes.add(message.src)
        nodes.add(message.dst)
        name = f"msg:{message.kind}"
        args = {"size_flits": message.size_flits}
        if message.block is not None:
            args["block"] = message.block
        if message.txn is not None:
            args["txn"] = message.txn
        # Flow arrows from send to delivery; the instant event keeps
        # deliveries visible even outside an enclosing slice.
        events.append({
            "ph": "s", "id": index, "pid": 0,
            "tid": _cpu_lane(message.src),
            "ts": message.sent_at, "name": name, "cat": "message",
        })
        events.append({
            "ph": "f", "bp": "e", "id": index, "pid": 0,
            "tid": _cpu_lane(message.dst), "ts": message.delivered_at,
            "name": name, "cat": "message",
        })
        events.append({
            "ph": "i", "s": "t", "pid": 0, "tid": _cpu_lane(message.dst),
            "ts": message.delivered_at, "name": name, "cat": "message",
            "args": args,
        })
    # Transaction flow chains: stall slice -> handler slice(s).  Flow
    # ids live in their own (cat, id) space so they never collide with
    # message arrows.
    for txn in sorted(txn_handlers):
        stall = txn_stalls.get(txn)
        if stall is None:
            continue  # transaction outlived the recorded window
        handlers = txn_handlers[txn]
        name = f"txn:{txn}"
        events.append({
            "ph": "s", "id": txn, "pid": 0,
            "tid": _cpu_lane(stall.node), "ts": stall.start,
            "name": name, "cat": "txn",
        })
        for h in handlers[:-1]:
            events.append({
                "ph": "t", "id": txn, "pid": 0,
                "tid": _sw_lane(h.node), "ts": h.start,
                "name": name, "cat": "txn",
            })
        last = handlers[-1]
        events.append({
            "ph": "f", "bp": "e", "id": txn, "pid": 0,
            "tid": _sw_lane(last.node), "ts": last.start,
            "name": name, "cat": "txn",
        })

    if n_nodes is not None:
        nodes.update(range(n_nodes))
    meta: List[Dict[str, object]] = [{
        "ph": "M", "pid": 0, "name": "process_name",
        "args": {"name": "machine"},
    }]
    for node in sorted(nodes):
        meta.append({
            "ph": "M", "pid": 0, "tid": _cpu_lane(node),
            "name": "thread_name", "args": {"name": f"node {node}"},
        })
        meta.append({
            "ph": "M", "pid": 0, "tid": _cpu_lane(node),
            "name": "thread_sort_index",
            "args": {"sort_index": _cpu_lane(node)},
        })
    for node in sorted(sw_nodes):
        meta.append({
            "ph": "M", "pid": 0, "tid": _sw_lane(node),
            "name": "thread_name", "args": {"name": f"node {node} sw"},
        })
        meta.append({
            "ph": "M", "pid": 0, "tid": _sw_lane(node),
            "name": "thread_sort_index",
            "args": {"sort_index": _sw_lane(node)},
        })
    events.sort(key=lambda ev: (ev["ts"], ev["tid"], ev["ph"]))
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {"time_unit": "cycles"},
    }


def metrics_dict(stats: "RunStats",
                 config: Optional[Dict[str, object]] = None,
                 sampler: Optional["IntervalSampler"] = None,
                 recorder: Optional["LatencyRecorder"] = None
                 ) -> Dict[str, object]:
    """Assemble the deterministic metrics document for one run."""
    doc: Dict[str, object] = {
        "schema": "repro-metrics/1",
        "run": {
            "run_cycles": stats.run_cycles,
            "n_nodes": stats.n_nodes,
            "sequential_cycles": stats.sequential_cycles,
            "speedup": round(stats.speedup, 4),
            "utilization": round(stats.processor_utilization, 4),
            "total_traps": stats.total_traps,
        },
        "totals": {field: stats.total(field) for field in _TOTAL_FIELDS},
        "traps_by_kind": dict(sorted(stats.traps_by_kind().items())),
        "messages_by_kind": dict(sorted(stats.messages_by_kind().items())),
        "per_node": [
            {
                "node": ns.node,
                "user_cycles": ns.user_cycles,
                "stall_cycles": ns.stall_cycles,
                "handler_cycles": ns.handler_cycles,
                "accesses": ns.accesses,
                "cache_misses": ns.cache_misses,
                "traps": sum(ns.traps.values()),
                "messages": sum(ns.messages_sent.values()),
            }
            for ns in stats.per_node
        ],
    }
    if config is not None:
        doc["config"] = dict(sorted(config.items()))
    if sampler is not None:
        doc["timeseries"] = {
            "interval": sampler.every,
            "rows": sampler.summary(),
        }
    if recorder is not None:
        doc["histograms"] = recorder.summary()
    return doc


def dumps_json(document: Dict[str, object]) -> str:
    """Serialize ``document`` with a stable key order and trailing
    newline — the one canonical artifact encoding, so identical
    documents produce byte-identical output."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def write_json(path: str, document: Dict[str, object]) -> None:
    """Write ``document`` in the canonical encoding (:func:`dumps_json`),
    so identical documents produce byte-identical files."""
    with open(path, "w") as fh:
        fh.write(dumps_json(document))
