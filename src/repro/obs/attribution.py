"""Critical-path cycle attribution for coherence transactions.

The paper's evaluation is cycle *accounting*: runtime split into user
cycles, memory stalls, and protocol software overhead, with handler
occupancy attributed per protocol point (Tables 1-2, Figures 4-6).
This module pushes the same discipline one level deeper — every stall
cycle of every transaction is placed into exactly one named bucket:

================== ==================================================
bucket             meaning
================== ==================================================
cache_lookup       miss detection before the request enters the fabric
network_transit    request/grant flits in endpoint queues and switches
home_occupancy     waiting at the home: memory/directory latency and
                   queueing behind earlier transactions
trap_dispatch      a posted trap waiting for the software context
handler_execution  protocol handler occupancy (incl. dispatch overhead)
inv_fanout         invalidation / owner-fetch messages in flight
ack_gather         acknowledgements (and fetched data) returning home
retry              BUSY replies in flight plus the retry backoff
ifetch_fill        instruction fill from local memory (no transaction)
lock_wait          blocked in the FIFO lock queue
reduce_wait        blocked in the combining-tree reduction
sw_context_wait    user code waiting for the busy software context
================== ==================================================

The decomposition is **exact by construction**: each
:class:`~repro.obs.events.StallSpan` ``[start, end)`` is swept as a set
of elementary segments, every segment is assigned to exactly one bucket
(overlaps resolved by a fixed priority, gaps classified by what the
transaction was waiting on), so the bucket totals sum cycle-for-cycle
to ``RunStats``' total stall count.  No sampling, no residual.

Everything here is a pure function of collected events — deterministic,
no wall-clock — so the JSON artifact (:func:`attribution_dict`) is
byte-stable across runs and fit for committed baselines
(``repro diff``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.obs.events import StallSpan
from repro.obs.hist import HistogramSet
from repro.obs.spans import SpanCollector, TransactionTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.machine import Machine

__all__ = [
    "ATTRIBUTION_SCHEMA",
    "BUCKETS",
    "MISS_BUCKETS",
    "AttributionReport",
    "attribute_stall",
    "attribution_dict",
]

#: Artifact schema tag; bump on incompatible layout changes.
ATTRIBUTION_SCHEMA = "repro-attribution/1"

#: Buckets a data-miss stall can decompose into.
MISS_BUCKETS = (
    "cache_lookup",
    "network_transit",
    "home_occupancy",
    "trap_dispatch",
    "handler_execution",
    "inv_fanout",
    "ack_gather",
    "retry",
)

#: Whole-stall buckets for stalls that open no coherence transaction.
AUX_BUCKETS = (
    "ifetch_fill",
    "lock_wait",
    "reduce_wait",
    "sw_context_wait",
)

BUCKETS = MISS_BUCKETS + AUX_BUCKETS

_STALL_KIND_BUCKET = {
    "ifetch": "ifetch_fill",
    "lock": "lock_wait",
    "reduce": "reduce_wait",
    "sw_wait": "sw_context_wait",
}

#: message kind -> (bucket, overlap priority).  Higher priority wins
#: when activity overlaps: a cycle spent both "in the network" and
#: "inside a handler" is protocol-software time, not transit time.
_MSG_BUCKETS: Dict[str, Tuple[str, int]] = {
    "inv": ("inv_fanout", 4),
    "fetch_rd": ("inv_fanout", 4),
    "fetch_inv": ("inv_fanout", 4),
    "ack": ("ack_gather", 3),
    "fetch_data": ("ack_gather", 3),
    "busy": ("retry", 2),
}
_DEFAULT_MSG_BUCKET = ("network_transit", 1)

_HANDLER_PRIO = 6
_TRAP_WAIT_PRIO = 5


def attribute_stall(stall: StallSpan,
                    trace: Optional[TransactionTrace] = None
                    ) -> Dict[str, int]:
    """Decompose one stall span into bucket -> cycles.

    The returned values sum exactly to ``stall.latency``.  Stalls that
    opened no transaction (ifetch / lock / reduce / sw_wait — or a data
    miss observed without a trace, which only happens if the message
    channel was not recorded) map wholesale to their kind's bucket.
    """
    s, e = stall.start, stall.end
    if e <= s:
        return {}
    if stall.kind not in ("read", "write") or trace is None:
        bucket = _STALL_KIND_BUCKET.get(stall.kind, "cache_lookup")
        return {bucket: e - s}

    # -- labelled activity intervals, clipped to the stall window ------
    intervals: List[Tuple[int, int, int, str]] = []
    #: (clipped end, sent order) -> message kind, for gap classification
    ends: List[Tuple[int, int, str]] = []
    for order, m in enumerate(trace.messages):
        lo, hi = max(m.sent_at, s), min(m.delivered_at, e)
        if lo < hi:
            bucket, prio = _MSG_BUCKETS.get(m.kind, _DEFAULT_MSG_BUCKET)
            intervals.append((lo, hi, prio, bucket))
            ends.append((hi, order, m.kind))
    for h in trace.handlers:
        lo, hi = max(h.start, s), min(h.end, e)
        if lo < hi:
            intervals.append((lo, hi, _HANDLER_PRIO, "handler_execution"))
    # Trap-to-handler dispatch wait: pair traps with handler spans per
    # node in posting order (run_handler emits the trap immediately
    # before queueing its handler, so order matches by construction).
    by_node: Dict[int, List] = {}
    for h in trace.handlers:
        by_node.setdefault(h.node, []).append(h)
    seen: Dict[int, int] = {}
    for t in trace.traps:
        queue = by_node.get(t.node, ())
        index = seen.get(t.node, 0)
        seen[t.node] = index + 1
        if index >= len(queue):
            continue
        h = queue[index]
        lo, hi = max(t.at, s), min(h.start, e)
        if lo < hi:
            intervals.append((lo, hi, _TRAP_WAIT_PRIO, "trap_dispatch"))

    if not intervals:
        return {"cache_lookup": e - s}

    # -- sweep elementary segments -------------------------------------
    points = {s, e}
    first_start = e
    for lo, hi, _prio, _bucket in intervals:
        points.add(lo)
        points.add(hi)
        if lo < first_start:
            first_start = lo
    bounds = sorted(points)
    ends.sort()

    result: Dict[str, int] = {}
    ei = 0
    last_delivered: Optional[str] = None
    for i in range(len(bounds) - 1):
        lo, hi = bounds[i], bounds[i + 1]
        while ei < len(ends) and ends[ei][0] <= lo:
            last_delivered = ends[ei][2]
            ei += 1
        best_prio = 0
        bucket = ""
        for ilo, ihi, prio, ibucket in intervals:
            if ilo <= lo and hi <= ihi and prio > best_prio:
                best_prio = prio
                bucket = ibucket
        if not bucket:
            # A gap: nothing of this transaction is in flight.  Before
            # the first message it is the miss being detected/composed;
            # after a BUSY it is retry backoff; otherwise the home (or
            # its memory) is holding the transaction.
            if lo < first_start:
                bucket = "cache_lookup"
            elif last_delivered == "busy":
                bucket = "retry"
            else:
                bucket = "home_occupancy"
        result[bucket] = result.get(bucket, 0) + (hi - lo)
    return result


class AttributionReport:
    """Aggregated attribution over every stall of one run.

    Built incrementally: :meth:`attach` subscribes :meth:`add` to a
    :class:`~repro.obs.spans.SpanCollector`, which splits each stall
    into buckets the moment it completes and then drops its trace.
    """

    def __init__(self) -> None:
        self.totals: Dict[str, int] = {}
        self.by_stall_kind: Dict[str, Dict[str, int]] = {}
        #: per-stall bucket cycles (percentile queries per bucket)
        self.hists = HistogramSet()
        self.total_cycles = 0
        self.n_stalls = 0
        self.n_transactions = 0
        #: the collector feeding this report (set by :meth:`attach`);
        #: add more completion subscribers to it to keep traces
        self.collector: Optional[SpanCollector] = None

    @classmethod
    def attach(cls, machine: "Machine") -> "AttributionReport":
        """A report fed by a new collector on ``machine``'s bus; it is
        complete once ``machine.run`` returns."""
        report = cls()
        report.collector = SpanCollector.attach(machine)
        report.collector.on_complete.append(report.add)
        return report

    def add(self, stall: StallSpan,
            trace: Optional[TransactionTrace]) -> None:
        """Account one completed stall (``trace`` is ``None`` for a
        stall that opened no transaction)."""
        parts = attribute_stall(stall, trace)
        self.n_stalls += 1
        if trace is not None:
            self.n_transactions += 1
        self.total_cycles += stall.end - stall.start
        per_kind = self.by_stall_kind.setdefault(stall.kind, {})
        totals = self.totals
        record = self.hists.record
        for bucket in sorted(parts):
            cycles = parts[bucket]
            totals[bucket] = totals.get(bucket, 0) + cycles
            per_kind[bucket] = per_kind.get(bucket, 0) + cycles
            record(bucket, cycles)

    @property
    def attributed_cycles(self) -> int:
        return sum(self.totals.values())

    @property
    def residual(self) -> int:
        """Stall cycles not placed in any bucket — zero by construction."""
        return self.total_cycles - self.attributed_cycles


def attribution_dict(report: AttributionReport,
                     config: Optional[Dict[str, object]] = None
                     ) -> Dict[str, object]:
    """Deterministic JSON-ready artifact (the `repro analyze` output).

    Key order is irrelevant — serialise with ``sort_keys=True`` (see
    :func:`repro.obs.export.write_json`); values contain no wall-clock,
    no paths, no floats beyond fixed-precision rounding.
    """
    total = report.total_cycles
    buckets = {b: report.totals.get(b, 0) for b in BUCKETS}
    shares = {
        b: (round(v / total, 6) if total else 0.0)
        for b, v in buckets.items()
    }
    percentiles = {}
    for key in report.hists.keys():
        percentiles[key] = report.hists[key].summary()
    by_kind = {}
    for kind in sorted(report.by_stall_kind):
        parts = report.by_stall_kind[kind]
        by_kind[kind] = {b: parts[b] for b in sorted(parts)}
    return {
        "schema": ATTRIBUTION_SCHEMA,
        "config": dict(config) if config else {},
        "stall_cycles": total,
        "attributed_cycles": report.attributed_cycles,
        "residual": report.residual,
        "buckets": buckets,
        "shares": shares,
        "by_stall_kind": by_kind,
        "percentiles": percentiles,
        "counts": {
            "stalls": report.n_stalls,
            "transactions": report.n_transactions,
        },
    }
