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
:class:`~repro.obs.events.StallSpan` ``[start, end)`` is cut into
elementary segments at every edge of its activity intervals, and every
segment is assigned to exactly one bucket (overlaps resolved by a fixed
priority, gaps classified by what the transaction was waiting on), so
the bucket totals sum cycle-for-cycle to ``RunStats``' total stall
count.  No sampling, no residual.  Each overlap priority names exactly
one bucket, so one sweep over the sorted interval edges, keeping a live
count per priority, finds every segment's bucket: O(n log n) in a
stall's intervals, not a scan of all of them per segment.

Attribution reads stalls, messages, traps and handler spans.  It
leaves the bus's ``transition`` channel unsubscribed unless a trace is
to be shown (:meth:`AttributionReport.attach`).

Everything here is a pure function of collected events — deterministic,
no wall-clock — so the JSON artifact (:func:`attribution_dict`) is
byte-stable across runs and fit for committed baselines
(``repro diff``).
"""

from __future__ import annotations

import weakref
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

#: message kind -> overlap priority
_MSG_PRIO: Dict[str, int] = {
    kind: prio for kind, (_bucket, prio) in _MSG_BUCKETS.items()
}
_DEFAULT_MSG_PRIO = _DEFAULT_MSG_BUCKET[1]


def _prio_buckets() -> Tuple[Optional[str], ...]:
    """Overlap priority -> the one bucket it names (index 0, no live
    activity, names none): the sweep's answer for a covered segment."""
    named = list(_MSG_BUCKETS.values()) + [
        _DEFAULT_MSG_BUCKET,
        ("trap_dispatch", _TRAP_WAIT_PRIO),
        ("handler_execution", _HANDLER_PRIO),
    ]
    table: List[Optional[str]] = [None] * (max(p for _b, p in named) + 1)
    for bucket, prio in named:
        if table[prio] not in (None, bucket):
            raise ValueError(f"overlap priority {prio} names both "
                             f"{table[prio]} and {bucket}")
        table[prio] = bucket
    return tuple(table)


_PRIO_BUCKET = _prio_buckets()


def attribute_stall(stall: StallSpan,
                    trace: Optional[TransactionTrace] = None
                    ) -> Dict[str, int]:
    """Decompose one stall span into bucket -> cycles.

    The returned values sum exactly to ``stall.latency``.  Stalls that
    opened no transaction (ifetch / lock / reduce / sw_wait — or a data
    miss observed without a trace, which only happens if the message
    channel was not recorded) map wholesale to their kind's bucket.

    A data miss is split by one sweep over its activity intervals'
    edges: each ``(time, +prio)`` / ``(time, -prio)`` edge moves a live
    count per overlap priority, and the cycles up to the next edge go
    to the bucket of the highest live priority.
    """
    s, e = stall.start, stall.end
    if e <= s:
        return {}
    if stall.kind not in ("read", "write") or trace is None:
        bucket = _STALL_KIND_BUCKET.get(stall.kind, "cache_lookup")
        return {bucket: e - s}

    # -- activity interval edges, clipped to the stall window ----------
    edges: List[Tuple[int, int]] = []
    #: (clipped end, sent order, message kind), for gap classification
    ends: List[Tuple[int, int, str]] = []
    prio_of = _MSG_PRIO.get
    for order, m in enumerate(trace.messages):
        lo = m.sent_at if m.sent_at > s else s
        hi = m.delivered_at if m.delivered_at < e else e
        if lo < hi:
            prio = prio_of(m.kind, _DEFAULT_MSG_PRIO)
            edges.append((lo, prio))
            edges.append((hi, -prio))
            ends.append((hi, order, m.kind))
    if trace.handlers:
        by_node: Dict[int, List] = {}
        for h in trace.handlers:
            lo = h.start if h.start > s else s
            hi = h.end if h.end < e else e
            if lo < hi:
                edges.append((lo, _HANDLER_PRIO))
                edges.append((hi, -_HANDLER_PRIO))
            by_node.setdefault(h.node, []).append(h)
        # Trap-to-handler dispatch wait: pair traps with handler spans
        # per node in posting order (run_handler emits the trap
        # immediately before queueing its handler, so order matches by
        # construction).  A trap with no handler has no wait interval.
        seen: Dict[int, int] = {}
        for t in trace.traps:
            queue = by_node.get(t.node, ())
            index = seen.get(t.node, 0)
            seen[t.node] = index + 1
            if index >= len(queue):
                continue
            lo = t.at if t.at > s else s
            hi = queue[index].start
            if hi > e:
                hi = e
            if lo < hi:
                edges.append((lo, _TRAP_WAIT_PRIO))
                edges.append((hi, -_TRAP_WAIT_PRIO))

    if not edges:
        return {"cache_lookup": e - s}
    edges.sort()
    edges.append((e, 0))  # closes the last segment; moves no count
    ends.sort()

    # -- one sweep over the sorted edges -------------------------------
    # Before the first interval opens the miss is being detected and
    # composed.  A later gap, with nothing of the transaction in
    # flight, is retry backoff if the last message delivered was BUSY
    # and the home holding the transaction otherwise.
    result: Dict[str, int] = {}
    at = edges[0][0]
    if at > s:
        result["cache_lookup"] = at - s
    live = [0] * len(_PRIO_BUCKET)
    live[0] = 1  # sentinel: the walk down to the top live priority stops
    covered = [0] * len(_PRIO_BUCKET)
    top = 0
    ei = 0
    last_delivered: Optional[str] = None
    for t, prio in edges:
        if t > at:
            if top:
                covered[top] += t - at
            else:
                while ei < len(ends) and ends[ei][0] <= at:
                    last_delivered = ends[ei][2]
                    ei += 1
                gap = "retry" if last_delivered == "busy" \
                    else "home_occupancy"
                result[gap] = result.get(gap, 0) + (t - at)
            at = t
        if prio > 0:
            live[prio] += 1
            if prio > top:
                top = prio
        elif prio < 0:
            live[-prio] -= 1
            while not live[top]:
                top -= 1
    for prio, cycles in enumerate(covered):
        if cycles:
            bucket = _PRIO_BUCKET[prio]
            result[bucket] = result.get(bucket, 0) + cycles
    return result


class AttributionReport:
    """Aggregated attribution over every stall of one run.

    Built incrementally: :meth:`attach` subscribes :meth:`add` to a
    :class:`~repro.obs.spans.SpanCollector`, which splits each stall
    into buckets the moment it completes and then drops its trace.
    Each stall updates one ``{cycles: stalls}`` count per bucket it
    splits into, kept per stall kind; :attr:`totals`,
    :attr:`by_stall_kind` and :attr:`hists` are derived from those
    counts when read.
    """

    def __init__(self) -> None:
        #: stall kind -> bucket -> {cycles: stalls with that many}
        self._counts: Dict[str, Dict[str, Dict[int, int]]] = {}
        self.total_cycles = 0
        self.n_stalls = 0
        self.n_transactions = 0
        self._collector: Optional["weakref.ref[SpanCollector]"] = None

    @property
    def collector(self) -> Optional[SpanCollector]:
        """The collector feeding this report (set by :meth:`attach`);
        add more completion subscribers to it to keep traces.

        The collector holds :meth:`add`, so the report holds it only
        weakly: it lives as long as the machine whose bus feeds it, and
        this is ``None`` once that machine is freed.
        """
        return None if self._collector is None else self._collector()

    @classmethod
    def attach(cls, machine: "Machine",
               transitions: bool = False) -> "AttributionReport":
        """A report fed by a new collector on ``machine``'s bus; it is
        complete once ``machine.run`` returns.

        The split never reads directory transitions, so the collector
        subscribes to the ``transition`` channel only when
        ``transitions`` is set (to show a trace with
        :func:`~repro.obs.spans.format_trace`).
        """
        report = cls()
        collector = SpanCollector.attach(machine, transitions=transitions)
        collector.on_complete.append(report.add)
        report._collector = weakref.ref(collector)
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
        per_kind = self._counts.get(stall.kind)
        if per_kind is None:
            per_kind = self._counts[stall.kind] = {}
        for bucket, cycles in parts.items():
            counts = per_kind.get(bucket)
            if counts is None:
                per_kind[bucket] = {cycles: 1}
            else:
                counts[cycles] = counts.get(cycles, 0) + 1

    @property
    def by_stall_kind(self) -> Dict[str, Dict[str, int]]:
        """Stall kind -> bucket -> cycles."""
        return {
            kind: {bucket: sum(c * n for c, n in counts.items())
                   for bucket, counts in per_kind.items()}
            for kind, per_kind in self._counts.items()
        }

    @property
    def totals(self) -> Dict[str, int]:
        """Bucket -> cycles, over every stall kind."""
        totals: Dict[str, int] = {}
        for parts in self.by_stall_kind.values():
            for bucket, cycles in parts.items():
                totals[bucket] = totals.get(bucket, 0) + cycles
        return totals

    @property
    def hists(self) -> HistogramSet:
        """Per bucket, the histogram of each stall's cycles in it."""
        hists = HistogramSet()
        for per_kind in self._counts.values():
            for bucket, counts in per_kind.items():
                for cycles, stalls in counts.items():
                    hists.record(bucket, cycles, stalls)
        return hists

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
    totals = report.totals
    buckets = {b: totals.get(b, 0) for b in BUCKETS}
    shares = {
        b: (round(v / total, 6) if total else 0.0)
        for b, v in buckets.items()
    }
    percentiles = report.hists.summary()
    by_kind = {kind: {b: parts[b] for b in sorted(parts)}
               for kind, parts in sorted(report.by_stall_kind.items())}
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
