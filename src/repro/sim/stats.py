"""Statistics collection.

Every node owns a :class:`NodeStats`; the machine aggregates them into a
:class:`RunStats` at the end of a run.  Handler-latency *samples* (used to
regenerate Tables 1 and 2 of the paper) are recorded per software request
with their full per-activity breakdown.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import Counter
from typing import Dict, List, Mapping, Optional, Tuple


class HandlerSample:
    """One software protocol-handler invocation.

    ``breakdown`` maps activity name -> cycles; ``latency`` is its sum.

    Millions of these are allocated on software-heavy runs (one per
    handler invocation, up to the machine's sample cap), so the class is
    a hand-written ``__slots__`` holder rather than a dataclass: no
    per-instance ``__dict__``, cheaper allocation, smaller footprint.
    """

    __slots__ = ("kind", "implementation", "node", "pointers", "latency",
                 "breakdown")

    def __init__(
        self,
        kind: str,  # "read" | "write" | "ack" | "last_ack" | "local" | ...
        implementation: str,  # "flexible" | "optimized"
        node: int,
        pointers: int,  # pointers handled (emptied or invalidated)
        latency: int,
        breakdown: Optional[Dict[str, int]] = None,
    ) -> None:
        self.kind = kind
        self.implementation = implementation
        self.node = node
        self.pointers = pointers
        self.latency = latency
        self.breakdown = {} if breakdown is None else breakdown

    def __repr__(self) -> str:
        return (
            f"HandlerSample(kind={self.kind!r}, "
            f"implementation={self.implementation!r}, node={self.node!r}, "
            f"pointers={self.pointers!r}, latency={self.latency!r}, "
            f"breakdown={self.breakdown!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HandlerSample):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.implementation == other.implementation
            and self.node == other.node
            and self.pointers == other.pointers
            and self.latency == other.latency
            and self.breakdown == other.breakdown
        )

    # ------------------------------------------------------------------
    # JSON form (RunStats.to_json_dict, the digest form)
    # ------------------------------------------------------------------

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "implementation": self.implementation,
            "node": self.node,
            "pointers": self.pointers,
            "latency": self.latency,
            "breakdown": dict(self.breakdown),
        }


@dataclasses.dataclass
class NodeStats:
    """Event counters for a single node."""

    node: int
    user_cycles: int = 0
    stall_cycles: int = 0
    handler_cycles: int = 0
    loads: int = 0
    stores: int = 0
    ifetches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    victim_hits: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    traps: Counter = dataclasses.field(default_factory=Counter)
    messages_sent: Counter = dataclasses.field(default_factory=Counter)
    invalidations_hw: int = 0
    invalidations_sw: int = 0
    busy_replies: int = 0
    retries: int = 0
    watchdog_activations: int = 0

    @property
    def accesses(self) -> int:
        return self.loads + self.stores + self.ifetches

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 1.0

    # ------------------------------------------------------------------
    # JSON round-trip (repro.exec result cache)
    # ------------------------------------------------------------------

    def to_json_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            doc[field.name] = dict(value) if isinstance(value, Counter) \
                else value
        return doc

    @classmethod
    def from_json_dict(cls, doc: Mapping[str, object]) -> "NodeStats":
        kwargs = dict(doc)
        kwargs["traps"] = Counter(kwargs.get("traps") or {})
        kwargs["messages_sent"] = Counter(kwargs.get("messages_sent") or {})
        return cls(**kwargs)


@dataclasses.dataclass
class RunStats:
    """Aggregated results of one simulation run."""

    run_cycles: int
    n_nodes: int
    per_node: List[NodeStats]
    handler_samples: List[HandlerSample]
    sequential_cycles: int
    worker_set_histogram: Optional[Mapping[int, int]] = None
    #: Optional cycle-attribution artifact (repro.obs.attribution),
    #: filled in when a job requests attribution.  ``None`` stays
    #: *absent* from the JSON form, so results of ordinary runs — and
    #: their pinned digests — are unchanged by this field's existence.
    attribution: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # JSON form (digests) and compact record (repro.exec result cache)
    # ------------------------------------------------------------------

    def to_json_dict(self) -> Dict[str, object]:
        """Plain-JSON representation, one dict per handler sample.

        The canonical form that :meth:`digest` hashes and that tests and
        pinned fixtures compare.  The result cache stores the compact
        :meth:`to_record` instead, which carries the same values.
        """
        return self._doc({"handler_samples": [
            s.to_json_dict() for s in self.handler_samples]})

    def to_record(self) -> Dict[str, object]:
        """Compact plain-JSON record; :meth:`from_record` inverts it.

        The :meth:`to_json_dict` fields, with ``handler_samples``
        replaced by ``breakdowns`` — the distinct breakdown dicts, keyed
        by value, in first-seen order — and ``samples``, one row
        ``[kind, implementation, node, pointers, latency, index]`` per
        sample, ``index`` naming its breakdown.  Samples vastly
        outnumber breakdowns (the quick preset's 59 results hold 35,690
        samples and 18 distinct breakdowns), so the record is about an
        eighth of the JSON form's size.

        Breakdowns are matched by value, not identity, so equal stats
        always give equal records.  The round trip is exact: every field
        collapses to ints, strings, lists and string-keyed dicts, so a
        cached result replayed from disk is ``==`` to the freshly
        computed one and every derived number (speedups, latency means,
        histograms) is bit-identical.
        """
        breakdowns: List[Dict[str, int]] = []
        by_value: Dict[Tuple[Tuple[str, int], ...], int] = {}
        rows: List[list] = []
        # Consecutive samples mostly share one breakdown dict (93% of the
        # quick preset's), so a sample whose breakdown is the previous
        # one's skips the lookup by value.
        last: Optional[Dict[str, int]] = None
        for s in self.handler_samples:
            breakdown = s.breakdown
            if breakdown is not last:
                value = tuple(sorted(breakdown.items()))
                index = by_value.get(value)
                if index is None:
                    index = by_value[value] = len(breakdowns)
                    breakdowns.append(breakdown)
                last = breakdown
            rows.append([s.kind, s.implementation, s.node, s.pointers,
                         s.latency, index])
        return self._doc({"breakdowns": breakdowns, "samples": rows})

    def _doc(self, samples: Dict[str, object]) -> Dict[str, object]:
        """Every field but the handler samples, whose entries ``samples``
        supplies, in the JSON form's key order."""
        histogram = self.worker_set_histogram
        doc: Dict[str, object] = {
            "run_cycles": self.run_cycles,
            "n_nodes": self.n_nodes,
            "sequential_cycles": self.sequential_cycles,
            "per_node": [ns.to_json_dict() for ns in self.per_node],
            **samples,
            # JSON objects have string keys; sizes are restored as ints.
            "worker_set_histogram": (
                None if histogram is None
                else {str(size): count for size, count in histogram.items()}
            ),
        }
        if self.attribution is not None:
            doc["attribution"] = self.attribution
        return doc

    @classmethod
    def from_record(cls, doc: Mapping[str, object]) -> "RunStats":
        """Inverse of :meth:`to_record`.  Samples that name the same
        breakdown share one dict, as they do in a fresh run."""
        breakdowns = doc["breakdowns"]
        histogram = doc.get("worker_set_histogram")
        return cls(
            run_cycles=doc["run_cycles"],
            n_nodes=doc["n_nodes"],
            sequential_cycles=doc["sequential_cycles"],
            per_node=[NodeStats.from_json_dict(ns)
                      for ns in doc["per_node"]],
            handler_samples=[
                HandlerSample(kind, implementation, node, pointers,
                              latency, breakdowns[index])
                for kind, implementation, node, pointers, latency, index
                in doc["samples"]],
            worker_set_histogram=(
                None if histogram is None
                else {int(size): count for size, count in histogram.items()}
            ),
            attribution=doc.get("attribution"),
        )

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form of this result.

        Two runs whose statistics are equal in *every* field — per-node
        counters, handler samples, worker-set histogram — share a
        digest.  The protocol-equivalence fixture
        (``tests/test_protocol_equivalence.py``) pins these digests so a
        refactor of the coherence engine is provably behaviour-preserving,
        not merely cycle-count-preserving.
        """
        doc = json.dumps(self.to_json_dict(), sort_keys=True,
                         separators=(",", ":"))
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def total(self, field: str) -> int:
        """Sum an integer counter field across nodes.

        Raises
        ------
        TypeError
            If ``field`` is one of the per-kind ``Counter`` fields
            (``traps``, ``messages_sent``); summing those silently
            produced a merged Counter where callers expected an int.
            Use :meth:`traps_by_kind` / :meth:`messages_by_kind` (or
            :attr:`total_traps`) instead.
        """
        values = [getattr(ns, field) for ns in self.per_node]
        for value in values:
            if not isinstance(value, int):
                raise TypeError(
                    f"RunStats.total() sums integer fields, but "
                    f"{field!r} holds {type(value).__name__}; use "
                    f"traps_by_kind() or messages_by_kind() for "
                    f"per-kind counters"
                )
        return sum(values)

    @property
    def total_traps(self) -> int:
        return sum(sum(ns.traps.values()) for ns in self.per_node)

    def traps_by_kind(self) -> Counter:
        out: Counter = Counter()
        for ns in self.per_node:
            out.update(ns.traps)
        return out

    def messages_by_kind(self) -> Counter:
        out: Counter = Counter()
        for ns in self.per_node:
            out.update(ns.messages_sent)
        return out

    @property
    def speedup(self) -> float:
        """Speedup over a sequential run without multiprocessor overhead.

        This matches the paper's Figure 4 metric: the denominator is the
        time the same work would take on one node with every access a
        cache hit.
        """
        if self.run_cycles == 0:
            return 0.0
        return self.sequential_cycles / self.run_cycles

    @property
    def processor_utilization(self) -> float:
        """Fraction of processor cycles spent running user code."""
        total = self.run_cycles * self.n_nodes
        return self.total("user_cycles") / total if total else 0.0

    def mean_handler_latency(self, kind: str, implementation: str) -> float:
        """Mean latency of handler invocations of ``kind``."""
        vals = [
            s.latency
            for s in self.handler_samples
            if s.kind == kind and s.implementation == implementation
        ]
        return sum(vals) / len(vals) if vals else 0.0

    def handler_latency_histogram(self, kind: str, implementation: str):
        """Full latency distribution of ``kind`` handlers as a
        :class:`repro.obs.hist.Histogram` (p50/p90/p99 queries), built
        from the stored samples.  The mean view above survives for the
        paper's tables; tail questions go through this."""
        from repro.obs.hist import Histogram

        hist = Histogram()
        for s in self.handler_samples:
            if s.kind == kind and s.implementation == implementation:
                hist.add(s.latency)
        return hist

    def median_handler_sample(
        self, kind: str, implementation: str
    ) -> Optional[HandlerSample]:
        """The median-latency sample of ``kind`` (Table 2's methodology)."""
        samples = sorted(
            (
                s
                for s in self.handler_samples
                if s.kind == kind and s.implementation == implementation
            ),
            key=lambda s: s.latency,
        )
        if not samples:
            return None
        return samples[len(samples) // 2]
