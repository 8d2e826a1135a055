"""Tests for cycle-accounting attribution (repro.obs.attribution) and
cross-run diffing (repro.analysis.regression).

The headline acceptance property: on the 16-node WORKER stress test the
bucket totals sum *exactly* to the run's total stall cycles — every
stall cycle lands in exactly one named bucket, residual zero.
"""

import hashlib
import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.regression import diff_attributions, format_diff
from repro.core.software.costmodel import CostModel, HandlerCost
from repro.exec.jobs import execute_job, make_job
from repro.machine.machine import Machine
from repro.machine.node import _BARRIER
from repro.machine.params import MachineParams
from repro.machine.sync import LOCK_KINDS, REDUCE_KINDS
from repro.obs import (
    BUCKETS,
    AttributionReport,
    attribute_stall,
    attribution_dict,
)
from repro.obs.attribution import (
    _DEFAULT_MSG_BUCKET,
    _HANDLER_PRIO,
    _MSG_BUCKETS,
    _STALL_KIND_BUCKET,
    _TRAP_WAIT_PRIO,
)
from repro.obs.events import HandlerSpan, StallSpan, TrapPosted
from repro.obs.hist import HistogramSet
from repro.obs.spans import SpanCollector, TransactionTrace
from repro.workloads.aq import AdaptiveQuadrature
from repro.workloads.tsp import TSP
from repro.workloads.worker import WorkerBenchmark

from tests.helpers import ScriptWorkload, sent_message

DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "data",
                            "attribution_digests.json")


def attributed_worker(protocol="DirnH2SNB", size=6, iterations=2):
    machine = Machine(MachineParams(n_nodes=16), protocol=protocol)
    report = AttributionReport.attach(machine)
    stats = machine.run(WorkerBenchmark(worker_set_size=size,
                                        iterations=iterations))
    return stats, report


def synthetic_trace(stall, messages=(), handlers=(), traps=()):
    trace = TransactionTrace(stall.txn)
    trace.stall = stall
    trace.messages.extend(messages)
    trace.handlers.extend(handlers)
    trace.traps.extend(traps)
    return trace


# ----------------------------------------------------------------------
# Single-stall decomposition on hand-built traces
# ----------------------------------------------------------------------


class TestAttributeStall:
    def test_plain_read_miss(self):
        # request out, home thinks, data back: three phases, no gaps
        # unaccounted.
        stall = StallSpan(node=0, start=0, end=100, kind="read",
                          block=7, txn=1)
        trace = synthetic_trace(stall, messages=[
            sent_message(0, 1, "rreq", 2, 5, 15, block=7, txn=1),
            sent_message(1, 0, "rdata", 18, 80, 100, block=7, txn=1),
        ])
        parts = attribute_stall(stall, trace)
        assert parts == {
            "cache_lookup": 5,       # before the request leaves
            "network_transit": 30,   # rreq 10 + rdata 20
            "home_occupancy": 65,    # the home holds the transaction
        }
        assert sum(parts.values()) == stall.latency

    def test_busy_retry_backoff(self):
        stall = StallSpan(node=0, start=0, end=50, kind="read",
                          block=7, txn=1)
        trace = synthetic_trace(stall, messages=[
            sent_message(0, 1, "rreq", 2, 0, 10, block=7, txn=1),
            sent_message(1, 0, "busy", 2, 10, 20, block=7, txn=1),
            sent_message(0, 1, "rreq", 2, 30, 40, block=7, txn=1),
            sent_message(1, 0, "rdata", 18, 40, 50, block=7, txn=1),
        ])
        parts = attribute_stall(stall, trace)
        # busy flight + the gap after its delivery are both retry time
        assert parts == {"network_transit": 30, "retry": 20}
        assert sum(parts.values()) == 50

    def test_trap_dispatch_and_handler(self):
        stall = StallSpan(node=0, start=0, end=100, kind="read",
                          block=7, txn=1)
        trace = synthetic_trace(
            stall,
            messages=[
                sent_message(0, 1, "rreq", 2, 0, 10, block=7, txn=1),
                sent_message(1, 0, "rdata", 18, 60, 100, block=7, txn=1),
            ],
            handlers=[HandlerSpan(1, 30, 60, "read", "flexible", 2, 30,
                                  txn=1)],
            traps=[TrapPosted(1, "read", 10, 30, 2, txn=1)],
        )
        parts = attribute_stall(stall, trace)
        assert parts == {
            "network_transit": 50,
            "trap_dispatch": 20,      # posted at 10, started at 30
            "handler_execution": 30,
        }
        assert sum(parts.values()) == 100

    def test_inv_fanout_outranks_ack_gather(self):
        stall = StallSpan(node=0, start=0, end=100, kind="write",
                          block=7, txn=1)
        trace = synthetic_trace(stall, messages=[
            sent_message(0, 1, "wreq", 2, 0, 10, block=7, txn=1),
            sent_message(1, 2, "inv", 2, 10, 30, block=7, txn=1),
            sent_message(2, 1, "ack", 2, 20, 40, block=7, txn=1),
            sent_message(1, 0, "wdata", 18, 40, 100, block=7, txn=1),
        ])
        parts = attribute_stall(stall, trace)
        # the inv/ack overlap [20,30) counts as fan-out, not gathering
        assert parts == {
            "network_transit": 70,
            "inv_fanout": 20,
            "ack_gather": 10,
        }
        assert sum(parts.values()) == 100

    def test_non_miss_stalls_map_wholesale(self):
        for kind, bucket in (("ifetch", "ifetch_fill"),
                             ("lock", "lock_wait"),
                             ("reduce", "reduce_wait"),
                             ("sw_wait", "sw_context_wait")):
            stall = StallSpan(node=3, start=10, end=35, kind=kind)
            assert attribute_stall(stall, None) == {bucket: 25}

    def test_empty_stall_is_empty(self):
        assert attribute_stall(
            StallSpan(node=0, start=5, end=5, kind="read"), None) == {}

    def test_traceless_miss_is_cache_lookup(self):
        # only possible when message events were not recorded
        stall = StallSpan(node=0, start=0, end=40, kind="read", txn=9)
        assert attribute_stall(stall, None) == {"cache_lookup": 40}


# ----------------------------------------------------------------------
# The edge sweep against a direct per-segment scan
# ----------------------------------------------------------------------


def reference_attribute_stall(stall, trace=None):
    """``attribute_stall`` written as a direct scan: every elementary
    segment searches every interval for the highest-priority one that
    covers it.  Quadratic, and the oracle the edge sweep must match."""
    s, e = stall.start, stall.end
    if e <= s:
        return {}
    if stall.kind not in ("read", "write") or trace is None:
        bucket = _STALL_KIND_BUCKET.get(stall.kind, "cache_lookup")
        return {bucket: e - s}

    intervals = []
    #: (clipped end, sent order, message kind), for gap classification
    ends = []
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
    by_node = {}
    for h in trace.handlers:
        by_node.setdefault(h.node, []).append(h)
    seen = {}
    for t in trace.traps:
        queue = by_node.get(t.node, ())
        index = seen.get(t.node, 0)
        seen[t.node] = index + 1
        if index >= len(queue):
            continue
        lo, hi = max(t.at, s), min(queue[index].start, e)
        if lo < hi:
            intervals.append((lo, hi, _TRAP_WAIT_PRIO, "trap_dispatch"))

    if not intervals:
        return {"cache_lookup": e - s}

    points = {s, e}
    first_start = e
    for lo, hi, _prio, _bucket in intervals:
        points.add(lo)
        points.add(hi)
        first_start = min(first_start, lo)
    bounds = sorted(points)
    ends.sort()

    result = {}
    ei = 0
    last_delivered = None
    for lo, hi in zip(bounds, bounds[1:]):
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
            if lo < first_start:
                bucket = "cache_lookup"
            elif last_delivered == "busy":
                bucket = "retry"
            else:
                bucket = "home_occupancy"
        result[bucket] = result.get(bucket, 0) + (hi - lo)
    return result


#: times drawn from a narrow range, so endpoints are often shared and
#: intervals often reach past the stall window on either side
_TIME = st.integers(min_value=0, max_value=40)
_NODE = st.integers(min_value=0, max_value=2)


@st.composite
def _span(draw):
    a, b = draw(_TIME), draw(_TIME)
    return min(a, b), max(a, b)


@st.composite
def _messages(draw):
    out = []
    for kind in draw(st.lists(st.sampled_from(
            ["busy", "inv", "ack", "fetch_data", "rreq", "rdata"]),
            max_size=8)):
        lo, hi = draw(_span())
        out.append(sent_message(0, 1, kind, 2, lo, hi, block=7, txn=1))
    return out


@st.composite
def _handlers(draw):
    out = []
    for node in draw(st.lists(_NODE, max_size=4)):
        lo, hi = draw(_span())
        out.append(HandlerSpan(node, lo, hi, "read", "flexible", 1,
                               hi - lo, txn=1))
    return out


@st.composite
def _traps(draw):
    return [TrapPosted(node, "read", at, 10, 1, txn=1)
            for node, at in draw(st.lists(st.tuples(_NODE, _TIME),
                                          max_size=5))]


class TestSweepMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(window=_span(), kind=st.sampled_from(["read", "write"]),
           messages=_messages(), handlers=_handlers(), traps=_traps())
    def test_generated_traces(self, window, kind, messages, handlers,
                              traps):
        stall = StallSpan(node=0, start=window[0], end=window[1],
                          kind=kind, block=7, txn=1)
        trace = synthetic_trace(stall, messages, handlers, traps)
        parts = attribute_stall(stall, trace)
        assert parts == reference_attribute_stall(stall, trace)
        assert sum(parts.values()) == stall.latency

    def test_every_stall_of_a_software_worker_run(self):
        # DirnH1SNB,ACK traps to software, runs handlers and sends BUSY
        # replies, so every bucket kind and the trap pairing are hit.
        machine = Machine(MachineParams(n_nodes=16),
                          protocol="DirnH1SNB,ACK")
        collector = SpanCollector.attach(machine)
        pairs = []
        collector.on_complete.append(lambda s, t: pairs.append((s, t)))
        machine.run(WorkerBenchmark(worker_set_size=6, iterations=2))
        traced = [t for _s, t in pairs if t is not None]
        assert any(t.handlers for t in traced)
        assert any(t.traps for t in traced)
        assert any(t.retries for t in traced)
        for stall, trace in pairs:
            assert attribute_stall(stall, trace) == \
                reference_attribute_stall(stall, trace)


# ----------------------------------------------------------------------
# The acceptance property: exact accounting on real runs
# ----------------------------------------------------------------------


class TestExactAccounting:
    def test_worker16_buckets_sum_to_total_stall_cycles(self):
        # One hardware-pointer config, the paper's stress test.
        stats, report = attributed_worker(protocol="DirnH2SNB")
        total_stall = stats.total("stall_cycles")
        assert total_stall > 0
        assert report.total_cycles == total_stall
        assert sum(report.totals.values()) == total_stall
        assert report.residual == 0

    @pytest.mark.parametrize("protocol", [
        "DirnH5SNB", "DirnH1SNB,ACK", "DirnHNBS-",
    ])
    def test_exact_across_the_spectrum(self, protocol):
        stats, report = attributed_worker(protocol=protocol,
                                          size=4, iterations=1)
        assert report.total_cycles == stats.total("stall_cycles")
        assert report.residual == 0

    def test_software_protocol_exercises_sw_buckets(self):
        _stats, report = attributed_worker(protocol="DirnH1SNB,ACK",
                                           size=4, iterations=1)
        assert report.totals.get("handler_execution", 0) > 0
        assert report.totals.get("trap_dispatch", 0) > 0
        assert report.totals.get("retry", 0) > 0

    def test_by_stall_kind_is_consistent(self):
        _stats, report = attributed_worker(size=4, iterations=1)
        for kind, parts in report.by_stall_kind.items():
            for bucket in parts:
                assert bucket in BUCKETS
        rollup = {}
        for parts in report.by_stall_kind.values():
            for bucket, cycles in parts.items():
                rollup[bucket] = rollup.get(bucket, 0) + cycles
        assert rollup == report.totals


# ----------------------------------------------------------------------
# The artifact
# ----------------------------------------------------------------------


class TestAttributionDict:
    def test_shape_and_invariants(self):
        _stats, report = attributed_worker(size=4, iterations=1)
        doc = attribution_dict(report, config={"app": "worker"})
        assert doc["schema"] == "repro-attribution/1"
        assert doc["config"] == {"app": "worker"}
        assert doc["residual"] == 0
        assert set(doc["buckets"]) == set(BUCKETS)
        assert sum(doc["buckets"].values()) == doc["stall_cycles"]
        assert doc["counts"]["transactions"] > 0
        for bucket, share in doc["shares"].items():
            assert 0.0 <= share <= 1.0
        for bucket, summary in doc["percentiles"].items():
            assert summary["count"] > 0
            assert summary["p50"] <= summary["p99"] <= summary["max"]

    def test_artifact_is_byte_deterministic(self):
        _s1, r1 = attributed_worker(size=4, iterations=1)
        _s2, r2 = attributed_worker(size=4, iterations=1)
        blob1 = json.dumps(attribution_dict(r1), sort_keys=True)
        blob2 = json.dumps(attribution_dict(r2), sort_keys=True)
        assert blob1 == blob2


# ----------------------------------------------------------------------
# Cross-run diffing
# ----------------------------------------------------------------------


class TestDiff:
    def test_identical_runs_diff_to_zero(self):
        _s1, r1 = attributed_worker(size=4, iterations=1)
        _s2, r2 = attributed_worker(size=4, iterations=1)
        doc = diff_attributions(attribution_dict(r1),
                                attribution_dict(r2))
        assert doc["ok"]
        assert doc["regressions"] == []
        assert doc["stall_cycles"]["delta"] == 0
        for row in doc["buckets"].values():
            assert row["delta"] == 0
            assert not row["flagged"]
        assert "OK" in format_diff(doc)

    def test_rejects_non_attribution_artifacts(self):
        with pytest.raises(ValueError):
            diff_attributions({"schema": "repro-metrics/1"}, {})

    def test_seeded_handler_slowdown_lands_in_its_bucket(self,
                                                        monkeypatch):
        # Baseline, then re-run with every read-overflow handler 10
        # cycles slower.  The diff must attribute the growth to
        # handler_execution — not report it as unexplained drift.
        _s0, r0 = attributed_worker(protocol="DirnH1SNB,ACK",
                                    size=4, iterations=1)
        baseline = attribution_dict(r0)

        original = CostModel.read_overflow

        def slower(self, pointers_emptied, small=False):
            cost = original(self, pointers_emptied, small)
            breakdown = dict(cost.breakdown)
            breakdown["protocol-specific dispatch"] = (
                breakdown.get("protocol-specific dispatch", 0) + 10)
            return HandlerCost(cost.latency + 10, breakdown,
                               cost.per_message_spacing)

        monkeypatch.setattr(CostModel, "read_overflow", slower)
        _s1, r1 = attributed_worker(protocol="DirnH1SNB,ACK",
                                    size=4, iterations=1)
        perturbed = attribution_dict(r1)

        grown = (perturbed["buckets"]["handler_execution"]
                 - baseline["buckets"]["handler_execution"])
        assert grown > 0

        doc = diff_attributions(baseline, perturbed,
                                rel_threshold=0.01, abs_floor=50)
        assert not doc["ok"]
        assert "handler_execution" in doc["regressions"]
        assert doc["buckets"]["handler_execution"]["flagged"]
        assert "REGRESSED" in format_diff(doc)

    def test_improvements_never_fail(self):
        _s0, r0 = attributed_worker(size=4, iterations=1)
        base = attribution_dict(r0)
        better = json.loads(json.dumps(base))
        better["buckets"]["handler_execution"] = 0
        doc = diff_attributions(base, better, abs_floor=0)
        assert doc["ok"]
        assert "handler_execution" in doc["improvements"]

    def test_per_bucket_threshold_override(self):
        _s0, r0 = attributed_worker(size=4, iterations=1)
        base = attribution_dict(r0)
        worse = json.loads(json.dumps(base))
        worse["buckets"]["retry"] = base["buckets"]["retry"] + 1000
        strict = diff_attributions(base, worse, rel_threshold=1000.0,
                                   abs_floor=10,
                                   bucket_thresholds={"retry": 0.0})
        assert "retry" in strict["regressions"]
        lax = diff_attributions(base, worse, rel_threshold=0.0,
                                abs_floor=10,
                                bucket_thresholds={"retry": 1e9})
        assert "retry" not in lax["regressions"]


# ----------------------------------------------------------------------
# Streaming attribution against digests pinned before it streamed
# ----------------------------------------------------------------------


class RelabelledTSP(TSP):
    """TSP's seed-7 instance with cities ``1..n-1`` renamed by a shuffle
    drawn from ``labelling`` (the benchmark's ``tsp64`` inputs)."""

    def __init__(self, labelling: int, n_cities: int = 12) -> None:
        super().__init__(n_cities=n_cities, seed=7)
        names = list(range(1, n_cities))
        random.Random(labelling).shuffle(names)
        order = [0] + names
        self.dist = [[self.dist[a][b] for b in order] for a in order]
        self._min_out = [self._min_out[a] for a in order]


_WORKLOADS = {
    "aq": AdaptiveQuadrature,
    "tsp": TSP,
    "tsp_relabelled": RelabelledTSP,
    "worker": WorkerBenchmark,
}

with open(DIGESTS_PATH, encoding="utf-8") as _fh:
    _DIGEST_CONFIGS = json.load(_fh)["configs"]


class TestPinnedDigests:
    """The streamed report must hash like the one built from whole-run
    traces before streaming.  AQ, TSP and ``tsp64`` then also tagged
    barrier messages with an already-completed transaction; those
    events added no cycles, so untagging them moves no digest."""

    @pytest.mark.parametrize("config", _DIGEST_CONFIGS,
                             ids=[c["name"] for c in _DIGEST_CONFIGS])
    def test_attribution_matches_pinned_digest(self, config):
        job = make_job(_WORKLOADS[config["workload"]], config["kwargs"],
                       protocol=config["protocol"],
                       n_nodes=config["n_nodes"], attribution=True)
        doc = dict(execute_job(job).attribution)
        assert doc["residual"] == 0
        # the config names the job by its key, which depends on where
        # the workload class is defined; the pin covers the rest
        doc.pop("config")
        blob = json.dumps(doc, sort_keys=True).encode("utf-8")
        assert hashlib.sha256(blob).hexdigest() == \
            config["attribution_sha256"]


_SYNC_KINDS = _BARRIER | LOCK_KINDS | REDUCE_KINDS


def sync_messages(machine, workload):
    """Run ``workload``; every barrier, lock and reduction message seen
    on the ``message`` channel, as ``(kind, txn)``."""
    seen = []

    def on_message(ev):
        if ev.kind in _SYNC_KINDS:
            seen.append((ev.kind, ev.txn))

    machine.observe().on_message.append(on_message)
    machine.run(workload)
    return seen


class TestSyncMessagesUntagged:
    """Barrier, lock and reduction messages belong to no coherence
    transaction, even when sent while a node resumes from a miss's
    data grant."""

    @pytest.mark.parametrize("name", [
        "aq-DirnH5SNB", "tsp-n16-DirnH5SNB", "tsp64-1654615998",
    ])
    def test_application_barriers(self, name):
        config = next(c for c in _DIGEST_CONFIGS if c["name"] == name)
        machine = Machine(MachineParams(n_nodes=config["n_nodes"]),
                          protocol=config["protocol"])
        workload = _WORKLOADS[config["workload"]](**config["kwargs"])
        seen = sync_messages(machine, workload)
        assert {kind for kind, _txn in seen} == set(_BARRIER)
        assert [m for m in seen if m[1] is not None] == []

    def test_locks_and_reductions_after_a_miss(self):
        machine = Machine(MachineParams(n_nodes=4), protocol="DirnH2SNB")
        block = machine.heap.alloc_block(0)
        lock = machine.create_lock(home=0)
        rid = machine.create_reduction(lambda a, b: a + b)
        # each lock request and reduction is sent on the resume from a
        # read miss's data grant
        scripts = {node: [("read", block), ("lock", lock),
                          ("unlock", lock), ("write", block),
                          ("reduce", rid, node)]
                   for node in range(4)}
        seen = sync_messages(machine, ScriptWorkload(scripts))
        kinds = {kind for kind, _txn in seen}
        assert "lock_req" in kinds and "reduce_up" in kinds
        assert [m for m in seen if m[1] is not None] == []


# ----------------------------------------------------------------------
# Derived report views against the per-stall bookkeeping they replace
# ----------------------------------------------------------------------


class ReferenceReport:
    """The bookkeeping :class:`AttributionReport` did before it kept a
    ``{cycles: stalls}`` count per stall kind and bucket: three updates
    per bucket per stall.  The oracle for the derived views."""

    def __init__(self) -> None:
        self.totals = {}
        self.by_stall_kind = {}
        self.hists = HistogramSet()

    def add(self, stall, trace):
        parts = attribute_stall(stall, trace)
        per_kind = self.by_stall_kind.setdefault(stall.kind, {})
        for bucket, cycles in parts.items():
            self.totals[bucket] = self.totals.get(bucket, 0) + cycles
            per_kind[bucket] = per_kind.get(bucket, 0) + cycles
            self.hists.record(bucket, cycles)


class TestReportMatchesReference:
    @pytest.mark.parametrize("name, protocol", [
        ("worker6x2-n16-DirnH2SNB", None),
        ("aq-DirnH5SNB", None),
        ("tsp-n16-DirnH5SNB", None),
        ("worker6x2-n16-DirnH2SNB", "DirnH1SNB,ACK"),
    ], ids=["worker", "aq", "tsp16", "worker-DirnH1SNB,ACK"])
    def test_same_totals_split_and_percentiles(self, name, protocol):
        config = next(c for c in _DIGEST_CONFIGS if c["name"] == name)
        machine = Machine(MachineParams(n_nodes=config["n_nodes"]),
                          protocol=protocol or config["protocol"])
        report = AttributionReport.attach(machine)
        reference = ReferenceReport()
        report.collector.on_complete.append(reference.add)
        machine.run(_WORKLOADS[config["workload"]](**config["kwargs"]))
        assert report.n_stalls > 0
        assert report.totals == reference.totals
        assert report.by_stall_kind == reference.by_stall_kind
        assert report.hists.keys() == reference.hists.keys()
        assert report.hists.summary() == reference.hists.summary()
