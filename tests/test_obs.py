"""Tests for the observability layer (repro.obs).

Covers the event bus and its probe points, the interval sampler, the
latency histograms, both exporters, and the headline invariant:
attaching observers changes no simulated cycle count.
"""

import copy
import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.machine.machine import Machine
from repro.machine.params import MachineParams
from repro.obs import (
    EventBus,
    Histogram,
    HistogramSet,
    IntervalSampler,
    LatencyRecorder,
    SpanCollector,
    TraceCollector,
    chrome_trace,
    metrics_dict,
    write_json,
)
from repro.workloads.worker import WorkerBenchmark

from tests.helpers import ScriptWorkload, tiny_machine

# ----------------------------------------------------------------------
# Shared fixtures
# ----------------------------------------------------------------------


def observed_run(n_nodes=9, protocol="DirnH2SNB", ops=None):
    """Run a small scripted workload with every channel collected."""
    machine = tiny_machine(n_nodes=n_nodes, protocol=protocol)
    collector = TraceCollector.attach(machine)
    recorder = LatencyRecorder.attach(machine)
    sampler = IntervalSampler.attach(machine, every=500)
    if ops is None:
        a = machine.heap.alloc_block(0)
        b = machine.heap.alloc_block(1)
        ops = {
            1: [("read", a), ("compute", 200), ("write", a)],
            2: [("write", a), ("compute", 100), ("read", b)],
            3: [("read", b), ("read", a)],
        }
    stats = machine.run(ScriptWorkload(ops))
    sampler.finish(stats.run_cycles)
    return machine, stats, collector, recorder, sampler


# ----------------------------------------------------------------------
# Event bus
# ----------------------------------------------------------------------


class TestEventBus:
    def test_machine_starts_unobserved(self):
        machine = tiny_machine()
        assert machine.obs is None
        assert machine.sim.probe is None
        assert machine.fabric.obs is None

    def test_observe_is_idempotent(self):
        machine = tiny_machine()
        bus = machine.observe()
        assert machine.observe() is bus
        assert machine.fabric.obs is bus
        # The engine probe follows the advance channel, not the bus: a
        # bus with no advance subscriber leaves the run on the tight
        # loop, a sampler puts bus.advance in place for the run.
        for sample in (False, True):
            machine = tiny_machine()
            bus = machine.observe()
            if sample:
                IntervalSampler.attach(machine, every=100)
            probes = []
            bus.on_user.append(
                lambda _ev, m=machine: probes.append(m.sim.probe))
            block = machine.heap.alloc_block(0)
            machine.run(ScriptWorkload(
                {1: [("read", block), ("compute", 50)]}))
            assert probes
            expected = bus.advance if sample else None
            assert all(p == expected for p in probes)

    def test_subscribe_unsubscribe(self):
        bus = EventBus()
        assert bus.idle
        fn = lambda ev: None  # noqa: E731
        bus.subscribe("message", fn)
        assert not bus.idle
        assert fn in bus.on_message
        bus.unsubscribe("message", fn)
        bus.unsubscribe("message", fn)  # no-op on repeat
        assert bus.idle

    def test_unknown_channel_rejected(self):
        bus = EventBus()
        with pytest.raises(ValueError, match="unknown channel"):
            bus.subscribe("bogus", lambda ev: None)

    def test_probe_points_fire(self):
        _machine, _stats, collector, _rec, _smp = observed_run()
        assert collector.user_spans, "no user spans recorded"
        assert collector.stall_spans, "no stall spans recorded"
        assert collector.messages, "no messages recorded"
        assert len(collector) > 0

    def test_trap_channel_fires_on_software_protocol(self):
        machine = tiny_machine(n_nodes=9, protocol="DirnH2SNB")
        traps = []
        machine.observe().on_trap.append(traps.append)
        addr = machine.heap.alloc_block(0)
        # Four readers overflow the two hardware pointers -> traps.
        machine.run(ScriptWorkload({
            n: [("read", addr)] for n in range(1, 6)
        }))
        assert traps
        assert all(t.cost > 0 for t in traps)

    def test_span_invariants(self):
        _machine, stats, collector, _rec, _smp = observed_run()
        for span in collector.user_spans:
            assert 0 <= span.start < span.end
        for span in collector.stall_spans:
            assert span.start <= span.end
            assert span.kind in ("read", "write", "ifetch", "lock",
                                 "reduce", "sw_wait")
        for message in collector.messages:
            assert message.delivered_at >= message.sent_at

    def test_user_cycles_match_span_totals(self):
        machine, stats, collector, _rec, _smp = observed_run()
        by_node = {}
        for span in collector.user_spans:
            by_node[span.node] = by_node.get(span.node, 0) \
                + (span.end - span.start)
        for node_stats in stats.per_node:
            assert by_node.get(node_stats.node, 0) == \
                node_stats.user_cycles


# ----------------------------------------------------------------------
# The headline invariant: observers do not perturb the simulation
# ----------------------------------------------------------------------


class TestZeroPerturbation:
    def run_worker(self, observe):
        machine = Machine(MachineParams(n_nodes=16),
                          protocol="DirnH5SNB")
        observers = None
        if observe:
            observers = (TraceCollector.attach(machine),
                         LatencyRecorder.attach(machine),
                         IntervalSampler.attach(machine, every=1000),
                         SpanCollector.attach(machine))
        stats = machine.run(WorkerBenchmark(worker_set_size=6,
                                            iterations=2))
        return stats, observers

    def test_worker_cycle_counts_identical_with_observers(self):
        bare, _ = self.run_worker(observe=False)
        observed, observers = self.run_worker(observe=True)
        assert observers is not None and len(observers[0]) > 0
        assert len(observers[3]) > 0  # span tracing was live too
        assert observed.run_cycles == bare.run_cycles
        for a, b in zip(bare.per_node, observed.per_node):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_empty_bus_does_not_perturb(self):
        bare, _ = self.run_worker(observe=False)
        machine = Machine(MachineParams(n_nodes=16),
                          protocol="DirnH5SNB")
        machine.observe()  # bus attached, zero subscribers
        stats = machine.run(WorkerBenchmark(worker_set_size=6,
                                            iterations=2))
        assert stats.run_cycles == bare.run_cycles


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------


class TestHistogram:
    def test_empty(self):
        hist = Histogram()
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.percentile(50) == 0
        assert hist.summary()["count"] == 0

    def test_basic_percentiles(self):
        hist = Histogram()
        for v in range(1, 101):  # 1..100
            hist.add(v)
        assert hist.percentile(50) == 50
        assert hist.percentile(90) == 90
        assert hist.percentile(99) == 99
        assert hist.percentile(100) == 100
        assert hist.min == 1 and hist.max == 100
        assert hist.mean == pytest.approx(50.5)

    def test_percentile_bounds_checked(self):
        hist = Histogram()
        hist.add(1)
        with pytest.raises(ValueError):
            hist.percentile(0)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Histogram().add(-1)

    def test_merge(self):
        a, b = Histogram(), Histogram()
        a.add(10)
        b.add(20, weight=3)
        a.merge(b)
        assert a.count == 4
        assert a.total == 70
        assert a.percentile(50) == 20

    @given(st.lists(st.integers(min_value=0, max_value=5000),
                    min_size=1, max_size=200))
    def test_percentile_is_order_statistic(self, values):
        hist = Histogram()
        for v in values:
            hist.add(v)
        ordered = sorted(values)
        for p in (50, 90, 99, 100):
            rank = max(1, -(-len(values) * p // 100))
            assert hist.percentile(p) == ordered[rank - 1]

    def test_histogram_set_sorted_keys(self):
        hs = HistogramSet()
        hs.record("write", 5)
        hs.record("read", 3)
        hs.record("read", 7)
        assert hs.keys() == ["read", "write"]
        assert hs["read"].count == 2
        assert "ack" not in hs
        assert len(hs) == 2

    def test_run_stats_histogram_view(self):
        _machine, stats, _col, recorder, _smp = observed_run()
        hist = stats.handler_latency_histogram("read", "flexible")
        if hist.count:
            # The stored-sample view and the live recorder agree.
            assert hist.count == recorder.handlers["read"].count
            assert hist.percentile(50) == \
                recorder.handlers["read"].percentile(50)


class TestLatencyRecorder:
    def test_handler_latencies_match_samples(self):
        _machine, stats, _col, recorder, _smp = observed_run()
        recorded = sum(h.count for _, h in recorder.handlers.items())
        assert recorded == len(stats.handler_samples)

    def test_stall_kinds_present(self):
        _machine, _stats, _col, recorder, _smp = observed_run()
        assert "read" in recorder.stalls or "write" in recorder.stalls

    def test_summary_shape(self):
        _machine, _stats, _col, recorder, _smp = observed_run()
        summary = recorder.summary()
        assert set(summary) == {"handlers", "stalls"}
        for digest in summary["stalls"].values():
            assert {"count", "mean", "min", "max",
                    "p50", "p90", "p99"} <= set(digest)


# ----------------------------------------------------------------------
# Interval sampler
# ----------------------------------------------------------------------


class TestIntervalSampler:
    def test_rows_cover_the_run(self):
        _machine, stats, _col, _rec, sampler = observed_run()
        assert sampler.rows
        assert sampler.rows[0].start == 0
        for prev, nxt in zip(sampler.rows, sampler.rows[1:]):
            assert nxt.start == prev.end
        assert sampler.rows[-1].end == stats.run_cycles

    def test_deltas_sum_to_totals(self):
        _machine, stats, _col, _rec, sampler = observed_run()
        for field in ("user_cycles", "stall_cycles", "cache_misses"):
            summed = sum(row.total(field) for row in sampler.rows)
            assert summed == stats.total(field)
        summed_traps = sum(row.total("traps") for row in sampler.rows)
        assert summed_traps == stats.total_traps

    def test_finish_is_idempotent(self):
        _machine, stats, _col, _rec, sampler = observed_run()
        n_rows = len(sampler.rows)
        sampler.finish(stats.run_cycles)
        assert len(sampler.rows) == n_rows

    def test_row_derived_metrics(self):
        _machine, _stats, _col, _rec, sampler = observed_run()
        for row in sampler.rows:
            assert 0.0 <= row.utilization <= 1.0
            assert 0.0 <= row.miss_rate <= 1.0
            assert row.cycles == row.end - row.start

    def test_bad_interval_rejected(self):
        machine = tiny_machine()
        with pytest.raises(ValueError):
            IntervalSampler(machine, every=0)

    def test_summary_is_json_friendly(self):
        _machine, _stats, _col, _rec, sampler = observed_run()
        text = json.dumps(sampler.summary())
        assert json.loads(text) == sampler.summary()


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


class TestChromeTrace:
    def test_document_shape(self):
        _machine, _stats, collector, _rec, _smp = observed_run()
        doc = chrome_trace(collector, n_nodes=9)
        events = doc["traceEvents"]
        assert events
        phases = {ev["ph"] for ev in events}
        assert {"M", "X"} <= phases  # metadata + spans
        assert {"s", "f"} <= phases  # message flow arrows
        names = {ev["name"] for ev in events if ev["ph"] == "M"}
        assert {"process_name", "thread_name"} <= names

    def test_every_node_has_a_track(self):
        _machine, _stats, collector, _rec, _smp = observed_run()
        doc = chrome_trace(collector, n_nodes=9)
        names = {ev["tid"]: ev["args"]["name"]
                 for ev in doc["traceEvents"]
                 if ev["ph"] == "M" and ev["name"] == "thread_name"}
        # Every node gets an even cpu lane; odd software lanes exist
        # only for nodes that actually ran a handler.
        assert {2 * n for n in range(9)} <= set(names)
        for node in range(9):
            assert names[2 * node] == f"node {node}"
        for tid, name in names.items():
            if tid % 2:
                assert name == f"node {tid // 2} sw"

    def test_spans_have_nonnegative_durations(self):
        _machine, _stats, collector, _rec, _smp = observed_run()
        doc = chrome_trace(collector)
        for ev in doc["traceEvents"]:
            if ev["ph"] == "X":
                assert ev["dur"] >= 0
                assert ev["ts"] >= 0

    def test_flow_arrows_pair_up(self):
        _machine, _stats, collector, _rec, _smp = observed_run()
        doc = chrome_trace(collector)
        starts = {ev["id"] for ev in doc["traceEvents"]
                  if ev["ph"] == "s" and ev["cat"] == "message"}
        finishes = {ev["id"] for ev in doc["traceEvents"]
                    if ev["ph"] == "f" and ev["cat"] == "message"}
        assert starts == finishes
        assert len(starts) == len(collector.messages)

    def test_txn_flows_pair_up(self):
        _machine, _stats, collector, _rec, _smp = observed_run()
        doc = chrome_trace(collector)
        starts = {ev["id"] for ev in doc["traceEvents"]
                  if ev["ph"] == "s" and ev["cat"] == "txn"}
        finishes = {ev["id"] for ev in doc["traceEvents"]
                    if ev["ph"] == "f" and ev["cat"] == "txn"}
        assert starts == finishes
        # Every chain starts on the requester's cpu lane at the stall
        # and finishes on a software lane at a handler start.
        for ev in doc["traceEvents"]:
            if ev.get("cat") != "txn":
                continue
            if ev["ph"] == "s":
                assert ev["tid"] % 2 == 0
            elif ev["ph"] in ("t", "f"):
                assert ev["tid"] % 2 == 1

    def test_empty_run_exports_valid_document(self):
        collector = TraceCollector()
        doc = chrome_trace(collector, n_nodes=4)
        events = doc["traceEvents"]
        assert events  # metadata survives an empty run
        assert all(ev["ph"] == "M" for ev in events)
        json.dumps(doc)  # serialisable

    def test_lanes_never_overlap(self):
        # Handler spans land on software lanes, user/stall spans on cpu
        # lanes, so no lane ever holds two overlapping slices — the
        # property trace viewers need for correct nesting.
        _machine, _stats, collector, _rec, _smp = observed_run(
            protocol="DirnH1SNB,ACK")
        doc = chrome_trace(collector)
        by_lane = {}
        for ev in doc["traceEvents"]:
            if ev["ph"] == "X":
                by_lane.setdefault(ev["tid"], []).append(
                    (ev["ts"], ev["ts"] + ev["dur"]))
        assert collector.handler_spans  # the run exercised software
        for lane, spans in sorted(by_lane.items()):
            spans.sort()
            for (_s0, e0), (s1, _e1) in zip(spans, spans[1:]):
                assert e0 <= s1, f"overlap on lane {lane}"

    def test_json_serialisable(self, tmp_path):
        _machine, _stats, collector, _rec, _smp = observed_run()
        path = tmp_path / "trace.json"
        write_json(str(path), chrome_trace(collector))
        loaded = json.loads(path.read_text())
        assert "traceEvents" in loaded


class TestMetricsExport:
    def test_document_contents(self):
        _machine, stats, _col, recorder, sampler = observed_run()
        doc = metrics_dict(stats, config={"app": "script"},
                           sampler=sampler, recorder=recorder)
        assert doc["schema"] == "repro-metrics/1"
        assert doc["run"]["run_cycles"] == stats.run_cycles
        assert doc["config"] == {"app": "script"}
        assert doc["totals"]["loads"] == stats.total("loads")
        assert len(doc["per_node"]) == stats.n_nodes
        assert doc["timeseries"]["interval"] == sampler.every
        assert len(doc["timeseries"]["rows"]) == len(sampler.rows)
        assert "handlers" in doc["histograms"]

    def test_byte_identical_across_runs(self, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            _machine, stats, _col, recorder, sampler = observed_run()
            path = tmp_path / name
            write_json(str(path),
                       metrics_dict(stats, sampler=sampler,
                                    recorder=recorder))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_minimal_document_without_observers(self):
        machine = tiny_machine()
        addr = machine.heap.alloc_block(0)
        stats = machine.run(ScriptWorkload({1: [("read", addr)]}))
        doc = metrics_dict(stats)
        assert "timeseries" not in doc
        assert "histograms" not in doc
        assert "config" not in doc
        json.dumps(doc)  # serialisable


# ----------------------------------------------------------------------
# Fabric introspection used by the sampler
# ----------------------------------------------------------------------


class TestFabricBacklog:
    def test_backlog_nonnegative_and_clamped(self):
        machine = tiny_machine()
        fabric = machine.fabric
        assert fabric.tx_backlog(0, now=0) == 0
        assert fabric.rx_backlog(0, now=10**9) == 0

    def test_backlog_reflects_queued_flits(self):
        machine = tiny_machine()
        machine.nodes[0].send_protocol("rreq", 3, 1)
        assert machine.fabric.tx_backlog(0, now=0) > 0


class TestDetailedFabricProbe:
    def test_link_level_fabric_emits_messages(self):
        machine = Machine(MachineParams(n_nodes=9),
                          protocol="DirnH2SNB", network_model="links")
        messages = []
        machine.observe().on_message.append(messages.append)
        addr = machine.heap.alloc_block(0)
        machine.run(ScriptWorkload({1: [("read", addr)],
                                    2: [("read", addr)]}))
        kinds = {m.kind for m in messages}
        assert "rreq" in kinds and "rdata" in kinds
        assert all(m.delivered_at >= m.sent_at for m in messages)


def _sync_and_coherence(machine):
    """Reads, writes, a lock, a reduction and a barrier on every node."""
    block = machine.heap.alloc_block(0)
    lock = machine.create_lock(home=1)
    rid = machine.create_reduction(lambda a, b: a + b)
    return ScriptWorkload({
        node: [("read", block), ("lock", lock), ("write", block),
               ("unlock", lock), ("reduce", rid, node), ("barrier",),
               ("read", block)]
        for node in range(machine.params.n_nodes)
    })


def _software_worker(machine):
    return WorkerBenchmark(worker_set_size=4, iterations=1)


class TestMessageChannel:
    """The ``message`` channel publishes the fabric's own message
    object, so what a subscriber keeps is the live simulator object:
    each message must be published once, complete, and never written
    afterwards."""

    @pytest.mark.parametrize("network_model", ["queues", "links"])
    @pytest.mark.parametrize("workload, kinds", [
        (_sync_and_coherence, {"rreq", "wreq", "inv", "lock_req",
                               "reduce_up", "bar_up"}),
        (_software_worker, {"rreq", "wdata", "ack", "busy", "bar_down"}),
    ], ids=["sync", "worker"])
    def test_published_once_and_never_written_after(self, network_model,
                                                     workload, kinds):
        machine = Machine(MachineParams(n_nodes=16),
                          protocol="DirnH1SNB,ACK",
                          network_model=network_model)
        sent = []
        fabric_send = machine.fabric.send

        def send(message, extra_delay=0):
            sent.append(message)
            fabric_send(message, extra_delay)

        machine.fabric.send = send
        published = []
        machine.observe().on_message.append(
            lambda m: published.append((m, copy.deepcopy(m))))
        machine.run(workload(machine))
        assert kinds <= {m.kind for m in sent}
        assert len({id(m) for m in sent}) == len(sent)
        assert sorted(id(m) for m, _snap in published) == \
            sorted(id(m) for m in sent)
        for message, snapshot in published:
            assert message.sent_at <= message.delivered_at
            assert message == snapshot
