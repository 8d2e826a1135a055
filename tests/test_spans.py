"""Tests for causal transaction tracing (repro.obs.spans).

Covers the txn-id thread through the probe points — assignment at miss
issue, propagation through protocol messages, directory transitions,
traps, and handler spans — plus trace reconstruction, the
determinism of ids across repeated runs, and the streaming contract:
each trace is handed on when its stall completes, and a late event
that overlaps a completed stall raises.
"""

import pytest

from repro.machine.machine import Machine
from repro.machine.params import MachineParams
from repro.obs import (
    MessageSent,
    SpanCollector,
    StallSpan,
    TrapPosted,
    format_trace,
)
from repro.workloads.worker import WorkerBenchmark

from tests.helpers import CompletedTraces, ScriptWorkload, tiny_machine


def traced_run(n_nodes=9, protocol="DirnH2SNB", ops=None):
    machine = tiny_machine(n_nodes=n_nodes, protocol=protocol)
    collector = CompletedTraces(SpanCollector.attach(machine))
    if ops is None:
        a = machine.heap.alloc_block(0)
        b = machine.heap.alloc_block(1)
        ops = {
            1: [("read", a), ("compute", 200), ("write", a)],
            2: [("write", a), ("compute", 100), ("read", b)],
            3: [("read", b), ("read", a)],
        }
    stats = machine.run(ScriptWorkload(ops))
    return machine, stats, collector


def worker_run(protocol="DirnH2SNB"):
    machine = Machine(MachineParams(n_nodes=16), protocol=protocol)
    collector = CompletedTraces(SpanCollector.attach(machine))
    stats = machine.run(WorkerBenchmark(worker_set_size=6, iterations=2))
    return machine, stats, collector


class TestTxnAssignment:
    def test_every_data_miss_opens_a_transaction(self):
        _machine, stats, collector = traced_run()
        misses = [s for s in collector.stalls
                  if s.kind in ("read", "write")]
        assert misses
        assert all(s.txn is not None for s in misses)
        # ids are unique per miss
        ids = [s.txn for s in misses]
        assert len(ids) == len(set(ids))

    def test_ids_are_node_striped(self):
        # Ids stride by n_nodes from node_id + 1: each node's sequence
        # depends only on its own history (the attribution baseline
        # pins the ids), and the allocating node is recoverable as
        # (id - 1) % n_nodes.
        machine, _stats, collector = traced_run()
        n = machine.params.n_nodes
        per_node = {}
        for trace in collector.transactions():
            node = (trace.txn - 1) % n
            assert trace.stall is None or trace.stall.node == node
            per_node.setdefault(node, []).append(trace.txn)
        for node, ids in per_node.items():
            assert sorted(ids) == [i * n + node + 1
                                   for i in range(len(ids))]
            assert machine.next_txn(node) == len(ids) * n + node + 1

    def test_non_miss_stalls_are_untagged(self):
        _machine, _stats, collector = worker_run()
        for stall in collector.stalls:
            if stall.kind not in ("read", "write"):
                assert stall.txn is None

    def test_every_completed_trace_has_its_stall(self):
        _machine, _stats, collector = worker_run()
        assert len(collector) > 0
        for trace in collector.transactions():
            assert trace.stall is not None
            assert trace.stall.txn == trace.txn


class TestTxnPropagation:
    def test_messages_carry_the_id(self):
        _machine, _stats, collector = worker_run()
        traced = [t for t in collector.transactions() if t.messages]
        assert traced
        for trace in traced:
            for message in trace.messages:
                assert message.txn == trace.txn
                # every message of a miss flies within (a retry can
                # stretch past) its stall window's start
                assert message.sent_at >= trace.stall.start

    def test_request_and_grant_bracket_the_miss(self):
        _machine, _stats, collector = traced_run()
        for trace in collector.transactions():
            kinds = [m.kind for m in trace.messages]
            assert kinds, "a miss always sends a request"
            assert kinds[0] in ("rreq", "wreq")
            assert kinds[-1] in ("rdata", "wdata")

    def test_transitions_tagged_at_the_home(self):
        _machine, _stats, collector = traced_run()
        tagged = [t for t in collector.transactions() if t.transitions]
        assert tagged
        for trace in tagged:
            for tr in trace.transitions:
                assert tr.txn == trace.txn

    def test_overflow_miss_reaches_software(self):
        # DirnH1 with three sharers must trap; the handler spans the
        # trap posts must both carry the requester's txn.
        _machine, _stats, collector = worker_run(protocol="DirnH1SNB,ACK")
        with_handlers = [t for t in collector.transactions()
                         if t.handlers]
        assert with_handlers
        for trace in with_handlers:
            assert trace.traps, "handlers only run after a posted trap"
            for h in trace.handlers:
                assert h.txn == trace.txn
            for p in trace.traps:
                assert p.txn == trace.txn

    def test_retries_counted_from_busy_replies(self):
        _machine, _stats, collector = worker_run(protocol="DirnH1SNB,ACK")
        retried = [t for t in collector.transactions() if t.retries]
        total_busy = sum(
            sum(1 for m in t.messages if m.kind == "busy")
            for t in collector.transactions())
        assert sum(t.retries for t in retried) == total_busy


class TestDeterminism:
    def test_same_run_same_traces(self):
        _m1, _s1, c1 = worker_run()
        _m2, _s2, c2 = worker_run()
        assert len(c1) == len(c2)
        for t1, t2 in zip(c1.transactions(), c2.transactions()):
            assert t1.txn == t2.txn
            assert t1.stall == t2.stall
            assert t1.messages == t2.messages
            assert t1.handlers == t2.handlers
            assert t1.traps == t2.traps
            assert t1.transitions == t2.transitions

    def test_format_trace_is_stable(self):
        _m1, _s1, c1 = worker_run(protocol="DirnH1SNB,ACK")
        _m2, _s2, c2 = worker_run(protocol="DirnH1SNB,ACK")
        pick = min(3, len(c1))
        for txn in range(1, pick + 1):
            assert format_trace(c1.trace(txn)) == \
                format_trace(c2.trace(txn))

    def test_format_trace_mentions_the_story(self):
        _machine, _stats, collector = worker_run(
            protocol="DirnH1SNB,ACK")
        overflow = next(t for t in collector.transactions()
                        if t.handlers)
        text = format_trace(overflow)
        assert f"txn {overflow.txn}:" in text
        assert "msg" in text and "sw" in text and "trap" in text


class TestStreaming:
    """The collector hands each trace on at completion and keeps only
    open transactions; late events are checked, not silently lost."""

    def fed_collector(self):
        machine = tiny_machine(n_nodes=4)
        collector = CompletedTraces(SpanCollector.attach(machine))
        bus = machine.obs
        bus.message(MessageSent(0, 1, "rreq", 2, 0, 10, 7, 1))
        bus.stall(StallSpan(0, 0, 50, "read", 7, 1))
        return bus, collector

    def test_trace_is_handed_on_at_completion(self):
        _bus, collector = self.fed_collector()
        (stall,) = collector.stalls
        trace = collector.trace(1)
        assert trace.stall is stall
        assert [m.kind for m in trace.messages] == ["rreq"]
        assert not collector.collector._open

    def test_txnless_stalls_have_no_trace(self):
        bus, collector = self.fed_collector()
        seen = []
        collector.collector.on_complete.append(
            lambda stall, trace: seen.append(trace))
        bus.stall(StallSpan(2, 5, 9, "ifetch"))
        assert seen == [None]

    def test_late_message_past_the_stall_is_dropped(self):
        bus, collector = self.fed_collector()
        bus.message(MessageSent(1, 0, "bar_up", 2, 50, 60, None, 1))
        assert [m.kind for m in collector.trace(1).messages] == ["rreq"]
        assert not collector.collector._open
        assert len(collector) == 1

    def test_late_message_overlapping_the_stall_raises(self):
        bus, _collector = self.fed_collector()
        with pytest.raises(ValueError, match="transaction 1 "):
            bus.message(MessageSent(1, 0, "ack", 2, 40, 60, 7, 1))

    def test_late_event_of_an_older_transaction(self):
        # Node 0's next id is 5 (ids stride by n_nodes = 4).  An event
        # of txn 1 at or after txn 5's start is past txn 1's stall;
        # one before it cannot be checked and raises.
        bus, _collector = self.fed_collector()
        bus.stall(StallSpan(0, 100, 150, "read", 8, 5))
        bus.trap(TrapPosted(0, "read", 100, 30, 1, 1))
        with pytest.raises(ValueError, match="transaction 1 "):
            bus.trap(TrapPosted(0, "read", 60, 30, 1, 1))
