"""Error paths: protocol inconsistencies must raise loudly, never pass
silently — the simulator is deterministic, so every failure replays."""

import pytest

from repro.common.errors import ProtocolStateError, WorkloadError
from repro.common.types import AccessType, CacheState
from repro.machine.machine import Machine
from repro.machine.params import MachineParams
from repro.network.fabric import Message
from repro.workloads.base import Workload


def machine(n=4, protocol="DirnH2SNB"):
    return Machine(MachineParams(n_nodes=n), protocol=protocol)


def fake(kind, src, dst, block):
    return Message(src=src, dst=dst, kind=kind, size_flits=3, block=block)


class TestHomeErrorPaths:
    def test_stray_ack_raises(self):
        m = machine()
        with pytest.raises(ProtocolStateError):
            m.nodes[0].home.handle(fake("ack", 1, 0, 12345))

    def test_stray_fetch_data_raises(self):
        m = machine()
        with pytest.raises(ProtocolStateError):
            m.nodes[0].home.handle(fake("fetch_data", 1, 0, 12345))

    def test_untracked_writeback_raises(self):
        m = machine()
        with pytest.raises(ProtocolStateError):
            m.nodes[0].home.handle(fake("evict_wb", 1, 0, 12345))

    def test_unknown_kind_raises(self):
        m = machine()
        with pytest.raises(ProtocolStateError):
            m.nodes[0].home.handle(fake("warp", 1, 0, 12345))

    def test_h0_stray_ack_raises(self):
        m = machine(protocol="DirnH0SNB,ACK")
        with pytest.raises(ProtocolStateError):
            m.nodes[0].home.handle(fake("ack", 1, 0, 12345))

    def test_h0_unknown_kind_raises(self):
        m = machine(protocol="DirnH0SNB,ACK")
        with pytest.raises(ProtocolStateError):
            m.nodes[0].home.handle(fake("warp", 1, 0, 12345))


class TestCacheErrorPaths:
    def test_unknown_kind_raises(self):
        m = machine()
        with pytest.raises(ProtocolStateError):
            m.nodes[1].cache_ctrl.handle(fake("warp", 0, 1, 12345))

    def test_inv_on_dirty_line_raises(self):
        m = machine()
        ctrl = m.nodes[1].cache_ctrl
        ctrl.cache.fill(12345, CacheState.READ_WRITE)
        with pytest.raises(ProtocolStateError):
            ctrl.handle(fake("inv", 0, 1, 12345))

    def test_fetch_of_read_only_line_raises(self):
        m = machine()
        ctrl = m.nodes[1].cache_ctrl
        ctrl.cache.fill(12345, CacheState.READ_ONLY)
        with pytest.raises(ProtocolStateError):
            ctrl.handle(fake("fetch_rd", 0, 1, 12345))

    def test_double_outstanding_miss_raises(self):
        m = machine()
        ctrl = m.nodes[1].cache_ctrl
        ctrl.start_miss(AccessType.READ, 12345, lambda: None)
        with pytest.raises(ProtocolStateError):
            ctrl.start_miss(AccessType.READ, 777, lambda: None)

    def test_overlapping_ifetch_raises(self):
        m = machine()
        ctrl = m.nodes[1].cache_ctrl
        ctrl.start_ifetch_miss(1, lambda: None)
        with pytest.raises(ProtocolStateError):
            ctrl.start_ifetch_miss(2, lambda: None)


class TestStaleMessagesAreTolerated:
    """The flip side: messages that legal races CAN produce must be
    dropped gracefully, not raised on."""

    def test_stale_busy_ignored(self):
        m = machine()
        m.nodes[1].cache_ctrl.handle(fake("busy", 0, 1, 12345))

    def test_stale_data_grant_ignored(self):
        m = machine()
        m.nodes[1].cache_ctrl.handle(fake("rdata", 0, 1, 12345))
        m.nodes[1].cache_ctrl.handle(fake("wdata", 0, 1, 12345))

    def test_inv_of_absent_line_acknowledged(self):
        m = machine()
        m.nodes[1].cache_ctrl.handle(fake("inv", 0, 1, 12345))
        assert m.nodes[1].stats.messages_sent["ack"] == 1

    def test_fetch_of_absent_line_ignored(self):
        # The write-back is in flight; the home will take it instead.
        m = machine()
        m.nodes[1].cache_ctrl.handle(fake("fetch_inv", 0, 1, 12345))
        m.nodes[1].cache_ctrl.handle(fake("fetch_rd", 0, 1, 12345))

    def test_relinquish_of_untracked_block_ignored(self):
        m = machine()
        m.nodes[0].home.handle(fake("relinq", 1, 0, 12345))


class TestNodeDispatch:
    def test_unroutable_kind_raises(self):
        m = machine()
        with pytest.raises(ProtocolStateError):
            m.nodes[0].receive(fake("gibberish", 1, 0, 5))


class _OneOp(Workload):
    """Node 2 yields a single op; the other nodes yield nothing."""

    name = "one-op"

    def __init__(self, op) -> None:
        self.op = op

    def setup(self, machine) -> None:  # noqa: D102 - no shared data
        pass

    def thread(self, machine, node_id):
        if node_id == 2:
            yield self.op


class TestMalformedWorkloadOps:
    """A malformed op raises WorkloadError naming the op and the node,
    never a bare IndexError from inside the processor, and never runs."""

    @pytest.mark.parametrize("op", [
        (),
        ("read",),
        ("write", 64, 0),
        ("compute",),
        ("compute", 5, None, "extra"),
        ("reduce", 1),
        ("barrier", 0),
        ("lock",),
        ("unlock", 1, 2),
        ("checkin",),
    ], ids=repr)
    def test_wrong_arity_raises(self, op):
        with pytest.raises(WorkloadError, match=r"node 2: malformed "
                                                r"workload op"):
            machine().run(_OneOp(op))

    # ("compute", 2.5) used to run, and run_cycles came back as 2.5.
    @pytest.mark.parametrize("cycles", [2.5, -1, True, "10", None],
                             ids=repr)
    def test_compute_count_must_be_a_nonnegative_int(self, cycles):
        with pytest.raises(WorkloadError, match=r"node 2: .*compute.*"
                                                r"non-negative int"):
            machine().run(_OneOp(("compute", cycles)))

    @pytest.mark.parametrize("op", [("ifetch", 3), ("jump", 4), None],
                             ids=repr)
    def test_unknown_op_raises(self, op):
        with pytest.raises(WorkloadError, match=r"node 2: "):
            machine().run(_OneOp(op))

    def test_compute_with_no_code_ref_runs(self):
        stats = machine().run(_OneOp(("compute", 3, None)))
        assert stats.run_cycles == 3
