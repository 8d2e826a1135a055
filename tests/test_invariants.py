"""Tests for the continuous protocol invariant checker."""

import pytest

from repro.core import messages as msg
from repro.core.protocol import (
    HARDWARE_TABLE,
    SOFTWARE_ONLY_TABLE,
    InvariantChecker,
    InvariantViolation,
    allowed_after,
)
from repro.core.protocol.backends import (
    LimitedPointerBackend,
    SoftwareOnlyBackend,
)
from repro.common.types import DirState
from repro.machine.machine import Machine
from repro.machine.params import MachineParams
from repro.obs.events import TransitionApplied
from repro.workloads.worker import WorkerBenchmark

from tests.helpers import ScriptWorkload, sent_message


def machine(protocol="DirnH2SNB", n=16):
    return Machine(MachineParams(n_nodes=n), protocol=protocol)


def transition(**overrides):
    base = dict(node=0, at=100, event=msg.RREQ, src=2, block=7,
                before="absent", after="read_only", rule="read_absent",
                next_label="read_only", busy=False)
    base.update(overrides)
    return TransitionApplied(**base)


class TestCleanRuns:
    @pytest.mark.parametrize("protocol", [
        "DirnHNBS-", "DirnH5SNB", "DirnH1SNB,ACK", "DirnH1SNB,LACK",
        "DirnH0SNB,ACK", "Dir1H1SB,LACK",
    ])
    def test_worker_run_has_zero_violations(self, protocol):
        m = machine(protocol=protocol)
        checker = InvariantChecker.attach(m)
        m.run(WorkerBenchmark(worker_set_size=6, iterations=2))
        checker.finish()
        assert checker.violations == []
        assert checker.transitions_checked > 0
        assert checker.messages_checked > 0
        checker.assert_clean()

    def test_checker_does_not_perturb_cycle_counts(self):
        wl = lambda: WorkerBenchmark(worker_set_size=6, iterations=2)
        plain = machine().run(wl()).run_cycles
        m = machine()
        checker = InvariantChecker.attach(m)
        assert m.run(wl()).run_cycles == plain
        checker.finish()

    def test_detach_stops_checking(self):
        m = machine()
        checker = InvariantChecker.attach(m)
        checker.detach()
        m.run(WorkerBenchmark(worker_set_size=4, iterations=1))
        assert checker.transitions_checked == 0
        assert checker.messages_checked == 0


class TestTransitionChecks:
    """Unit-level: feed the checker synthetic events and corrupt state."""

    def _checker(self, protocol="DirnH2SNB"):
        m = machine(protocol=protocol, n=4)
        return m, InvariantChecker(m)

    def test_dishonest_next_state_label_flagged(self):
        m, checker = self._checker()
        m.nodes[0].home.entry_for(7)  # absent entry, consistent structure
        checker._on_transition(transition(after="absent",
                                          next_label="read_only"))
        assert any("declared next state" in v for v in checker.violations)

    def test_same_label_with_state_change_flagged(self):
        m, checker = self._checker()
        m.nodes[0].home.entry_for(7)
        checker._on_transition(transition(
            before="read_only", after="read_write", next_label="same",
            rule="ack_countdown", event=msg.ACK))
        assert any("claims no state change" in v
                   for v in checker.violations)

    def test_busy_exclusivity_flagged(self):
        m, checker = self._checker()
        m.nodes[0].home.entry_for(7)
        checker._on_transition(transition(
            busy=True, rule="read_absent", next_label="read_only"))
        assert any("busy-state exclusivity" in v
                   for v in checker.violations)

    def test_busy_reply_rules_pass(self):
        m, checker = self._checker()
        m.nodes[0].home.entry_for(7)
        checker._on_transition(transition(
            busy=True, before="write_transaction",
            after="write_transaction", rule="reply_busy",
            next_label="same"))
        assert checker.violations == []

    def test_duplicated_pointer_flagged(self):
        m, checker = self._checker()
        entry = m.nodes[0].home.entry_for(7)
        entry.state = DirState.READ_ONLY
        entry.pointers.extend([2, 2])
        checker._on_transition(transition(busy=False))
        assert any("duplicated hardware pointers" in v
                   for v in checker.violations)

    def test_read_write_with_no_tracked_node_flagged(self):
        m, checker = self._checker()
        entry = m.nodes[0].home.entry_for(7)
        entry.state = DirState.READ_WRITE
        checker._on_transition(transition(
            event=msg.WREQ, after="read_write", next_label="read_write",
            rule="write_absent"))
        assert any("READ_WRITE with 0 tracked" in v
                   for v in checker.violations)

    def test_transient_without_requester_flagged(self):
        m, checker = self._checker()
        entry = m.nodes[0].home.entry_for(7)
        entry.state = DirState.WRITE_TRANSACTION
        entry.pending_requester = None
        checker._on_transition(transition(
            event=msg.WREQ, after="write_transaction",
            next_label="write_transaction", rule="write_invalidate"))
        assert any("without a pending requester" in v
                   for v in checker.violations)

    def test_h0_read_write_owner_mismatch_flagged(self):
        m, checker = self._checker(protocol="DirnH0SNB,ACK")
        entry = m.nodes[0].home.entry_for(7)
        entry.state = DirState.READ_WRITE
        entry.owner = 2
        entry.sharers = {2, 3}
        checker._on_transition(transition(
            event=msg.WREQ, after="read_write", next_label="read_write",
            rule="write_grant"))
        assert any("H0 READ_WRITE" in v for v in checker.violations)

    def test_strict_mode_raises_immediately(self):
        m = machine(n=4)
        checker = InvariantChecker(m, strict=True)
        m.nodes[0].home.entry_for(7)
        with pytest.raises(InvariantViolation):
            checker._on_transition(transition(after="absent",
                                              next_label="read_only"))


class TestMessageChecks:
    def _msg(self, kind, block=7, src=0, dst=2):
        return sent_message(src=src, dst=dst, kind=kind, size_flits=2,
                            sent_at=50, delivered_at=60, block=block)

    def test_ack_without_invalidation_flagged(self):
        m = machine(n=4)
        checker = InvariantChecker(m)
        checker._on_message(self._msg(msg.ACK))
        assert any("without a matching invalidation" in v
                   for v in checker.violations)

    def test_matched_inv_ack_pairs_pass(self):
        m = machine(n=4)
        checker = InvariantChecker(m)
        checker._on_message(self._msg(msg.INV))
        checker._on_message(self._msg(msg.ACK))
        assert checker.violations == []
        assert checker.finish() == []

    def test_unacknowledged_invalidation_flagged_at_finish(self):
        m = machine(n=4)
        checker = InvariantChecker(m)
        checker._on_message(self._msg(msg.INV))
        assert any("never acknowledged" in v for v in checker.finish())

    def test_assert_clean_raises_with_report(self):
        m = machine(n=4)
        checker = InvariantChecker(m)
        checker._on_message(self._msg(msg.ACK))
        with pytest.raises(InvariantViolation, match="1 protocol"):
            checker.assert_clean()

    def test_wdata_grant_with_surviving_reader_flagged(self):
        m = machine(n=4)
        a = m.heap.alloc_block(0)
        blk = a >> m.params.block_shift
        m.run(ScriptWorkload({1: [("read", a)], 2: [("read", a)]}))
        checker = InvariantChecker(m)
        checker._on_message(self._msg(msg.WDATA, block=blk, dst=1))
        assert any("still holds" in v for v in checker.violations)


class TestTableClaims:
    def test_allowed_after_grammar(self):
        assert allowed_after(None) is None
        assert allowed_after("deferred") is None
        assert allowed_after("same") == "same"
        assert allowed_after("read_only|absent") == frozenset(
            {DirState.READ_ONLY, DirState.ABSENT})

    @pytest.mark.parametrize("table,backend_cls", [
        (HARDWARE_TABLE, LimitedPointerBackend),
        (SOFTWARE_ONLY_TABLE, SoftwareOnlyBackend),
    ])
    def test_every_row_resolves_on_its_backend(self, table, backend_cls):
        for row in table.transitions:
            assert callable(getattr(backend_cls, row.action))
            if row.guard is not None:
                assert callable(getattr(backend_cls, row.guard))
            if row.next_state is not None:
                allowed_after(row.next_state)  # label parses

    def test_every_event_has_a_policy(self):
        for table in (HARDWARE_TABLE, SOFTWARE_ONLY_TABLE):
            assert set(table.policies) == set(table.events())
