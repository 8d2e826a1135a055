"""Tests for the deterministic discrete-event engine."""

import heapq

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.at(10, lambda: order.append("b"))
        sim.at(5, lambda: order.append("a"))
        sim.at(20, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 20

    def test_same_cycle_fires_in_schedule_order(self):
        sim = Simulator()
        order = []
        for tag in range(8):
            sim.at(7, lambda t=tag: order.append(t))
        sim.run()
        assert order == list(range(8))

    def test_after_is_relative(self):
        sim = Simulator()
        seen = []
        sim.at(10, lambda: sim.after(5, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [15]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.at(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(5, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.after(-1, lambda: None)

    def test_rejected_schedule_burns_no_sequence_number(self):
        """Validation precedes the tie-break counter: a past-time at()
        or a negative after() that raises must leave the keys of later
        events exactly as they would have been (a caller catching and
        retrying would otherwise perturb bit-for-bit reproducibility)."""
        def keys(reject):
            sim = Simulator()
            sim.at(10, lambda: None)
            sim.run()
            sim.at(20, lambda: None)
            if reject:
                with pytest.raises(SimulationError):
                    sim.at(5, lambda: None)
                with pytest.raises(SimulationError):
                    sim.after(-1, lambda: None)
            sim.at(20, lambda: None)
            sim.after(3, lambda: None, owner=2)
            return sorted(event[:3] for event in sim._heap)

        assert keys(reject=True) == keys(reject=False)


class TestOwnerKeys:
    def test_same_cycle_orders_by_owner_then_sequence(self):
        sim = Simulator()
        order = []
        sim.at(7, lambda: order.append("b0"), owner=2)
        sim.at(7, lambda: order.append("a0"), owner=1)
        sim.at(7, lambda: order.append("b1"), owner=2)
        sim.at(7, lambda: order.append("a1"), owner=1)
        sim.run()
        assert order == ["a0", "a1", "b0", "b1"]

    def test_events_inherit_current_owner(self):
        sim = Simulator()
        owners = []

        def record():
            owners.append(sim.current_owner)
            if len(owners) == 1:
                # scheduled without an owner: inherits ours (3)
                sim.after(1, record)

        sim.at(0, record, owner=3)
        sim.run()
        assert owners == [3, 3]

    def test_post_reproduces_an_allocated_key(self):
        # Events posted under the keys another engine allocated fire
        # in that engine's order, whatever order they were posted in.
        a, b = Simulator(), Simulator()
        out_a, out_b = [], []
        b.at(4, lambda: out_b.append("x"), owner=5)
        b.at(4, lambda: out_b.append("y"), owner=5)
        first, second = sorted(event[:3] for event in b._heap)
        a.post(*second, lambda: out_a.append("y"))
        a.post(*first, lambda: out_a.append("x"))
        a.run()
        b.run()
        assert out_a == out_b == ["x", "y"]

    def test_post_does_not_advance_local_counter(self):
        # A posted key was allocated elsewhere; had post() advanced the
        # local counter past it, the local event would sort after it.
        sim = Simulator()
        order = []
        sim.post(1, 9, 17, lambda: order.append("posted"))
        sim.at(1, lambda: order.append("local"), owner=9)
        sim.run()
        assert order == ["local", "posted"]

    def test_post_in_past_rejected(self):
        sim = Simulator()
        sim.at(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.post(5, 0, 1, lambda: None)


class TestRunControl:
    def test_until_leaves_later_events_queued(self):
        sim = Simulator()
        fired = []
        sim.at(5, lambda: fired.append(5))
        sim.at(50, lambda: fired.append(50))
        sim.run(until=10)
        assert fired == [5]
        assert sim.pending_events == 1
        sim.run()
        assert fired == [5, 50]

    def test_until_before_now_rejected(self):
        # The clock never runs backwards: after running to cycle 10, a
        # run(until=5) must not rewind `now` and so let an event at 7
        # fire after cycle 10 already ran.
        sim = Simulator()
        fired = []
        sim.at(10, lambda: fired.append(10))
        sim.at(12, lambda: fired.append(12))
        sim.run(until=10)
        with pytest.raises(SimulationError):
            sim.run(until=5)
        assert sim.now == 10
        with pytest.raises(SimulationError):
            sim.at(7, lambda: fired.append(7))
        sim.run()
        assert fired == [10, 12]

    def test_stop(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append(1)
            sim.stop()

        sim.at(1, first)
        sim.at(2, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_max_events_guard(self):
        sim = Simulator()

        def reschedule():
            sim.after(1, reschedule)

        sim.at(0, reschedule)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_idle_check_called_on_drain(self):
        sim = Simulator()
        called = []
        sim.at(1, lambda: None)
        sim.run(idle_check=lambda: called.append(True))
        assert called == [True]

    def test_idle_check_not_called_when_stopped(self):
        sim = Simulator()
        called = []
        sim.at(1, sim.stop)
        sim.at(2, lambda: None)
        sim.run(idle_check=lambda: called.append(True))
        assert called == []

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.at(1, nested)
        sim.run()
        assert len(errors) == 1


class TestDeterminism:
    @given(st.lists(st.integers(min_value=0, max_value=1000),
                    min_size=1, max_size=60))
    def test_arbitrary_schedules_are_deterministic(self, times):
        def trace(schedule):
            sim = Simulator()
            out = []
            for i, t in enumerate(schedule):
                sim.at(t, lambda i=i: out.append((sim.now, i)))
            sim.run()
            return out

        assert trace(times) == trace(times)

    @given(st.lists(st.integers(min_value=0, max_value=100),
                    min_size=1, max_size=40))
    def test_time_never_decreases(self, times):
        sim = Simulator()
        seen = []
        for t in times:
            sim.at(t, lambda: seen.append(sim.now))
        sim.run()
        assert seen == sorted(seen)


class ReferenceHeap:
    """The engine's ordering with per-owner tie-break counters.

    Kept as the executable definition of the firing order the engine
    must reproduce with its single process-wide counter.
    """

    def __init__(self):
        self.now = 0
        self.current_owner = 0
        self._owner_seq = {}
        self._heap = []

    def at(self, time, fn, owner=None):
        if time < self.now:
            raise SimulationError("past")
        if owner is None:
            owner = self.current_owner
        seq = self._owner_seq.get(owner, 0) + 1
        self._owner_seq[owner] = seq
        heapq.heappush(self._heap, (time, owner, seq, fn))

    def after(self, delay, fn, owner=None):
        if delay < 0:
            raise SimulationError("negative delay")
        self.at(self.now + delay, fn, owner)

    def run(self):
        while self._heap:
            self.now, self.current_owner, _, fn = heapq.heappop(self._heap)
            fn()

OWNERS = st.one_of(st.none(), st.integers(min_value=0, max_value=3))


def _actions(children):
    # (kind, delay, owner or None for "inherit", nested actions)
    return st.lists(st.tuples(
        st.sampled_from(["at", "after", "past"]),
        st.integers(min_value=0, max_value=5), OWNERS, children),
        max_size=3)


ACTIONS = st.recursive(_actions(st.just([])), _actions, max_leaves=30)
PROGRAMS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=12), OWNERS, ACTIONS),
    min_size=1, max_size=8)


def _firing_order(sim, program):
    """Run ``program`` on ``sim`` and return its firing order.

    Events schedule nested events with at()/after() and attempt
    rejected past-time schedules.
    """
    order = []

    def event(label, actions):
        def fire():
            order.append((label, sim.now, sim.current_owner))
            for i, (kind, delay, owner, children) in enumerate(actions):
                child = event(f"{label}.{i}", children)
                if kind == "at":
                    sim.at(sim.now + delay, child, owner)
                elif kind == "after":
                    sim.after(delay, child, owner)
                else:
                    with pytest.raises(SimulationError):
                        if sim.now > delay:
                            sim.at(sim.now - 1 - delay, child, owner)
                        else:
                            sim.after(-1 - delay, child, owner)
        return fire

    for i, (time, owner, actions) in enumerate(program):
        sim.at(time, event(str(i), actions), owner)
    sim.run()
    return order


class TestGlobalCounterEquivalence:
    @given(PROGRAMS)
    def test_fires_in_per_owner_counter_order(self, program):
        expected = _firing_order(ReferenceHeap(), program)
        assert _firing_order(Simulator(), program) == expected
