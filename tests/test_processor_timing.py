"""Processor timing: preemption accounting, batching, stalls, and the
interaction between user code and the protocol software context."""

from repro.common.types import CacheState, TrapKind
from repro.core.software.costmodel import CostModel
from repro.machine.machine import Machine
from repro.machine.params import MachineParams

from tests.helpers import ScriptWorkload


def machine(n=4, protocol="DirnH2SNB", **overrides):
    return Machine(MachineParams(n_nodes=n, **overrides), protocol=protocol)


def post_dummy_trap(m, node_id, latency=300):
    cost = CostModel("flexible").ack()
    padded = type(cost)(latency, {"x": latency})
    m.nodes[node_id].processor.post_trap(
        TrapKind.REMOTE_REQUEST, padded, lambda: None)


class TestComputeAccounting:
    def test_long_compute_exact(self):
        m = machine()
        stats = m.run(ScriptWorkload({0: [("compute", 12345)]}))
        assert stats.run_cycles == 12345
        assert stats.per_node[0].user_cycles == 12345

    def test_batched_small_computes_exact(self):
        m = machine()
        ops = [("compute", 7)] * 100
        stats = m.run(ScriptWorkload({0: ops}))
        assert stats.run_cycles == 700
        assert stats.per_node[0].user_cycles == 700

    def test_mixed_sizes_exact(self):
        m = machine()
        ops = [("compute", 3), ("compute", 1000), ("compute", 5)]
        stats = m.run(ScriptWorkload({0: ops}))
        assert stats.run_cycles == 1008


class TestPreemption:
    def test_handler_extends_user_compute(self):
        """A trap posted mid-compute delays completion by exactly the
        handler's occupancy."""
        m = machine()
        m.sim.at(500, lambda: post_dummy_trap(m, 0, latency=300))
        stats = m.run(ScriptWorkload({0: [("compute", 1000)]}))
        overhead = m.params.trap_dispatch_overhead
        assert stats.run_cycles == 1000 + 300 + overhead
        assert stats.per_node[0].user_cycles == 1000
        assert stats.per_node[0].handler_cycles == 300 + overhead

    def test_back_to_back_handlers_serialise(self):
        m = machine()
        m.sim.at(100, lambda: post_dummy_trap(m, 0, latency=200))
        m.sim.at(110, lambda: post_dummy_trap(m, 0, latency=200))
        stats = m.run(ScriptWorkload({0: [("compute", 1000)]}))
        overhead = 2 * m.params.trap_dispatch_overhead
        assert stats.run_cycles == 1000 + 400 + overhead

    def test_handler_on_idle_node_does_not_stretch_user(self):
        """Traps arriving after the thread finished cost nothing to it."""
        m = machine()
        m.sim.at(5000, lambda: post_dummy_trap(m, 0, latency=300))
        stats = m.run(ScriptWorkload({0: [("compute", 100)]}))
        assert stats.run_cycles == 100

    def test_handler_during_stall_overlaps(self):
        """Handlers run while the user is blocked on memory; only the
        tail past the fill delays the user."""
        m = machine()
        addr = m.heap.alloc_block(1)  # remote home: a long miss
        m.sim.at(2, lambda: post_dummy_trap(m, 0, latency=10))
        stats = m.run(ScriptWorkload({0: [("read", addr)]}))
        # The 10-cycle handler finished well inside the miss latency.
        no_trap = machine()
        addr2 = no_trap.heap.alloc_block(1)
        baseline = no_trap.run(ScriptWorkload({0: [("read", addr2)]}))
        assert stats.run_cycles == baseline.run_cycles


class TestStallAccounting:
    def test_cycles_partition(self):
        """user + stall cycles account for the whole critical path of a
        single-node serial run."""
        m = machine()
        addr = m.heap.alloc_block(1)
        stats = m.run(ScriptWorkload(
            {0: [("compute", 50), ("read", addr), ("compute", 50)]},
        ))
        ns = stats.per_node[0]
        assert ns.user_cycles + ns.stall_cycles == stats.run_cycles

    def test_hit_latency_counts_as_user_time(self):
        m = machine()
        addr = m.heap.alloc_block(0)
        stats = m.run(ScriptWorkload(
            {1: [("read", addr)] + [("read", addr)] * 9},
        ))
        ns = stats.per_node[1]
        assert ns.user_cycles >= 9 * m.params.cache_hit_latency


class TestVictimTiming:
    def test_victim_hits_cost_more_than_primary_hits(self):
        m = machine(victim_cache_enabled=True)
        a = m.heap.alloc_block(0)
        color = m.params.cache_set_of_block(a >> m.params.block_shift)
        b = m.heap.alloc_block(1, color=color)
        warm = [("read", a), ("read", b)]
        pingpong = [("read", a), ("read", b)] * 10
        stats = m.run(ScriptWorkload({2: warm + pingpong}))
        ns = stats.per_node[2]
        assert ns.victim_hits == 20
        # 2 + victim penalty per swap beyond the plain hit latency
        assert ns.user_cycles >= 20 * 3


class TestWatchdogTiming:
    def test_deferral_gives_user_a_window(self):
        m = machine(watchdog_threshold=100, watchdog_window=1000)
        m.nodes[0].processor.watchdog_enabled = True

        # Storm of traps that would otherwise run back to back.
        def storm(i=0):
            if i < 20:
                post_dummy_trap(m, 0, latency=150)
                m.sim.after(10, lambda: storm(i + 1))

        m.sim.at(50, storm)
        stats = m.run(ScriptWorkload({0: [("compute", 2000)]}))
        assert stats.per_node[0].watchdog_activations > 0
        # The user finished despite the storm.
        assert stats.per_node[0].user_cycles == 2000


class TestNonBlockingOpsSurvivePreemption:
    """An unlock or check-in launched mid-step fires at its cycle even if
    a handler pre-empts the compute that follows it in the same step
    (which invalidates the step's other scheduled user events)."""

    def test_checkin_fires_through_preemption(self):
        m = machine()
        addr = m.heap.alloc_block(1)
        block = addr >> m.params.block_shift
        m.nodes[0].cache_ctrl.cache.fill(block, CacheState.READ_ONLY)
        # The step at cycle 0 launches the check-in for cycle 10 and
        # the compute for cycle 12; the trap at 5 lands in between.
        m.sim.at(5, lambda: post_dummy_trap(m, 0))
        stats = m.run(ScriptWorkload(
            {0: [("compute", 10), ("checkin", addr), ("compute", 500)]}))
        assert stats.per_node[0].messages_sent["relinq"] == 1
        assert m.nodes[0].cache_ctrl.state_of(block) is CacheState.INVALID

    def test_unlock_fires_through_preemption(self):
        def run(trap_at=None):
            m = machine()
            lock = m.create_lock(home=0)
            released = []
            release = m.locks.release

            def spy(node_id, lock_id):
                released.append(m.sim.now)
                release(node_id, lock_id)

            m.locks.release = spy
            if trap_at is not None:
                m.sim.at(trap_at, lambda: post_dummy_trap(m, 0))
            m.run(ScriptWorkload({
                0: [("lock", lock), ("compute", 10), ("unlock", lock),
                    ("compute", 500)],
                1: [("compute", 2000), ("lock", lock), ("unlock", lock)],
            }))
            return released

        first = run()
        # Pre-empt node 0 between launching the unlock and its firing;
        # node 1 would deadlock on the lock if the unlock were dropped.
        assert run(trap_at=first[0] - 5)[0] == first[0]
