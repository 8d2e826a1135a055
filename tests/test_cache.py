"""Tests for the direct-mapped cache and victim cache."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.cache import DirectMappedCache, VictimCache
from repro.common.types import AccessType, CacheState
from repro.core.cache_ctrl import VICTIM_HIT_PENALTY
from repro.machine.machine import Machine
from repro.machine.params import MachineParams

RO = CacheState.READ_ONLY
RW = CacheState.READ_WRITE
INV = CacheState.INVALID


class TestTryHitDecisionTable:
    """``CacheController.try_hit`` for every line state, access kind and
    place the line is found: the latency returned and the counter
    deltas.  READ_WRITE satisfies every access; READ_ONLY every access
    but a write; INVALID none."""

    SATISFIED = {
        (RO, AccessType.READ), (RO, AccessType.IFETCH),
        (RW, AccessType.READ), (RW, AccessType.WRITE),
        (RW, AccessType.IFETCH),
    }

    @pytest.mark.parametrize("where", ["main", "victim"])
    @pytest.mark.parametrize("access", list(AccessType), ids=str)
    @pytest.mark.parametrize("state", [INV, RO, RW], ids=str)
    def test_decision(self, state, access, where):
        m = Machine(MachineParams(n_nodes=4, victim_cache_enabled=True))
        ctrl = m.nodes[1].cache_ctrl
        block = 12345
        if state is not INV:
            ctrl.cache.fill(block, state)
        if where == "victim":
            # A conflicting fill pushes the line into the victim buffer.
            ctrl.cache.fill(block + ctrl.cache.n_sets, RO)
        stats = ctrl.node.stats
        before = (stats.cache_hits, stats.victim_hits, stats.cache_misses)
        latency = ctrl.try_hit(access, block)
        after = (stats.cache_hits, stats.victim_hits, stats.cache_misses)
        deltas = tuple(b - a for a, b in zip(before, after))
        hit = m.params.cache_hit_latency
        if (state, access) not in self.SATISFIED:
            assert latency is None
            assert deltas == (0, 0, 1)
        elif where == "victim":
            assert latency == hit + VICTIM_HIT_PENALTY
            assert deltas == (1, 1, 0)
        else:
            assert latency == hit
            assert deltas == (1, 0, 0)


class TestDirectMapped:
    def test_fill_then_hit(self):
        cache = DirectMappedCache(64)
        assert cache.fill(5, RO) == []
        state, from_victim = cache.lookup(5)
        assert state is RO and not from_victim

    def test_miss_on_absent(self):
        cache = DirectMappedCache(64)
        assert cache.lookup(5) == (INV, False)

    def test_conflict_eviction(self):
        cache = DirectMappedCache(64)
        cache.fill(5, RO)
        evicted = cache.fill(5 + 64, RW)
        assert [e.block for e in evicted] == [5]
        assert not evicted[0].dirty
        assert cache.lookup(5) == (INV, False)

    def test_dirty_eviction_flagged(self):
        cache = DirectMappedCache(64)
        cache.fill(9, RW)
        evicted = cache.fill(9 + 64, RO)
        assert evicted[0].dirty

    def test_refill_same_block_upgrades(self):
        cache = DirectMappedCache(64)
        cache.fill(7, RO)
        assert cache.fill(7, RW) == []
        assert cache.probe(7) is RW

    def test_invalidate(self):
        cache = DirectMappedCache(64)
        cache.fill(3, RO)
        assert cache.invalidate(3) is RO
        assert cache.probe(3) is INV
        assert cache.invalidate(3) is INV

    def test_downgrade(self):
        cache = DirectMappedCache(64)
        cache.fill(3, RW)
        assert cache.downgrade(3) is RW
        assert cache.probe(3) is RO

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            DirectMappedCache(60)

    def test_resident_blocks(self):
        cache = DirectMappedCache(64)
        cache.fill(1, RO)
        cache.fill(2, RW)
        assert sorted(cache.resident_blocks()) == [1, 2]


class TestVictimCache:
    def test_eviction_lands_in_victim(self):
        cache = DirectMappedCache(64, victim_entries=2)
        cache.fill(5, RO)
        assert cache.fill(5 + 64, RO) == []  # victim absorbs it
        state, from_victim = cache.lookup(5)
        assert state is RO and from_victim

    def test_victim_hit_swaps_back(self):
        cache = DirectMappedCache(64, victim_entries=2)
        cache.fill(5, RO)
        cache.fill(5 + 64, RO)
        cache.lookup(5)  # swap 5 back into the main array
        state, from_victim = cache.lookup(5)
        assert state is RO and not from_victim
        # The displaced line is now in the victim buffer.
        state, from_victim = cache.lookup(5 + 64)
        assert state is RO and from_victim

    def test_victim_overflow_evicts_fifo(self):
        cache = DirectMappedCache(64, victim_entries=1)
        cache.fill(5, RW)
        assert cache.fill(5 + 64, RO) == []  # 5 -> victim
        evicted = cache.fill(5 + 128, RO)  # pushes 5 out entirely
        assert [e.block for e in evicted] == [5]
        assert evicted[0].dirty

    def test_ping_pong_conflict_absorbed(self):
        """The Jouppi scenario: two conflicting hot lines both stay
        resident with a victim cache."""
        cache = DirectMappedCache(64, victim_entries=2)
        a, b = 10, 10 + 64
        cache.fill(a, RO)
        cache.fill(b, RO)
        for _ in range(20):
            assert cache.lookup(a)[0] is RO
            assert cache.lookup(b)[0] is RO
        assert cache.victim is not None
        assert cache.victim.hits >= 20

    def test_invalidate_reaches_victim(self):
        cache = DirectMappedCache(64, victim_entries=2)
        cache.fill(5, RO)
        cache.fill(5 + 64, RO)
        assert cache.invalidate(5) is RO  # 5 is in the victim buffer
        assert cache.probe(5) is INV

    def test_downgrade_reaches_victim(self):
        cache = DirectMappedCache(64, victim_entries=2)
        cache.fill(5, RW)
        cache.fill(5 + 64, RO)
        assert cache.downgrade(5) is RW
        assert cache.probe(5) is RO

    def test_refill_drops_stale_victim_copy(self):
        cache = DirectMappedCache(64, victim_entries=2)
        cache.fill(5, RO)
        cache.fill(5 + 64, RO)  # 5 in victim
        cache.fill(5, RW)  # re-fill main; stale victim copy must go
        assert cache.probe(5) is RW
        assert cache.victim is not None and 5 not in cache.victim

    def test_zero_entry_victim_passthrough(self):
        victim = VictimCache(0)
        evicted = victim.insert(5, RO)
        assert evicted is not None and evicted.block == 5


class TestInvariants:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=300),
                              st.booleans()),
                    min_size=1, max_size=200),
           st.integers(min_value=0, max_value=4))
    def test_no_duplicate_residency(self, fills, victim_entries):
        """A block never appears in both the main array and the victim
        buffer, and a filled block is always immediately readable."""
        cache = DirectMappedCache(32, victim_entries=victim_entries)
        for block, dirty in fills:
            cache.fill(block, RW if dirty else RO)
            assert cache.probe(block) is not INV
            resident = cache.resident_blocks()
            assert len(resident) == len(set(resident))

    @given(st.lists(st.integers(min_value=0, max_value=200),
                    min_size=1, max_size=150))
    def test_capacity_never_exceeded(self, blocks):
        cache = DirectMappedCache(16, victim_entries=3)
        for block in blocks:
            cache.fill(block, RO)
            assert len(cache.resident_blocks()) <= 16 + 3

    @given(st.lists(st.integers(min_value=0, max_value=100),
                    min_size=1, max_size=100))
    def test_lookup_never_loses_lines(self, blocks):
        """Looking up (including victim swaps) preserves residency."""
        cache = DirectMappedCache(16, victim_entries=2)
        for block in blocks:
            cache.fill(block, RO)
        before = set(cache.resident_blocks())
        for block in list(before):
            state, _ = cache.lookup(block)
            assert state is RO
        assert set(cache.resident_blocks()) == before
