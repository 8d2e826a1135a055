"""Tests for the handler cost model (paper Tables 1 and 2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.core.software.costmodel import (
    FLEXIBLE,
    OPTIMIZED,
    TABLE2_ACTIVITIES,
    CostModel,
)


class TestTable2Reproduction:
    """The 8-reader medians of Table 2 are reproduced exactly."""

    def test_flexible_read_total(self):
        cost = CostModel(FLEXIBLE).read_overflow(pointers_emptied=5)
        assert cost.latency == 480

    def test_flexible_write_total(self):
        cost = CostModel(FLEXIBLE).write_extended(invalidations=8)
        assert cost.latency == 737

    def test_optimized_read_total(self):
        cost = CostModel(OPTIMIZED).read_overflow(pointers_emptied=5)
        assert cost.latency == 193

    def test_optimized_write_total(self):
        cost = CostModel(OPTIMIZED).write_extended(invalidations=8)
        assert cost.latency == 384

    def test_flexible_read_breakdown_rows(self):
        b = CostModel(FLEXIBLE).read_overflow(5).breakdown
        assert b["trap dispatch"] == 11
        assert b["system message dispatch"] == 14
        assert b["protocol-specific dispatch"] == 10
        assert b["decode and modify hardware directory"] == 22
        assert b["save state for function calls"] == 24
        assert b["memory management"] == 60
        assert b["hash table administration"] == 80
        assert b["store pointers into extended directory"] == 235
        assert b["support for non-Alewife protocols"] == 10
        assert b["trap return"] == 14

    def test_flexible_write_breakdown_rows(self):
        b = CostModel(FLEXIBLE).write_extended(8).breakdown
        assert b["trap dispatch"] == 9
        assert b["decode and modify hardware directory"] == 52
        assert b["memory management"] == 28
        assert b["hash table administration"] == 74
        assert b["store pointers into extended directory"] == 99
        assert b["invalidation lookup and transmit"] == 419
        assert b["trap return"] == 9

    def test_optimized_has_no_hash_table(self):
        b = CostModel(OPTIMIZED).read_overflow(5).breakdown
        assert "hash table administration" not in b
        assert "protocol-specific dispatch" not in b
        assert "save state for function calls" not in b
        assert "support for non-Alewife protocols" not in b

    def test_breakdown_names_are_table2_rows(self):
        for impl in (FLEXIBLE, OPTIMIZED):
            model = CostModel(impl)
            for cost in (model.read_overflow(5), model.write_extended(8)):
                for name in cost.breakdown:
                    assert name in TABLE2_ACTIVITIES

    def test_latency_equals_breakdown_sum(self):
        model = CostModel(FLEXIBLE)
        for cost in (model.read_overflow(3), model.write_extended(12),
                     model.ack(), model.last_ack(),
                     model.sw_request("read", 1),
                     model.sw_request("write", 4), model.local_fault()):
            assert cost.latency == sum(cost.breakdown.values())


class TestScaling:
    @given(st.integers(min_value=0, max_value=64),
           st.integers(min_value=0, max_value=64))
    def test_write_monotonic_in_invalidations(self, a, b):
        model = CostModel(FLEXIBLE)
        lo, hi = sorted((a, b))
        assert (model.write_extended(lo).latency
                <= model.write_extended(hi).latency)

    @given(st.integers(min_value=0, max_value=16),
           st.integers(min_value=0, max_value=16))
    def test_read_monotonic_in_pointers(self, a, b):
        model = CostModel(OPTIMIZED)
        lo, hi = sorted((a, b))
        assert (model.read_overflow(lo).latency
                <= model.read_overflow(hi).latency)

    @given(st.integers(min_value=0, max_value=64))
    def test_optimized_faster_than_flexible(self, count):
        flex = CostModel(FLEXIBLE)
        opt = CostModel(OPTIMIZED)
        assert (opt.read_overflow(count).latency
                < flex.read_overflow(count).latency)
        assert (opt.write_extended(count).latency
                < flex.write_extended(count).latency)
        assert opt.ack().latency < flex.ack().latency

    def test_factor_of_two_claim(self):
        """Section 4.2: hand-tuning reduces handler latency by about 2x."""
        flex = CostModel(FLEXIBLE)
        opt = CostModel(OPTIMIZED)
        read_ratio = flex.read_overflow(5).latency / opt.read_overflow(5).latency
        write_ratio = (flex.write_extended(8).latency
                       / opt.write_extended(8).latency)
        assert 1.7 <= read_ratio <= 2.8
        assert 1.6 <= write_ratio <= 2.4


class TestSmallSetOptimization:
    """Section 5: the memory-usage optimization for sets of <= 4."""

    @given(st.integers(min_value=0, max_value=4))
    def test_small_sets_cheaper(self, count):
        plain = CostModel(FLEXIBLE, smallset_opt=False)
        opt = CostModel(FLEXIBLE, smallset_opt=True)
        assert (opt.read_overflow(count, small=True).latency
                < plain.read_overflow(count, small=True).latency)
        assert (opt.write_extended(count, small=True).latency
                < plain.write_extended(count, small=True).latency)

    def test_small_flag_ignored_without_opt(self):
        model = CostModel(FLEXIBLE, smallset_opt=False)
        assert (model.read_overflow(2, small=True).latency
                == model.read_overflow(2, small=False).latency)

    def test_large_sets_unaffected(self):
        with_opt = CostModel(FLEXIBLE, smallset_opt=True)
        without = CostModel(FLEXIBLE, smallset_opt=False)
        assert (with_opt.write_extended(10, small=False).latency
                == without.write_extended(10, small=False).latency)


class TestAckHandlers:
    def test_last_ack_adds_data_transmit(self):
        model = CostModel(FLEXIBLE)
        assert model.last_ack().latency == model.ack().latency + 30
        opt = CostModel(OPTIMIZED)
        assert opt.last_ack().latency == opt.ack().latency + 15

    def test_ack_cheaper_than_request_handlers(self):
        model = CostModel(FLEXIBLE)
        assert model.ack().latency < model.read_overflow(1).latency
        assert model.ack().latency < model.write_extended(1).latency

    def test_message_spacing(self):
        assert CostModel(FLEXIBLE).message_spacing == 9
        assert CostModel(OPTIMIZED).message_spacing == 6
        assert CostModel(FLEXIBLE).write_extended(4).per_message_spacing == 9


class TestValidation:
    def test_unknown_implementation_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel("turbo")

    def test_sw_request_write_without_targets_sends_data(self):
        cost = CostModel(FLEXIBLE).sw_request("write", 0)
        assert "data transmit" in cost.breakdown
        assert "invalidation lookup and transmit" not in cost.breakdown

    def test_sw_request_read_includes_data_send(self):
        cost = CostModel(FLEXIBLE).sw_request("read", 1)
        assert "data transmit" in cost.breakdown


class TestSharedCosts:
    """Every handler sample keeps its cost's breakdown, so equal
    arguments give the one shared cost rather than a dict per call."""

    def test_equal_arguments_share_one_cost(self):
        a, b = CostModel(FLEXIBLE), CostModel(FLEXIBLE)
        assert a.read_overflow(5) is b.read_overflow(5)
        assert a.ack() is a.ack()
        assert a.write_extended(8) is not a.write_extended(9)
        assert a.ack() is not CostModel(OPTIMIZED).ack()
