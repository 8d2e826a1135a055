"""Tests for the mesh topology and the contention-modelling fabric."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.network.detailed import DetailedFabric
from repro.network.fabric import Fabric, Message
from repro.network.topology import Mesh
from repro.sim.engine import Simulator


class TestMesh:
    def test_coords_row_major(self):
        mesh = Mesh(16)
        assert mesh.coords(0) == (0, 0)
        assert mesh.coords(3) == (3, 0)
        assert mesh.coords(4) == (0, 1)
        assert mesh.coords(15) == (3, 3)

    def test_node_at_inverts_coords(self):
        mesh = Mesh(16)
        for node in range(16):
            assert mesh.node_at(*mesh.coords(node)) == node

    def test_hops_manhattan(self):
        mesh = Mesh(16)
        assert mesh.hops(0, 0) == 0
        assert mesh.hops(0, 3) == 3
        assert mesh.hops(0, 15) == 6
        assert mesh.hops(5, 10) == 2

    def test_route_dimension_ordered(self):
        mesh = Mesh(16)
        route = mesh.route(0, 10)
        assert route[0] == 0 and route[-1] == 10
        assert len(route) == mesh.hops(0, 10) + 1
        # X first, then Y.
        assert route == [0, 1, 2, 6, 10]

    def test_neighbours(self):
        mesh = Mesh(9)
        assert sorted(mesh.neighbours(4)) == [1, 3, 5, 7]
        assert sorted(mesh.neighbours(0)) == [1, 3]

    def test_non_square_rejected(self):
        with pytest.raises(ConfigurationError):
            Mesh(12)

    def test_out_of_range_rejected(self):
        mesh = Mesh(4)
        with pytest.raises(ConfigurationError):
            mesh.coords(4)
        with pytest.raises(ConfigurationError):
            mesh.node_at(5, 0)

    @given(st.integers(min_value=0, max_value=63),
           st.integers(min_value=0, max_value=63))
    def test_hops_symmetric(self, a, b):
        mesh = Mesh(64)
        assert mesh.hops(a, b) == mesh.hops(b, a)

    @given(st.integers(min_value=0, max_value=63),
           st.integers(min_value=0, max_value=63),
           st.integers(min_value=0, max_value=63))
    def test_hops_triangle_inequality(self, a, b, c):
        mesh = Mesh(64)
        assert mesh.hops(a, c) <= mesh.hops(a, b) + mesh.hops(b, c)

    @given(st.integers(min_value=0, max_value=63),
           st.integers(min_value=0, max_value=63))
    def test_route_length_matches_hops(self, a, b):
        # The sharded lookahead (repro.sim.windows) trusts hops() to be
        # the true per-hop transit count of route(); pin them together.
        mesh = Mesh(64)
        route = mesh.route(a, b)
        assert route[0] == a and route[-1] == b
        assert len(route) - 1 == mesh.hops(a, b)
        for u, v in zip(route, route[1:]):
            assert mesh.hops(u, v) == 1

    @given(st.integers(min_value=0, max_value=63),
           st.integers(min_value=0, max_value=63))
    def test_hop_table_consistent_and_symmetric(self, a, b):
        mesh = Mesh(64)
        table = mesh.hop_table()
        n = mesh.n_nodes
        assert table[a * n + b] == mesh.hops(a, b)
        assert table[a * n + b] == table[b * n + a]

    @given(st.integers(min_value=0, max_value=15))
    def test_neighbours_are_exactly_the_one_hop_nodes(self, node):
        mesh = Mesh(16)
        one_hop = {other for other in range(16)
                   if mesh.hops(node, other) == 1}
        assert set(mesh.neighbours(node)) == one_hop


def _fabric(n=16, hop=1):
    sim = Simulator()
    mesh = Mesh(n)
    fabric = Fabric(sim, mesh, hop_latency=hop)
    inbox = {i: [] for i in range(n)}
    for i in range(n):
        fabric.attach(i, lambda m, i=i: inbox[i].append(m))
    return sim, fabric, inbox


class TestFabric:
    def test_uncontended_latency(self):
        sim, fabric, inbox = _fabric()
        msg = Message(src=0, dst=3, kind="x", size_flits=4)
        fabric.send(msg)
        sim.run()
        assert inbox[3][0] is msg
        # tx serialisation (4) + 3 hops + rx serialisation (4)
        assert msg.delivered_at == 4 + 3 + 4

    def test_loopback_is_fast(self):
        sim, fabric, inbox = _fabric()
        msg = Message(src=2, dst=2, kind="x", size_flits=9)
        fabric.send(msg)
        sim.run()
        assert msg.delivered_at == 1
        assert len(inbox[2]) == 1

    def test_loopback_fifo_despite_extra_delay(self):
        sim, fabric, inbox = _fabric()
        slow = Message(src=2, dst=2, kind="slow", size_flits=4)
        fast = Message(src=2, dst=2, kind="fast", size_flits=4)
        fabric.send(slow, extra_delay=10)
        fabric.send(fast)
        sim.run()
        # Loopback skips the transmit queue, so FIFO needs the clamp:
        # the late-composed message must not pass the earlier one.
        assert [m.kind for m in inbox[2]] == ["slow", "fast"]
        assert fast.delivered_at >= slow.delivered_at

    def test_tx_queue_serialises(self):
        sim, fabric, inbox = _fabric()
        a = Message(src=0, dst=3, kind="a", size_flits=4)
        b = Message(src=0, dst=12, kind="b", size_flits=4)
        fabric.send(a)
        fabric.send(b)
        sim.run()
        # Second message waits for the first to clear the transmit queue.
        assert b.delivered_at >= a.delivered_at  # same tx queue
        assert b.delivered_at == 8 + 3 + 4  # tx done at 8, 3 hops, rx 4

    def test_rx_queue_serialises(self):
        sim, fabric, inbox = _fabric()
        a = Message(src=1, dst=0, kind="a", size_flits=4)
        b = Message(src=4, dst=0, kind="b", size_flits=4)
        fabric.send(a)
        fabric.send(b)
        sim.run()
        assert a.delivered_at == 4 + 1 + 4
        # Both arrive at node 0 at the same instant; the receive queue
        # serialises them.
        assert b.delivered_at == a.delivered_at + 4

    def test_extra_delay_postpones_entry(self):
        sim, fabric, inbox = _fabric()
        msg = Message(src=0, dst=1, kind="a", size_flits=2)
        fabric.send(msg, extra_delay=10)
        sim.run()
        assert msg.delivered_at == 10 + 2 + 1 + 2

    def test_pair_fifo_despite_extra_delay(self):
        sim, fabric, inbox = _fabric()
        slow = Message(src=0, dst=5, kind="slow", size_flits=2)
        fast = Message(src=0, dst=5, kind="fast", size_flits=2)
        fabric.send(slow, extra_delay=50)
        fabric.send(fast)
        sim.run()
        assert fast.delivered_at >= slow.delivered_at  # FIFO per channel
        assert [m.kind for m in inbox[5]] == ["slow", "fast"]

    def test_flit_accounting(self):
        sim, fabric, inbox = _fabric()
        fabric.send(Message(src=0, dst=1, kind="a", size_flits=3))
        fabric.send(Message(src=1, dst=2, kind="b", size_flits=5))
        sim.run()
        assert fabric.flits_carried == 8
        assert fabric.messages_delivered == 2

    def test_delivered_count_excludes_deliveries_beyond_until(self):
        sim, fabric, inbox = _fabric()
        near = Message(src=0, dst=1, kind="near", size_flits=2)
        far = Message(src=0, dst=15, kind="far", size_flits=2)
        loop = Message(src=2, dst=2, kind="loop", size_flits=2)
        fabric.send(near)  # tx 0-2, 1 hop, arrives 3, delivered 5
        fabric.send(far)  # tx 2-4, 6 hops, arrives 10, delivered 12
        fabric.send(loop, extra_delay=40)  # delivery queued for 41
        sim.run(until=10)
        # `far` has arrived and `loop` was sent: both deliveries are
        # queued beyond the limit, so neither counts yet.
        assert (far.delivered_at, loop.delivered_at) == (12, 41)
        assert sim.pending_events == 2
        assert [m.kind for m in inbox[1]] == ["near"]
        assert fabric.messages_delivered == 1
        sim.run()
        assert fabric.messages_delivered == 3
        assert [inbox[15], inbox[2]] == [[far], [loop]]

    def test_unattached_receiver_raises(self):
        sim = Simulator()
        fabric = Fabric(sim, Mesh(4))
        fabric.send(Message(src=0, dst=1, kind="x", size_flits=1))
        with pytest.raises(RuntimeError):
            sim.run()

    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=8),  # src
                  st.integers(min_value=0, max_value=8),  # dst
                  st.integers(min_value=1, max_value=12),  # size
                  st.integers(min_value=0, max_value=30)),  # extra delay
        min_size=1, max_size=40))
    def test_per_pair_fifo_property(self, sends):
        sim, fabric, inbox = _fabric(n=9)
        expected = {}
        for i, (src, dst, size, extra) in enumerate(sends):
            fabric.send(Message(src=src, dst=dst, kind=str(i),
                                size_flits=size), extra_delay=extra)
            expected.setdefault((src, dst), []).append(str(i))
        sim.run()
        got = {}
        for dst, messages in inbox.items():
            for m in messages:
                got.setdefault((m.src, m.dst), []).append(m.kind)
        assert got == expected


class TestDetailedDelivery:
    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=8),  # src
                  st.integers(min_value=0, max_value=8),  # dst
                  st.integers(min_value=1, max_value=12),  # size
                  st.integers(min_value=0, max_value=30)),  # extra delay
        min_size=1, max_size=40))
    def test_per_pair_fifo_property(self, sends):
        sim = Simulator()
        fabric = DetailedFabric(sim, Mesh(9))
        received = []
        for i in range(9):
            fabric.attach(i, received.append)
        expected = {}
        for i, (src, dst, size, extra) in enumerate(sends):
            fabric.send(Message(src=src, dst=dst, kind=str(i),
                                size_flits=size), extra_delay=extra)
            expected.setdefault((src, dst), []).append(str(i))
        sim.run()
        got = {}
        for m in received:
            got.setdefault((m.src, m.dst), []).append(m.kind)
        assert got == expected
        assert fabric.messages_delivered == len(sends)

    def test_unattached_receiver_raises(self):
        sim = Simulator()
        fabric = DetailedFabric(sim, Mesh(4))
        fabric.send(Message(src=0, dst=1, kind="x", size_flits=1))
        with pytest.raises(RuntimeError):
            sim.run()
