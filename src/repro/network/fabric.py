"""Network fabric: message delivery with endpoint queue contention.

Matching NWO's stated fidelity (paper Section 3.2), contention is modelled
at the per-node transmit and receive queues — each serialises one flit per
cycle — while switch transit is an uncontended per-hop latency.  The
transmit queue is resolved at the *source* when a message is sent; the
receive queue is resolved at the *destination* when the message arrives.
Each message therefore costs two events (arrival and delivery), and every
piece of network state is local to exactly one node: transmit clocks to
the sender, receive clocks to the receiver.

Point-to-point FIFO needs no explicit bookkeeping here: per (src, dst)
pair, arrival times are strictly increasing (the sender's transmit queue
serialises them and transit is constant per pair), and the receive clock
is monotone, so deliveries cannot reorder.  Senders that add composition
delays (``extra_delay``) enter the transmit queue late but still
serialise through it.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.network.topology import Mesh
from repro.obs.events import MessageSent
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.events import EventBus


class Message:
    """A message in flight.  ``payload`` is protocol-defined.

    Hot-path object: one is allocated per protocol message, which for a
    software-heavy run means millions per simulation.  ``__slots__``
    (hand-written rather than ``dataclass(slots=True)``, which needs
    Python 3.10) drops the per-instance ``__dict__`` — smaller, faster
    to allocate, faster attribute access in :meth:`Fabric.send`.
    """

    __slots__ = ("src", "dst", "kind", "size_flits", "payload",
                 "sent_at", "delivered_at")

    def __init__(self, src: int, dst: int, kind: str, size_flits: int,
                 payload: Any = None, sent_at: int = 0,
                 delivered_at: int = 0) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.size_flits = size_flits
        self.payload = payload
        self.sent_at = sent_at
        self.delivered_at = delivered_at

    def __repr__(self) -> str:
        return (
            f"Message(src={self.src!r}, dst={self.dst!r}, "
            f"kind={self.kind!r}, size_flits={self.size_flits!r}, "
            f"payload={self.payload!r}, sent_at={self.sent_at!r}, "
            f"delivered_at={self.delivered_at!r})"
        )


#: Handler invoked at the destination when a message is delivered.
Receiver = Callable[[Message], None]


class Fabric:
    """Delivers messages between nodes over a 2-D mesh."""

    def __init__(self, sim: Simulator, mesh: Mesh, hop_latency: int = 1) -> None:
        self.sim = sim
        self.mesh = mesh
        self.hop_latency = hop_latency
        #: transit cycles per (src, dst), flat-indexed ``src * n + dst``.
        #: Precomputed once: hop counts never change, and recomputing
        #: mesh coordinates per message was a measurable share of the
        #: send path in profiles.
        self._n_nodes = mesh.n_nodes
        self._transit = [h * hop_latency for h in mesh.hop_table()]
        self._tx_free = [0] * mesh.n_nodes
        self._rx_free = [0] * mesh.n_nodes
        #: last loopback delivery per node.  Loopback bypasses the
        #: transmit queue (it costs no queue time), so a later loopback
        #: composed faster could otherwise overtake an earlier one —
        #: e.g. a FETCH_INV passing the local WDATA grant it chases.
        #: Network channels need no such clamp: the transmit queue
        #: ratchets per-channel arrivals into send order.
        self._loop_last = [0] * mesh.n_nodes
        #: delivery callback per node id, called directly by each
        #: delivery event; an unattached slot raises when a message
        #: reaches it.
        self._receivers: List[Receiver] = [self._unattached] * mesh.n_nodes
        #: delivery events scheduled so far (see messages_delivered)
        self._deliveries = 0
        self.flits_carried = 0
        #: observability bus (set by Machine.observe); probe sites stay
        #: a single None-check until someone is listening
        self.obs: Optional["EventBus"] = None

    def attach(self, node: int, receiver: Receiver) -> None:
        """Register the delivery callback for ``node``."""
        self._receivers[node] = receiver

    @staticmethod
    def _unattached(msg: Message) -> None:
        raise RuntimeError(f"no receiver attached at node {msg.dst}")

    @property
    def messages_delivered(self) -> int:
        """Messages whose delivery event has run.

        Delivery events call the receiver directly, so nothing counts
        them as they fire.  The count is derived on read instead: the
        deliveries scheduled, minus those still queued — a run stopped
        by ``until`` leaves later deliveries queued, and they do not
        count.
        """
        receivers = self._receivers
        queued = sum(
            1 for event in self.sim._heap
            if type(event[3]) is partial and event[3].func in receivers
        )
        return self._deliveries - queued

    def send(self, msg: Message, extra_delay: int = 0) -> None:
        """Inject ``msg`` into the fabric.

        ``extra_delay`` delays entry into the transmit queue (e.g. the
        sender is a software handler still composing the message).
        The delivery time is not known here: the receive queue is
        resolved at arrival, on the destination node.
        """
        now = self.sim.now + extra_delay
        msg.sent_at = now
        src = msg.src
        size = msg.size_flits
        self.flits_carried += size

        if src == msg.dst:
            # Loopback (e.g. a node's own CMMU): charge no queue time,
            # but keep the channel FIFO (ties break in send order via
            # the event sequence number).
            deliver = now + 1
            last = self._loop_last[src]
            if last > deliver:
                deliver = last
            self._loop_last[src] = deliver
            msg.delivered_at = deliver
            self._deliveries += 1
            # partial beats a lambda here: calling it enters the
            # receiver directly from C, with no extra Python frame.
            self.sim.at(deliver, partial(self._receivers[src], msg))
            if self.obs is not None:
                self._notify(msg)
            return

        tx_free = self._tx_free
        tx_start = tx_free[src]
        if now > tx_start:
            tx_start = now
        tx_done = tx_start + size
        tx_free[src] = tx_done
        arrival = tx_done + self._transit[src * self._n_nodes + msg.dst]
        self.sim.at(arrival, partial(self._receive, msg))

    def _receive(self, msg: Message) -> None:
        """``msg`` arrived at its destination's receive queue.

        Runs at the arrival time.  The simulation context is
        re-anchored to the destination: every event this delivery
        causes is keyed by the receiver's node id.  That fixes the
        same-cycle event order and the transaction ids, which the
        equivalence and op-coverage fixtures and the attribution
        baseline pin.
        """
        sim = self.sim
        dst = msg.dst
        sim.current_owner = dst
        rx_free = self._rx_free
        rx_start = rx_free[dst]
        now = sim.now
        if now > rx_start:
            rx_start = now
        deliver = rx_start + msg.size_flits
        rx_free[dst] = deliver
        msg.delivered_at = deliver
        self._deliveries += 1
        sim.at(deliver, partial(self._receivers[dst], msg))
        if self.obs is not None:
            self._notify(msg)

    def _notify(self, msg: Message) -> None:
        """Emit a message probe event (repro.obs)."""
        obs = self.obs
        if obs is None or not obs.on_message:
            return
        payload = msg.payload
        obs.message(MessageSent(
            msg.src, msg.dst, msg.kind, msg.size_flits, msg.sent_at,
            msg.delivered_at, getattr(payload, "block", None),
            getattr(payload, "txn", None)))

    # ------------------------------------------------------------------
    # Introspection (read-only; used by the interval sampler)
    # ------------------------------------------------------------------

    def tx_backlog(self, node: int, now: int) -> int:
        """Cycles of queued work at ``node``'s transmit endpoint."""
        return max(0, self._tx_free[node] - now)

    def rx_backlog(self, node: int, now: int) -> int:
        """Cycles of queued work at ``node``'s receive endpoint."""
        return max(0, self._rx_free[node] - now)
