"""Optional link-level network model (beyond NWO's fidelity).

NWO "models communication contention at the CMMU network transmit and
receive queues, but does not model contention within the network
switches" (paper Section 3.2) — and the default
:class:`~repro.network.fabric.Fabric` reproduces exactly that.  This
module adds the contention NWO leaves out: every directed mesh link a
message traverses under dimension-ordered routing is a serialised
resource, so messages crossing shared links queue behind each other.

Unlike the base fabric, delivery is computed analytically at send time
(one event per message): link reservations are global state, so there
is no per-node locality to exploit and no reason to split the path into
arrival and delivery events.

The ablation benchmark compares the two models to quantify how much the
paper's results could owe to the unmodelled switch contention (answer:
little, at these traffic levels — which supports NWO's simplification).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Tuple

from repro.network.fabric import Fabric, Message
from repro.network.topology import Mesh
from repro.sim.engine import Simulator

Link = Tuple[int, int]


class DetailedFabric(Fabric):
    """Fabric with per-link wormhole-style serialisation.

    A message reserves each directed link of its route in order; a link
    busy with an earlier message delays it.  Transit still costs
    ``hop_latency`` per hop for the head flit, plus the message length
    at the bottleneck link.
    """

    def __init__(self, sim: Simulator, mesh: Mesh,
                 hop_latency: int = 1) -> None:
        super().__init__(sim, mesh, hop_latency)
        self._link_free: Dict[Link, int] = {}
        #: last delivery time per (src, dst) pair: with link contention
        #: the analytic delivery times are not monotone per channel, so
        #: FIFO order needs an explicit clamp (the base fabric gets it
        #: for free from arrival-ordered receive queues).
        self._pair_last: Dict[Tuple[int, int], int] = {}
        self.link_wait_cycles = 0

    def send(self, msg: Message, extra_delay: int = 0) -> None:
        now = self.sim.now + extra_delay
        msg.sent_at = now

        if msg.src == msg.dst:
            deliver = now + 1
        else:
            tx_start = max(now, self._tx_free[msg.src])
            tx_done = tx_start + msg.size_flits
            self._tx_free[msg.src] = tx_done

            # The head flit advances hop by hop; each directed link is
            # occupied for the whole message length once the head passes.
            route = self.mesh.route(msg.src, msg.dst)
            head = tx_done
            for src_hop, dst_hop in zip(route, route[1:]):
                link = (src_hop, dst_hop)
                free_at = self._link_free.get(link, 0)
                if free_at > head:
                    self.link_wait_cycles += free_at - head
                    head = free_at
                head += self.hop_latency
                self._link_free[link] = head + msg.size_flits - 1

            arrival = head + msg.size_flits - 1
            rx_start = max(arrival, self._rx_free[msg.dst])
            deliver = rx_start + 1
            self._rx_free[msg.dst] = rx_start + msg.size_flits

        pair = (msg.src, msg.dst)
        last = self._pair_last.get(pair, 0)
        deliver = max(deliver, last)
        self._pair_last[pair] = deliver

        msg.delivered_at = deliver
        self.flits_carried += msg.size_flits
        self._deliveries += 1
        # The delivery event is owned by the receiving node: send() runs
        # in the sender's event context, and two same-channel messages
        # clamped to the same delivery cycle must sort in send order —
        # keys naming the receiver rank in allocation order, which gives
        # exactly that, while a sender-context owner would order them
        # arbitrarily.
        self.sim.at(deliver, partial(self._receivers[msg.dst], msg),
                    owner=msg.dst)
        if self.obs is not None:
            self._notify(msg)
