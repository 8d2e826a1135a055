"""Machine-wide barrier over a combining tree.

Alewife provides a fast barrier implemented with protocol-extension
support (Section 7).  We model it as a 4-ary combining tree of the node
ids: arrivals propagate up through real fabric messages (so barriers see
network latency and endpoint contention), and the release broadcasts back
down the tree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.common.errors import SimulationError
from repro.core import messages as msg

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.machine import Machine
    from repro.network.fabric import Message

#: Children per tree node.
ARITY = 4

#: Cycles of local processing per barrier message.
BARRIER_NODE_DELAY = 2


class BarrierManager:
    """Combining-tree barrier across all nodes of the machine."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.n_nodes = machine.params.n_nodes
        #: per-node arrival epoch (how many barriers this node has entered)
        self._epoch: List[int] = [0] * self.n_nodes
        #: per-node, per-epoch count of arrivals (self + subtree)
        self._counts: List[Dict[int, int]] = [dict() for _ in range(self.n_nodes)]
        self.barriers_completed = 0
        #: optional callback invoked when a barrier completes at the
        #: root (a quiescent point — used by the coherence checker)
        self.on_complete = None

    @staticmethod
    def parent(node: int) -> int:
        return (node - 1) // ARITY

    def children(self, node: int) -> List[int]:
        first = node * ARITY + 1
        return [c for c in range(first, first + ARITY) if c < self.n_nodes]

    def expected(self, node: int) -> int:
        return 1 + len(self.children(node))

    # ------------------------------------------------------------------
    # Arrival / release
    # ------------------------------------------------------------------

    def arrive(self, node: int) -> None:
        """The processor at ``node`` reached its next barrier."""
        epoch = self._epoch[node]
        self._epoch[node] += 1
        self._up(node, epoch)

    def _up(self, node: int, epoch: int) -> None:
        counts = self._counts[node]
        counts[epoch] = counts.get(epoch, 0) + 1
        if counts[epoch] < self.expected(node):
            return
        del counts[epoch]
        if node == 0:
            self.barriers_completed += 1
            if self.on_complete is not None:
                self.on_complete()
            self._release(node, epoch)
        else:
            self.machine.nodes[node].send_protocol(
                msg.BAR_UP, self.parent(node), epoch,
                extra_delay=BARRIER_NODE_DELAY,
            )

    def _release(self, node: int, epoch: int) -> None:
        for child in self.children(node):
            self.machine.nodes[node].send_protocol(
                msg.BAR_DOWN, child, epoch,
                extra_delay=BARRIER_NODE_DELAY,
            )
        self.machine.nodes[node].processor.barrier_release()

    def handle(self, message: "Message") -> None:
        epoch = message.block  # epoch rides in the block field
        if message.kind == msg.BAR_UP:
            self._up(message.dst, epoch)
        elif message.kind == msg.BAR_DOWN:
            self._release(message.dst, epoch)
        else:
            raise SimulationError(f"barrier received {message.kind}")
