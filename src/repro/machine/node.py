"""A processing node: processor + cache controller + home controller.

The node also plays the role of the CMMU's message dispatcher: incoming
fabric messages are routed to the cache side, the memory (home) side, or
the barrier tree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.common.errors import ProtocolStateError
from repro.core import messages as msg
from repro.core.cache_ctrl import CacheController
from repro.core.messages import message_size
from repro.core.protocol import HomeProtocolEngine, build_home_engine
from repro.machine.sync import LOCK_KINDS, REDUCE_KINDS
from repro.core.software.interface import CoherenceInterface
from repro.machine.processor import Processor
from repro.network.fabric import Message
from repro.sim.stats import NodeStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.machine import Machine

_CACHE_SIDE = frozenset(
    {msg.RDATA, msg.WDATA, msg.BUSY, msg.INV, msg.FETCH_RD, msg.FETCH_INV}
)
_HOME_SIDE = frozenset(
    {msg.RREQ, msg.WREQ, msg.ACK, msg.FETCH_DATA, msg.EVICT_WB, msg.RELINQ}
)
_BARRIER = frozenset({msg.BAR_UP, msg.BAR_DOWN})
#: kinds that belong to a coherence transaction; barrier, lock and
#: reduction messages never do
_COHERENCE = _CACHE_SIDE | _HOME_SIDE

HomeController = HomeProtocolEngine


class Node:
    """One Alewife node."""

    def __init__(self, node_id: int, machine: "Machine") -> None:
        self.id = node_id
        self.machine = machine
        self.stats = NodeStats(node=node_id)
        self.processor = Processor(self)
        self.cache_ctrl = CacheController(self)
        spec = machine.spec
        self.interface: Optional[CoherenceInterface] = None
        if spec.needs_software:
            self.interface = CoherenceInterface(
                self, spec, machine.software_implementation
            )
        self.home: HomeController = build_home_engine(
            self, spec, self.interface
        )
        self.processor.watchdog_enabled = machine.watchdog_enabled
        #: flit size per message kind, precomputed from the (frozen)
        #: machine params so send_protocol skips the per-send
        #: message_size call.
        params = machine.params
        self._msg_flits = {
            kind: message_size(kind, params.header_flits,
                               params.data_flits)
            for kind in sorted(_CACHE_SIDE | _HOME_SIDE | _BARRIER
                               | LOCK_KINDS | REDUCE_KINDS)
        }
        #: Transaction id of the coherence message currently being
        #: dispatched (observability metadata; see `repro.obs.spans`).
        #: Set around cache-/home-side dispatch so any message sent
        #: synchronously in response inherits the causing transaction.
        self.current_txn: Optional[int] = None

    def close(self) -> None:
        """Drop the references from this node and its components back
        up to the node and the machine (see ``Machine.close``)."""
        self.machine = None
        self.processor.close()
        self.cache_ctrl.node = None
        self.home.close()
        if self.interface is not None:
            self.interface.node = None

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------

    def send_protocol(self, kind: str, dst: int, block: int,
                      extra_delay: int = 0,
                      txn: Optional[int] = None) -> None:
        """Launch a protocol (or barrier) message into the fabric.

        ``txn`` tags the message with the transaction it serves; when
        omitted, a coherence message defaults to the transaction whose
        message is being dispatched right now (``current_txn``), which
        covers every synchronous response path (grants, invalidations,
        acks, busy replies, fetches) without the protocol code having
        to thread it.  Barrier, lock and reduction messages stay
        untagged: one sent while a node resumes from a data grant is
        not part of the miss that grant completed.
        """
        try:
            size = self._msg_flits[kind]
        except KeyError:  # a kind outside the precomputed vocabulary
            params = self.machine.params
            size = message_size(kind, params.header_flits,
                                params.data_flits)
        self.stats.messages_sent[kind] += 1
        if txn is None and kind in _COHERENCE:
            txn = self.current_txn
        # Positional arguments: keyword binding is a measurable share
        # of constructing the message.
        self.machine.fabric.send(
            Message(self.id, dst, kind, size, block, txn),
            extra_delay,
        )

    def receive(self, message: Message) -> None:
        """Fabric delivery callback: route to the right component."""
        kind = message.kind
        if kind in _CACHE_SIDE:
            self.current_txn = message.txn
            self.cache_ctrl.handle(message)
            self.current_txn = None
        elif kind in _HOME_SIDE:
            self.current_txn = message.txn
            self.home.handle(message)
            self.current_txn = None
        elif kind in _BARRIER:
            self.machine.barrier.handle(message)
        elif kind in LOCK_KINDS:
            self.machine.locks.handle(message)
        elif kind in REDUCE_KINDS:
            self.machine.reductions.handle(message)
        else:
            raise ProtocolStateError(f"node {self.id} received {kind}")
