"""Synchronisation objects built on the protocol extension software.

The paper lists a FIFO lock data type and a fast barrier among the
enhancements implemented with Alewife's protocol extension interface
(Section 7), and its applications use "Alewife's parallel C library for
barriers and reductions".  The barrier lives in
:mod:`repro.machine.barrier`; this module provides the FIFO lock and
the combining-tree global reduction.

A lock is a shared-memory object with a home node.  Acquire/release are
protocol messages handled by the home's extension software: the home
keeps a FIFO queue of waiters and grants the lock in arrival order, so
the lock is fair by construction (unlike test-and-set spin locks, whose
retry traffic the protocol would otherwise have to absorb).  Handling a
lock message occupies the home's processor like any other protocol
handler.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError, ProtocolStateError
from repro.common.types import TrapKind

from repro.core.software.costmodel import CostModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.machine import Machine
    from repro.network.fabric import Message

#: Lock protocol messages (routed to the LockManager).
LOCK_REQ = "lock_req"
LOCK_GRANT = "lock_grant"
LOCK_REL = "lock_rel"

LOCK_KINDS = frozenset({LOCK_REQ, LOCK_GRANT, LOCK_REL})

#: Reduction protocol messages (combining tree, like the barrier).
REDUCE_UP = "reduce_up"
REDUCE_DOWN = "reduce_down"

REDUCE_KINDS = frozenset({REDUCE_UP, REDUCE_DOWN})


@dataclasses.dataclass
class LockState:
    """Home-side state of one FIFO lock."""

    lock_id: int
    home: int
    holder: Optional[int] = None
    waiters: Deque[int] = dataclasses.field(default_factory=deque)
    acquisitions: int = 0
    max_queue: int = 0
    #: grant history [(node, grant_time)] for fairness checking
    history: List[Tuple[int, int]] = dataclasses.field(default_factory=list)


class LockManager:
    """Machine-wide registry and home-side handling of FIFO locks."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.locks: Dict[int, LockState] = {}
        self._waiting: Dict[Tuple[int, int], Callable[[], None]] = {}

    # ------------------------------------------------------------------
    # Creation (before the run starts)
    # ------------------------------------------------------------------

    def create_lock(self, home: int) -> int:
        """Allocate a lock homed on ``home``; returns its id (a shared
        address, so locks live in the machine's address space)."""
        addr = self.machine.heap.alloc_block(home)
        self.locks[addr] = LockState(lock_id=addr, home=home)
        return addr

    def _state(self, lock_id: int) -> LockState:
        state = self.locks.get(lock_id)
        if state is None:
            raise ConfigurationError(f"unknown lock {lock_id}")
        return state

    # ------------------------------------------------------------------
    # Processor-side operations
    # ------------------------------------------------------------------

    def acquire(self, node_id: int, lock_id: int,
                granted: Callable[[], None]) -> None:
        """Request the lock; ``granted`` fires when this node holds it."""
        state = self._state(lock_id)
        key = (lock_id, node_id)
        if key in self._waiting:
            raise ProtocolStateError(
                f"node {node_id} already waiting on lock {lock_id}")
        self._waiting[key] = granted
        self.machine.nodes[node_id].send_protocol(
            LOCK_REQ, state.home, lock_id)

    def release(self, node_id: int, lock_id: int) -> None:
        """Release the lock (fire-and-forget message to the home)."""
        state = self._state(lock_id)
        self.machine.nodes[node_id].send_protocol(
            LOCK_REL, state.home, lock_id)

    # ------------------------------------------------------------------
    # Message handling (home side runs in extension software)
    # ------------------------------------------------------------------

    def handle(self, message: "Message") -> None:
        lock_id = message.block
        if message.kind == LOCK_REQ:
            self._on_request(lock_id, message.src)
        elif message.kind == LOCK_REL:
            self._on_release(lock_id, message.src)
        elif message.kind == LOCK_GRANT:
            self._on_grant(lock_id, message.dst)
        else:  # pragma: no cover
            raise ProtocolStateError(f"lock manager got {message.kind}")

    def _handler_cost(self, home: int) -> "CostModel":
        node = self.machine.nodes[home]
        if node.interface is not None:
            return node.interface.cost_model
        # Full-map machines have no extension software; model a fixed
        # lightweight system-level handler instead.
        return CostModel("optimized")

    def _run_home_handler(self, home: int, completion: Callable[[], None],
                          forward: bool = False) -> None:
        cost_model = self._handler_cost(home)
        cost = cost_model.ack_forward() if forward else cost_model.ack()
        self.machine.nodes[home].processor.post_trap(
            TrapKind.REMOTE_REQUEST, cost, completion,
            implementation=cost_model.implementation)

    def _on_request(self, lock_id: int, requester: int) -> None:
        state = self._state(lock_id)

        def complete() -> None:
            if state.holder is None:
                state.holder = requester
                self._send_grant(state, requester)
            else:
                state.waiters.append(requester)
                state.max_queue = max(state.max_queue, len(state.waiters))

        self._run_home_handler(state.home, complete, forward=True)

    def _on_release(self, lock_id: int, releaser: int) -> None:
        state = self._state(lock_id)

        def complete() -> None:
            if state.holder != releaser:
                raise ProtocolStateError(
                    f"node {releaser} released lock {lock_id} held by "
                    f"{state.holder}"
                )
            if state.waiters:
                nxt = state.waiters.popleft()
                state.holder = nxt
                self._send_grant(state, nxt)
            else:
                state.holder = None

        self._run_home_handler(state.home, complete, forward=True)

    def _send_grant(self, state: LockState, node: int) -> None:
        state.acquisitions += 1
        state.history.append((node, self.machine.sim.now))
        self.machine.nodes[state.home].send_protocol(
            LOCK_GRANT, node, state.lock_id)

    def _on_grant(self, lock_id: int, node: int) -> None:
        key = (lock_id, node)
        granted = self._waiting.pop(key, None)
        if granted is None:
            raise ProtocolStateError(
                f"grant for lock {lock_id} to node {node} with no waiter")
        granted()


# ----------------------------------------------------------------------
# Global reductions (Alewife's parallel C library provides barriers and
# reductions; the applications of Section 6 use both)
# ----------------------------------------------------------------------

#: children per reduction-tree node (same shape as the barrier tree)
REDUCE_ARITY = 4

#: cycles of local combining per reduction message
REDUCE_NODE_DELAY = 3


@dataclasses.dataclass
class _ReduceEpoch:
    """In-flight state of one reduction epoch at one tree node."""

    arrived: int = 0
    value: object = None


@dataclasses.dataclass
class ReductionState:
    """One named global reduction."""

    reduce_id: int
    combine: Callable[[object, object], object]
    #: per-node, per-epoch partial aggregation state
    pending: Dict[Tuple[int, int], _ReduceEpoch] = dataclasses.field(
        default_factory=dict)
    #: per-node local epoch counters
    epoch: Dict[int, int] = dataclasses.field(default_factory=dict)
    #: most recently completed global result
    result: object = None
    completed_epochs: int = 0


@dataclasses.dataclass
class _ReducePayload:
    """Payload of a reduction message (epoch + partial value); the
    reduction id rides in the message's ``block`` field."""

    epoch: int = 0
    value: object = None


class ReductionManager:
    """Combining-tree global reductions over all nodes."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.n_nodes = machine.params.n_nodes
        self.reductions: Dict[int, ReductionState] = {}
        self._waiting: Dict[Tuple[int, int], Callable[[], None]] = {}
        self._next_id = 1

    def create_reduction(
        self, combine: Callable[[object, object], object]
    ) -> int:
        """Register a reduction with the given combining function."""
        reduce_id = self._next_id
        self._next_id += 1
        self.reductions[reduce_id] = ReductionState(reduce_id, combine)
        return reduce_id

    def _state(self, reduce_id: int) -> ReductionState:
        state = self.reductions.get(reduce_id)
        if state is None:
            raise ConfigurationError(f"unknown reduction {reduce_id}")
        return state

    @staticmethod
    def _parent(node: int) -> int:
        return (node - 1) // REDUCE_ARITY

    def _children(self, node: int) -> List[int]:
        first = node * REDUCE_ARITY + 1
        return [c for c in range(first, first + REDUCE_ARITY)
                if c < self.n_nodes]

    def _expected(self, node: int) -> int:
        return 1 + len(self._children(node))

    # ------------------------------------------------------------------
    # Processor interface
    # ------------------------------------------------------------------

    def contribute(self, node_id: int, reduce_id: int, value: object,
                   done: Callable[[], None]) -> None:
        """Contribute ``value`` and block until the global result is in
        ``ReductionState.result``."""
        state = self._state(reduce_id)
        epoch = state.epoch.get(node_id, 0)
        state.epoch[node_id] = epoch + 1
        self._waiting[(reduce_id, node_id)] = done
        self._up(state, node_id, epoch, value)

    # ------------------------------------------------------------------
    # Tree plumbing
    # ------------------------------------------------------------------

    def _up(self, state: ReductionState, node: int, epoch: int,
            value: object) -> None:
        key = (node, epoch)
        pending = state.pending.get(key)
        if pending is None:
            pending = _ReduceEpoch()
            state.pending[key] = pending
        pending.arrived += 1
        pending.value = (value if pending.value is None
                         else state.combine(pending.value, value))
        if pending.arrived < self._expected(node):
            return
        del state.pending[key]
        if node == 0:
            state.result = pending.value
            state.completed_epochs += 1
            self._down(state, node, epoch)
        else:
            self._send(node, self._parent(node), REDUCE_UP, state,
                       epoch, pending.value)

    def _down(self, state: ReductionState, node: int, epoch: int) -> None:
        for child in self._children(node):
            self._send(node, child, REDUCE_DOWN, state, epoch,
                       state.result)
        done = self._waiting.pop((state.reduce_id, node), None)
        if done is not None:
            done()

    def _send(self, src: int, dst: int, kind: str, state: ReductionState,
              epoch: int, value: object) -> None:
        from repro.network.fabric import Message

        node = self.machine.nodes[src]
        node.stats.messages_sent[kind] += 1
        self.machine.fabric.send(
            Message(src=src, dst=dst, kind=kind,
                    size_flits=self.machine.params.header_flits + 2,
                    block=state.reduce_id,
                    payload=_ReducePayload(epoch=epoch, value=value)),
            extra_delay=REDUCE_NODE_DELAY,
        )

    def handle(self, message) -> None:
        payload = message.payload
        state = self._state(message.block)
        if message.kind == REDUCE_UP:
            self._up(state, message.dst, payload.epoch, payload.value)
        elif message.kind == REDUCE_DOWN:
            state.result = payload.value
            self._down(state, message.dst, payload.epoch)
        else:  # pragma: no cover
            raise ProtocolStateError(f"reduction got {message.kind}")
