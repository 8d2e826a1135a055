"""Typed probe events and the low-overhead event bus.

Design constraints, in order:

1. **Zero perturbation.**  Probes only *read* simulation state; no
   subscriber may schedule events or mutate counters.  Cycle counts are
   identical with and without observers attached (a regression test
   enforces this).
2. **Zero cost when idle.**  A machine starts with ``machine.obs is
   None`` and every probe site is a single attribute load plus a
   ``None`` check.  Even with a bus attached, a site first checks its
   channel's subscriber list and only *then* constructs the event
   object, so unobserved channels stay allocation-free.  The engine
   loop follows the same rule: ``Machine.run`` installs the
   ``advance`` probe only when that channel has a subscriber, so an
   idle bus leaves ``Simulator.run`` on its tight loop.
3. **Cheap events.**  Each event type is a :class:`typing.NamedTuple`:
   immutable, compared by value, and built by the probe sites with
   positional arguments (a frozen dataclass routes every field through
   ``object.__setattr__`` and costs several times as much to build).

Probe points
------------

========== ===================================== ==========================
channel    fired from                            event type
========== ===================================== ==========================
advance    ``sim/engine.py`` run loop            ``int`` (new cycle time)
user       ``machine/processor.py`` `_consume`   :class:`UserSpan`
stall      processor stall completion            :class:`StallSpan`
handler    ``Processor.post_trap``               :class:`HandlerSpan`
trap       ``core/software/interface.py``        :class:`TrapPosted`
message    ``network/fabric.py`` ``_receive``    :class:`MessageSent`
transition ``core/protocol/engine.py`` dispatch  :class:`TransitionApplied`
========== ===================================== ==========================

``message`` fires when a message reaches its destination's receive
queue (``Fabric._receive``), once its delivery time is known; a
loopback message, whose delivery time is fixed at once, fires in
``send``, and so does every message of the detailed network.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional


class UserSpan(NamedTuple):
    """A contiguous interval of user-code execution on one node."""

    node: int
    start: int
    end: int


class StallSpan(NamedTuple):
    """One processor stall, from issue to completion.

    ``kind`` is ``"read"``/``"write"`` for data misses (end-to-end
    remote-access latency, retries included), ``"ifetch"`` for local
    instruction fills, ``"lock"``/``"reduce"`` for synchronisation, and
    ``"sw_wait"`` for user code waiting on the busy software context.

    ``txn`` is the machine-wide transaction id assigned when a data
    miss is issued; every message, trap, handler span, and directory
    transition caused by that miss carries the same id, so the full
    causal chain can be stitched back together (`repro.obs.spans`).
    Non-miss stalls (``ifetch``/``lock``/``reduce``/``sw_wait``) have
    ``txn is None``.
    """

    node: int
    start: int
    end: int
    kind: str
    block: Optional[int] = None
    txn: Optional[int] = None

    @property
    def latency(self) -> int:
        return self.end - self.start


class HandlerSpan(NamedTuple):
    """One software-context handler occupancy interval."""

    node: int
    start: int
    end: int
    kind: str  # "read" | "write" | "ack" | "last_ack" | "local" | "remote"
    implementation: str
    pointers: int
    latency: int  # handler cost excluding trap-dispatch overhead
    txn: Optional[int] = None


class TrapPosted(NamedTuple):
    """A protocol trap requested through the flexible interface."""

    node: int
    kind: str  # TrapKind value
    at: int
    cost: int
    pointers: int
    txn: Optional[int] = None


class MessageSent(NamedTuple):
    """One fabric message with its computed delivery time."""

    src: int
    dst: int
    kind: str
    size_flits: int
    sent_at: int
    delivered_at: int
    block: Optional[int] = None
    txn: Optional[int] = None


class TransitionApplied(NamedTuple):
    """One fired rule of the table-driven home protocol engine.

    Directory states are carried as their string values (e.g.
    ``"read_only"``) so observers stay decoupled from the core's enum;
    ``before``/``after`` are ``None`` when the event matched with no
    directory entry (e.g. an acknowledgement for a pure home-copy
    flush).  ``rule`` is the fired action's name, ``next_label`` the
    table row's declared post-state claim, and ``busy`` whether the
    entry was mid-transaction (transient state or queued software
    handler) when the event arrived.
    """

    node: int
    at: int
    event: str
    src: int
    block: int
    before: Optional[str]
    after: Optional[str]
    rule: str
    next_label: Optional[str]
    busy: bool
    txn: Optional[int] = None


class EventBus:
    """Fan-out of probe events to subscribers, one list per channel.

    Usage::

        bus = machine.observe()
        bus.on_handler.append(lambda ev: ...)

    Subscriber callbacks run synchronously inside the probe site; they
    must not schedule simulation events or mutate machine state.
    """

    __slots__ = ("on_advance", "on_user", "on_stall", "on_handler",
                 "on_trap", "on_message", "on_transition")

    CHANNELS = ("advance", "user", "stall", "handler", "trap", "message",
                "transition")

    def __init__(self) -> None:
        self.on_advance: List[Callable[[int], None]] = []
        self.on_user: List[Callable[[UserSpan], None]] = []
        self.on_stall: List[Callable[[StallSpan], None]] = []
        self.on_handler: List[Callable[[HandlerSpan], None]] = []
        self.on_trap: List[Callable[[TrapPosted], None]] = []
        self.on_message: List[Callable[[MessageSent], None]] = []
        self.on_transition: List[Callable[[TransitionApplied], None]] = []

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------

    def subscribe(self, channel: str, fn: Callable) -> Callable:
        """Add ``fn`` to ``channel``; returns ``fn`` for chaining."""
        self._channel(channel).append(fn)
        return fn

    def unsubscribe(self, channel: str, fn: Callable) -> None:
        """Remove ``fn`` from ``channel`` (no-op if absent)."""
        subs = self._channel(channel)
        if fn in subs:
            subs.remove(fn)

    def _channel(self, channel: str) -> List[Callable]:
        if channel not in self.CHANNELS:
            raise ValueError(
                f"unknown channel {channel!r}; one of {self.CHANNELS}"
            )
        return getattr(self, "on_" + channel)

    @property
    def idle(self) -> bool:
        """True when no channel has a subscriber."""
        return not any(getattr(self, "on_" + c) for c in self.CHANNELS)

    # ------------------------------------------------------------------
    # Emission (called from probe sites; sites pre-check the lists)
    # ------------------------------------------------------------------

    def advance(self, time: int) -> None:
        for fn in self.on_advance:
            fn(time)

    def user(self, ev: UserSpan) -> None:
        for fn in self.on_user:
            fn(ev)

    def stall(self, ev: StallSpan) -> None:
        for fn in self.on_stall:
            fn(ev)

    def handler(self, ev: HandlerSpan) -> None:
        for fn in self.on_handler:
            fn(ev)

    def trap(self, ev: TrapPosted) -> None:
        for fn in self.on_trap:
            fn(ev)

    def message(self, ev: MessageSent) -> None:
        for fn in self.on_message:
            fn(ev)

    def transition(self, ev: TransitionApplied) -> None:
        for fn in self.on_transition:
            fn(ev)
