"""Per-transaction span trees reconstructed from the event bus.

Flat probe events (:mod:`repro.obs.events`) answer *what happened*;
this module answers *why a particular access was slow*.  Every data
miss opens a coherence transaction (``Machine.next_txn``, assigned in
``Processor._begin_miss``), and the id rides every message the miss
causes (via ``ProtoPayload.txn``), every directory transition it fires,
every trap it posts, and every handler occupancy it schedules.  A
:class:`SpanCollector` groups those events back into one
:class:`TransactionTrace` per miss — the causal chain

    miss -> request message -> home transition [-> trap -> handler]
         [-> invalidation fan-out -> ack gather] -> data grant -> fill

— and hands each trace on when its miss completes, which is when
:mod:`repro.obs.attribution` decomposes it cycle-by-cycle.

Determinism: transaction ids are allocated in simulation event order,
which is itself deterministic, so the same configuration produces the
same ids, the same traces, and byte-identical rendered output on every
run (and across ``--jobs`` settings of the experiment runner: ids are
per-:class:`~repro.machine.machine.Machine`, never shared between
processes).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.obs.events import (
    HandlerSpan,
    MessageSent,
    StallSpan,
    TransitionApplied,
    TrapPosted,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.machine import Machine

__all__ = ["TransactionTrace", "SpanCollector", "format_trace"]


class TransactionTrace:
    """Everything one coherence transaction did, in emission order.

    ``stall`` is filled in when the requesting processor unblocks,
    which is when :class:`SpanCollector` hands the trace to its
    completion subscribers; a trace whose stall is still ``None``
    belongs to a transaction that had not completed when the run ended
    (possible only for aborted runs — a finished workload has no
    outstanding misses).
    """

    __slots__ = ("txn", "stall", "messages", "handlers", "traps",
                 "transitions")

    def __init__(self, txn: int) -> None:
        self.txn = txn
        self.stall: Optional[StallSpan] = None
        self.messages: List[MessageSent] = []
        self.handlers: List[HandlerSpan] = []
        self.traps: List[TrapPosted] = []
        self.transitions: List[TransitionApplied] = []

    # Convenience accessors -------------------------------------------

    @property
    def node(self) -> Optional[int]:
        return self.stall.node if self.stall is not None else None

    @property
    def kind(self) -> Optional[str]:
        return self.stall.kind if self.stall is not None else None

    @property
    def latency(self) -> int:
        return self.stall.latency if self.stall is not None else 0

    @property
    def retries(self) -> int:
        """BUSY replies received (each one forced a retry)."""
        return sum(1 for m in self.messages if m.kind == "busy")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TransactionTrace(txn={self.txn}, kind={self.kind!r}, "
                f"latency={self.latency}, msgs={len(self.messages)}, "
                f"handlers={len(self.handlers)})")


class SpanCollector:
    """Subscribes to the bus and groups events by transaction id.

    The collector holds only *open* transactions.  When a stall
    completes it calls every :attr:`on_complete` subscriber with
    ``(stall, trace)`` in emission order — ``trace`` is ``None`` for
    the ifetch fills, lock/reduction waits and software-context waits
    that carry no transaction id — and then forgets the trace, so a
    run's memory stays flat however many transactions it completes.

    An event can still arrive for a transaction whose stall has ended:
    barrier messages sent after a miss carry its id, and the fabric
    reports a message only when it reaches the receive queue.  Such an
    event is dropped if it starts at or after the stall's end, where
    clipping to the stall window would give it zero cycles anyway (a
    trap and its handler span are emitted together, so both are
    dropped and the trap/handler pairing is unchanged).  An event that
    starts *before* the end would have changed the attribution and
    raises :class:`ValueError`.  Ids are node-striped and each node
    has one miss outstanding, so the node's last completed stall is
    the whole record this check needs.
    """

    def __init__(self, n_nodes: int) -> None:
        self._n_nodes = n_nodes
        self._open: Dict[int, TransactionTrace] = {}
        #: per node, its most recently completed data-miss stall
        self._closed: List[Optional[StallSpan]] = [None] * n_nodes
        self._seen = 0
        #: completion subscribers, called as ``fn(stall, trace)``
        self.on_complete: List[
            Callable[[StallSpan, Optional[TransactionTrace]], None]] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    @classmethod
    def attach(cls, machine: "Machine") -> "SpanCollector":
        """Create a collector subscribed to ``machine``'s bus."""
        self = cls(machine.params.n_nodes)
        bus = machine.observe()
        bus.on_stall.append(self._on_stall)
        bus.on_handler.append(self._on_handler)
        bus.on_trap.append(self._on_trap)
        bus.on_message.append(self._on_message)
        bus.on_transition.append(self._on_transition)
        return self

    def _open_trace(self, txn: int,
                    start: int) -> Optional[TransactionTrace]:
        """Open a trace for ``txn``, whose event starts at ``start`` and
        found no open trace; ``None`` if the transaction has completed
        and the event lies past its stall.  The event handlers call it
        as ``self._open.get(txn) or self._open_trace(...)``, which
        relies on a :class:`TransactionTrace` always being truthy."""
        closed = self._closed[(txn - 1) % self._n_nodes]
        if closed is not None and txn <= closed.txn:
            # ``txn``'s stall ended at ``closed.end`` if it is the
            # node's latest, else no later than ``closed.start``.
            bound = closed.end if txn == closed.txn else closed.start
            if start >= bound:
                return None
            raise ValueError(
                f"event for completed transaction {txn} starts at cycle "
                f"{start}, before cycle {bound}, so it may overlap the "
                f"stall; streaming attribution would miss it")
        trace = self._open[txn] = TransactionTrace(txn)
        self._seen += 1
        return trace

    def _on_stall(self, ev: StallSpan) -> None:
        txn = ev.txn
        trace = None
        if txn is not None:
            trace = self._open.pop(txn, None)
            if trace is None:
                trace = TransactionTrace(txn)
                self._seen += 1
            trace.stall = ev
            self._closed[ev.node] = ev
        for fn in self.on_complete:
            fn(ev, trace)

    def _on_handler(self, ev: HandlerSpan) -> None:
        if ev.txn is not None:
            trace = (self._open.get(ev.txn)
                     or self._open_trace(ev.txn, ev.start))
            if trace is not None:
                trace.handlers.append(ev)

    def _on_trap(self, ev: TrapPosted) -> None:
        if ev.txn is not None:
            trace = (self._open.get(ev.txn)
                     or self._open_trace(ev.txn, ev.at))
            if trace is not None:
                trace.traps.append(ev)

    def _on_message(self, ev: MessageSent) -> None:
        if ev.txn is not None:
            trace = (self._open.get(ev.txn)
                     or self._open_trace(ev.txn, ev.sent_at))
            if trace is not None:
                trace.messages.append(ev)

    def _on_transition(self, ev: TransitionApplied) -> None:
        if ev.txn is not None:
            trace = (self._open.get(ev.txn)
                     or self._open_trace(ev.txn, ev.at))
            if trace is not None:
                trace.transitions.append(ev)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Distinct transaction ids seen so far."""
        return self._seen


def format_trace(trace: TransactionTrace) -> str:
    """Human-readable timeline of one transaction (debugging / docs).

    Events are listed by start time with per-line arrows; output is
    deterministic (pure function of the trace).
    """
    lines: List[str] = []
    stall = trace.stall
    if stall is not None:
        lines.append(
            f"txn {trace.txn}: node {stall.node} {stall.kind} miss "
            f"block {stall.block} [{stall.start}..{stall.end}) "
            f"= {stall.latency} cycles"
        )
    else:
        lines.append(f"txn {trace.txn}: (incomplete)")
    rows = []
    for m in trace.messages:
        rows.append((m.sent_at, 0,
                     f"  msg  {m.kind:<10} {m.src}->{m.dst} "
                     f"[{m.sent_at}..{m.delivered_at})"))
    for t in trace.transitions:
        rows.append((t.at, 1,
                     f"  dir  {t.event:<10} @home {t.node} "
                     f"{t.before}->{t.after} ({t.rule}) @{t.at}"))
    for p in trace.traps:
        rows.append((p.at, 2,
                     f"  trap {p.kind:<10} node {p.node} @{p.at} "
                     f"cost {p.cost}"))
    for h in trace.handlers:
        rows.append((h.start, 3,
                     f"  sw   {h.kind:<10} node {h.node} "
                     f"[{h.start}..{h.end}) {h.implementation}"))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    lines.extend(text for _, _, text in rows)
    return "\n".join(lines)
