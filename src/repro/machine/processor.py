"""Processor model.

Each node's processor executes a *workload thread* — a Python generator
yielding architectural operations:

- ``("compute", cycles)`` or ``("compute", cycles, code_ref)`` — spin the
  ALU; with a code reference, first fetch that code's instruction lines
  through the cache (unless the *perfect ifetch* simulator option is on);
- ``("read", addr)`` / ``("write", addr)`` — a data access;
- ``("barrier",)`` — wait at the machine-wide barrier;
- ``("lock", id)`` / ``("unlock", id)`` — the FIFO lock (Section 7);
- ``("reduce", id, value)`` — a combining-tree global reduction;
- ``("checkin", addr)`` — a CICO check-in annotation (Sections 2.5/7).

A malformed op (unknown kind, wrong operand count, or a compute count
that is not a non-negative ``int``) raises :class:`WorkloadError`.

The processor is a blocking (Sparcle-style) core: one outstanding memory
transaction, and protocol software pre-empts user code.  Handlers queue
FIFO on the node's single software context; user compute resumes when the
context drains.  Short operations (cache hits, small computes) are batched
into one event to keep the simulation fast; the batch window is small
enough (tens of cycles) that the timing error is negligible relative to
handler and network latencies.

The livelock watchdog of Section 4.1 is implemented here: for protocols
that trap on every acknowledgement, a node whose user code has made no
progress for a threshold period defers further asynchronous traps for a
grace window so user code can run "unmolested".
"""

from __future__ import annotations

import enum
from functools import partial
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List, Optional,
                    Tuple)

from repro.common.errors import WorkloadError
from repro.common.types import AccessType, TrapKind
from repro.core.software.costmodel import HandlerCost
from repro.obs.events import HandlerSpan, StallSpan, UserSpan
from repro.sim.stats import HandlerSample

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.node import Node

#: Cycles of cheap work folded into a single simulation event.
BATCH_LIMIT = 48

READ = AccessType.READ
WRITE = AccessType.WRITE
IFETCH = AccessType.IFETCH


class ProcState(enum.Enum):
    """What a processor is doing at this instant."""

    IDLE = "idle"
    RUNNING = "running"
    COMPUTING = "computing"  # long preemptible compute in progress
    PREEMPTED = "preempted"  # compute interrupted by a handler
    STALLED = "stalled"  # blocked on a memory transaction
    WAIT_SW = "wait_sw"  # ready to run, software context busy
    BARRIER = "barrier"
    DONE = "done"


class Processor:
    """One node's processor: user thread + protocol software context."""

    def __init__(self, node: "Node") -> None:
        self.node = node
        self.machine = node.machine
        self.sim = node.machine.sim
        self.params = node.machine.params
        self.state = ProcState.IDLE
        self._thread: Optional[Iterator[tuple]] = None
        #: the fetches and compute of the code-carrying compute op in
        #: progress, last first (see :meth:`_step`)
        self._pending: List[Tuple[str, int]] = []
        #: this node's fetch entries per code region, built on first use
        #: and keyed by name (``Machine.register_code`` hands out one
        #: region per name; a frozen CodeRef hashes all its fields)
        self._fetches: Dict[str, Tuple[Tuple[str, int], ...]] = {}
        self._block_shift = self.params.block_shift
        self._perfect_ifetch = self.params.perfect_ifetch
        #: bumped to invalidate every user event already scheduled
        self._gen = 0
        self._compute_started = 0
        self._compute_remaining = 0
        self._stall_started = 0
        self._stall_kind = ""
        self._stall_block: Optional[int] = None
        self._stall_txn: Optional[int] = None
        # Software context (protocol handlers serialise here).
        self.sw_busy_until = 0
        self._traps_deferred_until = 0
        self._last_progress = 0
        self.watchdog_enabled = False
        self.done_at: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, thread: Iterator[tuple]) -> None:
        self._thread = thread
        self.state = ProcState.RUNNING
        self._last_progress = self.sim.now
        # The start event is owned by this node, not by whatever context
        # called start() (workload setup runs as node 0).  The owner
        # sets the same-cycle firing order, which the equivalence and
        # op-coverage fixtures pin.
        self.sim.after(0, self._guarded(self._step), owner=self.node.id)

    def close(self) -> None:
        """Drop the node, the machine and the workload thread, whose
        frames hold the machine (see ``Machine.close``)."""
        self.node = self.machine = self._thread = None

    @property
    def done(self) -> bool:
        return self.state is ProcState.DONE

    def _guarded(self, fn: Callable[[], None]) -> Callable[[], None]:
        """Wrap a user-side event so stale schedules are ignored."""
        gen = self._gen

        def run() -> None:
            if gen == self._gen:
                fn()

        return run

    # ------------------------------------------------------------------
    # User execution
    # ------------------------------------------------------------------

    def _malformed(self, op: object,
                   why: str = "wrong operand count") -> WorkloadError:
        return WorkloadError(
            f"node {self.node.id}: malformed workload op {op!r} ({why})")

    def _step(self) -> None:
        """Run user ops from ``sim.now``, batching cheap work.

        Each op pulled from the workload thread is dispatched where it
        is read.  The one expansion is a code-carrying compute (with
        ``perfect_ifetch`` off): its instruction-line fetches, then its
        compute, wait in ``_pending`` in reverse order, so they pop
        from the end and survive a batch boundary or a fetch miss.
        """
        now = self.sim.now
        if self.sw_busy_until > now:
            # The software context owns the core; try again when it frees.
            self.state = ProcState.WAIT_SW
            self.node.stats.stall_cycles += self.sw_busy_until - now
            obs = self.machine.obs
            if obs is not None and obs.on_stall:
                obs.stall(StallSpan(self.node.id, now, self.sw_busy_until,
                                    "sw_wait"))
            self.sim.at(self.sw_busy_until, self._guarded(self._step))
            return
        self.state = ProcState.RUNNING
        acc = 0
        node = self.node
        stats = node.stats
        machine = self.machine
        try_hit = node.cache_ctrl.try_hit
        shift = self._block_shift
        pending = self._pending
        while True:
            if pending:
                kind, arg = pending.pop()
                if kind == "ifetch":
                    stats.ifetches += 1
                    latency = try_hit(IFETCH, arg)
                    if latency is None:
                        self._consume(acc)
                        self._begin_stall(
                            now + acc, "ifetch",
                            partial(node.cache_ctrl.start_ifetch_miss, arg,
                                    self._memory_done), arg)
                        return
                    acc += latency
                elif arg <= BATCH_LIMIT - acc:  # the fetched code's compute
                    acc += arg
                else:
                    self._consume(acc)
                    self._begin_compute(now + acc, arg)
                    return
            else:
                try:
                    op = next(self._thread)
                except StopIteration:
                    self._finish(now + acc, acc)
                    return
                try:
                    kind = op[0]
                except (IndexError, TypeError):
                    raise self._malformed(op) from None
                if kind == "read" or kind == "write":
                    try:
                        _kind, addr = op
                    except ValueError:
                        raise self._malformed(op) from None
                    machine.seq_mem_ops += 1
                    if kind == "write":
                        access = WRITE
                        stats.stores += 1
                    else:
                        access = READ
                        stats.loads += 1
                    block = addr >> shift
                    latency = try_hit(access, block)
                    if latency is None:
                        self._consume(acc)
                        self._begin_miss(now + acc, access, block)
                        return
                    acc += latency
                elif kind == "compute":
                    if len(op) == 2:
                        cycles = op[1]
                        code_ref = None
                    else:
                        try:
                            _kind, cycles, code_ref = op
                        except ValueError:
                            raise self._malformed(op) from None
                    if type(cycles) is not int or cycles < 0:
                        raise self._malformed(
                            op, "cycles must be a non-negative int")
                    if code_ref is not None:
                        machine.seq_ifetches += len(code_ref.offsets)
                    machine.seq_compute += cycles
                    if code_ref is not None and not self._perfect_ifetch:
                        if cycles:
                            pending.append(("compute", cycles))
                        fetches = self._fetches.get(code_ref.name)
                        if fetches is None:
                            fetches = self._fetches[code_ref.name] = tuple(
                                ("ifetch", block) for block in
                                reversed(code_ref.blocks(node.id)))
                        pending.extend(fetches)
                        continue
                    if cycles <= BATCH_LIMIT - acc:
                        acc += cycles
                    else:
                        self._consume(acc)
                        self._begin_compute(now + acc, cycles)
                        return
                elif kind == "barrier":
                    if len(op) != 1:
                        raise self._malformed(op)
                    self._consume(acc)
                    self.state = ProcState.BARRIER
                    self._at_or_now(now + acc, partial(
                        machine.barrier.arrive, node.id))
                    return
                elif kind == "lock":
                    if len(op) != 2:
                        raise self._malformed(op)
                    self._consume(acc)
                    self._begin_stall(now + acc, "lock", partial(
                        machine.locks.acquire, node.id, op[1],
                        self._memory_done))
                    return
                elif kind == "reduce":
                    if len(op) != 3:
                        raise self._malformed(op)
                    self._consume(acc)
                    self._begin_stall(now + acc, "reduce", partial(
                        machine.reductions.contribute, node.id, op[1],
                        op[2], self._memory_done))
                    return
                # unlock and checkin do not block: unguarded, they fire
                # even if later user work invalidates the step's events.
                elif kind == "unlock":
                    if len(op) != 2:
                        raise self._malformed(op)
                    self._at_or_now(now + acc, partial(
                        machine.locks.release, node.id, op[1]), False)
                    acc += 2  # compose-and-launch cost
                elif kind == "checkin":
                    if len(op) != 2:
                        raise self._malformed(op)
                    self._at_or_now(now + acc, partial(
                        node.cache_ctrl.check_in, op[1] >> shift), False)
                    acc += 2  # the CICO instruction itself
                else:
                    raise WorkloadError(
                        f"node {node.id}: unknown workload op {op!r}")
            if acc >= BATCH_LIMIT:
                self._consume(acc)
                self.sim.at(now + acc, self._guarded(self._step))
                return

    def _at_or_now(self, at: int, fn: Callable[[], None],
                   guard: bool = True) -> None:
        """Run ``fn`` at cycle ``at``, or now if ``at`` is the current
        cycle.  Scheduled, it is skipped if user events are invalidated
        first, unless ``guard`` is False."""
        if at > self.sim.now:
            self.sim.at(at, self._guarded(fn) if guard else fn)
        else:
            fn()

    def _consume(self, cycles: int,
                 span_start: Optional[int] = None) -> None:
        if cycles:
            self.node.stats.user_cycles += cycles
            self._last_progress = self.sim.now + cycles
            obs = self.machine.obs
            if obs is not None and obs.on_user:
                start = self.sim.now if span_start is None else span_start
                obs.user(UserSpan(self.node.id, start, start + cycles))

    def _finish(self, at: int, acc: int) -> None:
        self._consume(acc)
        self.state = ProcState.DONE
        self.done_at = at
        self.machine.note_processor_done(self.node.id, at)

    # ------------------------------------------------------------------
    # Long (preemptible) compute
    # ------------------------------------------------------------------

    def _begin_compute(self, at: int, cycles: int) -> None:
        """Schedule a preemptible compute burst starting at ``at``."""
        self.state = ProcState.COMPUTING
        self._compute_remaining = cycles
        if at > self.sim.now:
            self.sim.at(at, self._guarded(self._resume_compute))
        else:
            self._resume_compute()

    def _resume_compute(self) -> None:
        now = self.sim.now
        if self.sw_busy_until > now:
            self.state = ProcState.PREEMPTED
            return  # _on_sw_idle will resume us
        self.state = ProcState.COMPUTING
        self._compute_started = now
        remaining = self._compute_remaining
        self._gen += 1
        self.sim.at(now + remaining, self._guarded(self._finish_compute))

    def _finish_compute(self) -> None:
        self._consume(self._compute_remaining,
                      span_start=self._compute_started)
        self._compute_remaining = 0
        self.state = ProcState.RUNNING
        self._step()

    def _preempt_compute(self) -> None:
        """A handler arrived while computing: split the burst."""
        now = self.sim.now
        consumed = now - self._compute_started
        self._consume(consumed if consumed > 0 else 0,
                      span_start=self._compute_started)
        self._compute_remaining -= consumed
        self._gen += 1
        self.state = ProcState.PREEMPTED

    # ------------------------------------------------------------------
    # Stalls: memory, lock, reduction; barrier
    # ------------------------------------------------------------------

    def _begin_stall(self, at: int, kind: str, request: Callable[[], None],
                     block: Optional[int] = None,
                     txn: Optional[int] = None) -> None:
        """Block user code from ``at`` until ``request`` (issued then)
        completes through :meth:`_memory_done`."""
        self.state = ProcState.STALLED
        self._stall_started = at
        self._stall_kind = kind
        self._stall_block = block
        self._stall_txn = txn
        self._at_or_now(at, request)

    def _begin_miss(self, at: int, access: AccessType, block: int) -> None:
        # Every data miss opens a coherence transaction; the id follows
        # the miss through every message/trap/handler it causes.  Ids
        # are allocated from a per-node counter (interleaved modulo
        # n_nodes), so a node's ids depend only on its own deterministic
        # history — identical across runs, as the attribution baseline
        # and the span tests pin them.
        txn = self.machine.next_txn(self.node.id)
        self._begin_stall(
            at, "write" if access is WRITE else "read",
            partial(self.node.cache_ctrl.start_miss, access, block,
                    self._memory_done, txn),
            block, txn)

    def _memory_done(self) -> None:
        now = self.sim.now
        self.node.stats.stall_cycles += now - self._stall_started
        obs = self.machine.obs
        if obs is not None and obs.on_stall:
            obs.stall(StallSpan(self.node.id, self._stall_started, now,
                                self._stall_kind, self._stall_block,
                                self._stall_txn))
        self.state = ProcState.RUNNING
        self._gen += 1
        self._step()

    def barrier_release(self) -> None:
        if self.state is not ProcState.BARRIER:
            return
        self.state = ProcState.RUNNING
        self._gen += 1
        self._step()

    # ------------------------------------------------------------------
    # Protocol software context
    # ------------------------------------------------------------------

    def post_trap(self, kind: TrapKind, cost: HandlerCost,
                  completion: Callable[[], None], pointers: int = 0,
                  implementation: str = "flexible",
                  txn: Optional[int] = None) -> None:
        """Queue a protocol handler on this node's processor."""
        now = self.sim.now
        if self.state is ProcState.COMPUTING:
            self._preempt_compute()
        start = max(now, self.sw_busy_until, self._traps_deferred_until)

        if (self.watchdog_enabled
                and self.state in (ProcState.PREEMPTED, ProcState.WAIT_SW,
                                   ProcState.RUNNING)
                and start - self._last_progress
                > self.params.watchdog_threshold):
            # Livelock watchdog: shut off asynchronous events for a
            # window so user code can make progress (Section 4.1).
            self._traps_deferred_until = max(
                self._traps_deferred_until,
                now + self.params.watchdog_window,
            )
            start = max(start, self._traps_deferred_until)
            self.node.stats.watchdog_activations += 1
            if self.sw_busy_until <= now:
                self._on_sw_idle()

        latency = cost.latency + self.params.trap_dispatch_overhead
        self.sw_busy_until = start + latency
        stats = self.node.stats
        stats.traps[kind.value] += 1
        stats.handler_cycles += latency
        self.machine.record_handler_sample(HandlerSample(
            kind=_sample_kind(kind),
            implementation=implementation,
            node=self.node.id,
            pointers=pointers,
            latency=cost.latency,
            breakdown=cost.breakdown,
        ))
        obs = self.machine.obs
        if obs is not None and obs.on_handler:
            obs.handler(HandlerSpan(
                self.node.id, start, self.sw_busy_until, _sample_kind(kind),
                implementation, pointers, cost.latency, txn))

        def complete() -> None:
            completion()
            if self.sw_busy_until <= self.sim.now:
                self._on_sw_idle()

        self.sim.at(self.sw_busy_until, complete)

    def _on_sw_idle(self) -> None:
        """The software context drained; resume pre-empted user work."""
        if self.state is ProcState.PREEMPTED:
            if self._compute_remaining > 0:
                self._resume_compute()
            else:
                self.state = ProcState.RUNNING
                self._gen += 1
                self._step()
        elif self.state is ProcState.WAIT_SW:
            self._gen += 1
            self._step()


_SAMPLE_KINDS = {
    TrapKind.READ_OVERFLOW: "read",
    TrapKind.WRITE_EXTENDED: "write",
    TrapKind.ACK_SOFTWARE: "ack",
    TrapKind.ACK_LAST: "last_ack",
    TrapKind.LOCAL_FAULT: "local",
    TrapKind.REMOTE_REQUEST: "remote",
}


def _sample_kind(kind: TrapKind) -> str:
    return _SAMPLE_KINDS[kind]
