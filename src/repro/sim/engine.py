"""Deterministic discrete-event simulation engine.

The engine is a classic event heap keyed on ``(time, owner, seq)``.
``owner`` is the node whose activity scheduled the event (the engine
tracks it in :attr:`Simulator.current_owner`; the fabric re-anchors it
to the destination node when a message crosses the network), and
``seq`` is drawn from one process-wide counter.  Two events scheduled
for the same cycle fire in node order, then in the order that node
scheduled them.  Determinism is a headline property of NWO (the
paper's simulator) and we preserve it — every experiment in this
repository is exactly reproducible.

``seq`` only breaks ties between events with equal ``(time, owner)``,
so only its *relative* order among one owner's events matters, never
its value.  Within one owner the global counter increases in
allocation order, exactly as a per-owner counter would: both keys
induce the same total order, and the heap pops the same sequence.
That order is not free to change: the equivalence and op-coverage
fixtures and the attribution baseline pin the event order and the
transaction ids it produces.

The key stays a tuple of three small ints.  A prototype that packed it
into one integer ran the 16-node WORKER benchmark about 10% slower: the
packed keys are multi-digit ints, and their arithmetic and comparisons
cost more than the tuple compare they save.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

from repro.common.errors import SimulationError

Event = Tuple[int, int, int, Callable[[], None]]


class Simulator:
    """Event-driven simulator with integer cycle time."""

    def __init__(self) -> None:
        #: Current simulation time in cycles.  A plain attribute, not a
        #: property: it is read on every ``at()``/``after()`` call and by
        #: every hot sender (fabric, processor), and a property getter
        #: costs a Python call per read.  Treat it as read-only outside
        #: this class.
        self.now = 0
        #: Node context of the event currently executing; events
        #: scheduled without an explicit owner inherit it.  The run
        #: loops set it from each event's key; the fabric sets it to a
        #: message's destination when delivery processing begins.
        self.current_owner = 0
        #: Last tie-break sequence number handed out (process-wide;
        #: see the module docstring for why one counter suffices).
        self._seq = 0
        self._heap: List[Event] = []
        self._running = False
        self._stopped = False
        #: observability probe, called with the new time whenever the
        #: clock advances to a later cycle (repro.obs time-series
        #: sampling).  Probes read state only — they must not schedule
        #: events — so attaching one cannot perturb the simulation.  A
        #: set probe moves :meth:`run` off its tight loop, so
        #: ``Machine.run`` sets it only when the bus's ``advance``
        #: channel has a subscriber.
        self.probe: Optional[Callable[[int], None]] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def at(self, time: int, fn: Callable[[], None],
           owner: Optional[int] = None) -> None:
        """Schedule ``fn`` to run at absolute cycle ``time``.

        ``owner`` defaults to :attr:`current_owner` — the node context
        of the event being executed.  Validation precedes the
        sequence-number allocation, so a rejected schedule leaves the
        engine exactly as it was.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past ({time} < {self.now})"
            )
        if owner is None:
            owner = self.current_owner
        self._seq = seq = self._seq + 1
        heappush(self._heap, (time, owner, seq, fn))

    def after(self, delay: int, fn: Callable[[], None],
              owner: Optional[int] = None) -> None:
        """Schedule ``fn`` to run ``delay`` cycles from now.

        Pushes directly rather than calling :meth:`at`: one Python
        frame per event is a measurable share of the hot path.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        if owner is None:
            owner = self.current_owner
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self.now + delay, owner, seq, fn))

    def post(self, time: int, owner: int, seq: int,
             fn: Callable[[], None]) -> None:
        """Insert an event under an explicit ``(time, owner, seq)`` key.

        The counter is *not* advanced.  No simulator code calls this; it
        stays only because ``bench/layers.py`` names it among the
        ``sim.events`` entry points and resolves each name with
        ``getattr``, so removing it would fail every traced benchmark
        run.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot post event in the past ({time} < {self.now})"
            )
        heappush(self._heap, (time, owner, seq, fn))

    def close(self) -> None:
        """Drop every queued event and the probe: their callbacks hold
        the objects that scheduled them (see ``Machine.close``)."""
        self._heap = []
        self.probe = None

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        idle_check: Optional[Callable[[], None]] = None,
    ) -> int:
        """Run events until the heap drains, ``until`` cycles pass, or
        :meth:`stop` is called.

        Parameters
        ----------
        until:
            Absolute cycle limit; events at later times stay queued.
            A limit before :attr:`now` raises :class:`SimulationError`:
            the clock never runs backwards.
        max_events:
            Safety valve against runaway simulations.
        idle_check:
            Called once when the event heap drains; may raise (e.g. a
            deadlock detector that knows processors are still blocked).

        Returns
        -------
        int
            The simulation time when the run loop exited.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until cycle {until}: already at {self.now}"
            )
        self._running = True
        self._stopped = False
        # Hoist the heap and heappop into locals: every simulated cycle
        # of every run funnels through this loop, and the attribute
        # loads dominate its overhead.  The heap *list* is mutated in
        # place by at()/heappush, so the local alias stays valid while
        # events schedule more events; _stopped must be re-read each
        # iteration because stop() flips it mid-loop.
        heap = self._heap
        pop = heappop
        try:
            if until is None and max_events is None and self.probe is None:
                # No cycle limit, no event budget, no observer: the
                # common case (every experiment driver run) takes the
                # tight loop with no per-event limit or probe checks.
                # Tuple unpacking beats indexing into the popped event;
                # both callables come from locals.
                while heap and not self._stopped:
                    time, owner, _, fn = pop(heap)
                    self.now = time
                    self.current_owner = owner
                    fn()
            else:
                processed = 0
                probe = self.probe
                while heap and not self._stopped:
                    time = heap[0][0]
                    if until is not None and time > until:
                        self.now = until
                        break
                    _, owner, _, fn = pop(heap)
                    if probe is not None and time > self.now:
                        self.now = time
                        probe(time)
                    else:
                        self.now = time
                    self.current_owner = owner
                    fn()
                    processed += 1
                    if max_events is not None and processed >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events} at cycle "
                            f"{self.now}"
                        )
            # idle_check fires only when the heap actually drained; the
            # until-limit break above leaves events queued and skips it.
            if not heap and idle_check is not None:
                idle_check()
        finally:
            self._running = False
        return self.now

    @property
    def next_event_time(self) -> Optional[int]:
        """Time of the earliest queued event, or ``None`` if idle."""
        return self._heap[0][0] if self._heap else None

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._heap)
