"""Protocol tracing and transcript verification.

NWO's value to the Alewife project was partly that it is a *deterministic
debugging and test environment*; this module provides the analogue: a
tracer that records every protocol message with its delivery time, and a
transcript checker that verifies ownership serialisation directly from
the message stream — independently of the directory implementation it is
checking.

The checker's rules, per memory block:

- a ``WDATA`` delivery makes its destination the *owner*; until the home
  receives that owner's ``EVICT_WB`` or ``FETCH_DATA``, no other data
  grant for the block may be delivered;
- an ``ACK`` from a node must be preceded by at least as many ``INV``
  deliveries to that node;
- every requester that sent a request receives at least one reply
  (data or BUSY) by the end of the run.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.core import messages as msg

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.machine import Machine

_TRACED = frozenset({
    msg.RREQ, msg.WREQ, msg.RDATA, msg.WDATA, msg.BUSY,
    msg.INV, msg.ACK, msg.FETCH_RD, msg.FETCH_INV, msg.FETCH_DATA,
    msg.EVICT_WB,
})


@dataclasses.dataclass(frozen=True)
class TraceRecord:
    """One protocol message, with send and delivery times."""

    sent_at: int
    delivered_at: int
    kind: str
    src: int
    dst: int
    block: int


class ProtocolTracer:
    """Records every coherence message a machine's fabric carries.

    Usage::

        tracer = ProtocolTracer.attach(machine)
        machine.run(workload)
        problems = tracer.verify()
    """

    def __init__(self, blocks: Optional[Set[int]] = None) -> None:
        #: captured live Message objects; records are materialised
        #: lazily because a message's delivery time is only known once
        #: it reaches the destination's receive queue (the fabric
        #: mutates ``delivered_at`` at arrival, after send returns)
        self._messages: List = []
        self._records: Optional[List[TraceRecord]] = None
        self._filter = blocks
        self._fabric = None
        self._inner_send = None
        self._wrapper = None
        self._had_override = False
        self._active = False

    @property
    def records(self) -> List[TraceRecord]:
        """The transcript so far, as frozen :class:`TraceRecord` rows."""
        if self._records is None:
            self._records = [
                TraceRecord(
                    sent_at=m.sent_at,
                    delivered_at=m.delivered_at,
                    kind=m.kind,
                    src=m.src,
                    dst=m.dst,
                    block=m.block,
                )
                for m in self._messages
            ]
        return self._records

    @records.setter
    def records(self, value: List[TraceRecord]) -> None:
        # Tests and offline checkers build transcripts directly.
        self._records = list(value)
        self._messages = []

    @classmethod
    def attach(cls, machine: "Machine",
               blocks: Optional[Set[int]] = None) -> "ProtocolTracer":
        """Wrap ``machine.fabric.send`` with a recording layer.

        Multiple tracers may attach to the same machine: each wraps the
        send currently installed, so all of them record.  Call
        :meth:`detach` to stop recording; detaching in any order is
        safe (an inner tracer whose wrapper is still referenced by an
        outer one simply becomes a pass-through).
        """
        tracer = cls(blocks)
        fabric = machine.fabric
        inner_send = fabric.send

        def traced_send(message, extra_delay: int = 0):
            result = inner_send(message, extra_delay)
            if tracer._active and message.kind in _TRACED:
                block = message.block
                if tracer._filter is None or block in tracer._filter:
                    tracer._messages.append(message)
                    tracer._records = None
            return result

        tracer._fabric = fabric
        tracer._inner_send = inner_send
        tracer._wrapper = traced_send
        # Whether fabric.send was already an instance-level override
        # (e.g. an earlier tracer); if not, detach restores the
        # pristine class method by deleting the override entirely.
        tracer._had_override = "send" in fabric.__dict__
        tracer._active = True
        fabric.send = traced_send  # type: ignore[method-assign]
        return tracer

    @property
    def attached(self) -> bool:
        """True while this tracer is recording."""
        return self._active

    def detach(self) -> None:
        """Stop recording and, when possible, unwrap ``fabric.send``.

        If this tracer's wrapper is still the outermost layer it is
        removed entirely, restoring whatever ``send`` it wrapped (the
        original, or an earlier tracer's wrapper).  If another tracer
        attached afterwards, the wrapper cannot be unlinked without
        breaking the outer tracer, so it stays in place as an inert
        pass-through.  Idempotent.
        """
        if not self._active:
            return
        self._active = False
        fabric = self._fabric
        if fabric is None or fabric.__dict__.get("send") is not self._wrapper:
            return
        if self._had_override:
            fabric.send = self._inner_send  # type: ignore[method-assign]
        else:
            del fabric.__dict__["send"]  # back to the class method

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def for_block(self, block: int) -> List[TraceRecord]:
        return [r for r in self.records if r.block == block]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for record in self.records:
            out[record.kind] += 1
        return dict(out)

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify(self) -> List[str]:
        """Check the transcript; returns violation descriptions."""
        problems: List[str] = []
        per_block: Dict[int, List[TraceRecord]] = defaultdict(list)
        for record in self.records:
            per_block[record.block].append(record)

        for block, records in per_block.items():
            records.sort(key=lambda r: (r.delivered_at, r.sent_at))
            problems.extend(self._check_ownership(block, records))
            problems.extend(self._check_acks(block, records))
            problems.extend(self._check_replies(block, records))
        return problems

    @staticmethod
    def _check_ownership(block: int,
                         records: List[TraceRecord]) -> List[str]:
        problems = []
        owner: Optional[int] = None
        for record in records:
            if record.kind == msg.WDATA:
                if owner is not None and owner != record.dst:
                    problems.append(
                        f"block {block}: WDATA to {record.dst} at "
                        f"{record.delivered_at} while {owner} still owns"
                    )
                owner = record.dst
            elif record.kind == msg.RDATA:
                if owner is not None and owner != record.dst:
                    problems.append(
                        f"block {block}: RDATA to {record.dst} at "
                        f"{record.delivered_at} while {owner} owns"
                    )
                if owner == record.dst:
                    owner = None  # downgraded via a fresh read grant
            elif record.kind in (msg.EVICT_WB, msg.FETCH_DATA):
                if record.src == owner:
                    owner = None
        return problems

    @staticmethod
    def _check_acks(block: int, records: List[TraceRecord]) -> List[str]:
        problems = []
        invs_seen: Dict[int, int] = defaultdict(int)
        acks_seen: Dict[int, int] = defaultdict(int)
        for record in records:
            if record.kind == msg.INV:
                invs_seen[record.dst] += 1
            elif record.kind == msg.ACK:
                acks_seen[record.src] += 1
                if acks_seen[record.src] > invs_seen[record.src]:
                    problems.append(
                        f"block {block}: node {record.src} acked more "
                        f"invalidations than it received"
                    )
        return problems

    @staticmethod
    def _check_replies(block: int, records: List[TraceRecord]) -> List[str]:
        problems = []
        requesters = {r.src for r in records
                      if r.kind in (msg.RREQ, msg.WREQ)}
        replied = {r.dst for r in records
                   if r.kind in (msg.RDATA, msg.WDATA, msg.BUSY)}
        for node in sorted(requesters - replied):
            problems.append(
                f"block {block}: node {node} requested but never got a "
                f"reply"
            )
        return problems
