"""Continuous, transition-level protocol invariant checking.

The barrier checker in :mod:`repro.analysis.verify` validates machine
state at quiescent points; this module promotes it to a *continuous*
checker that rides the :mod:`repro.obs` probes — every fired protocol
transition and every fabric message is checked as it happens, so a
protocol bug surfaces at the offending cycle instead of the next
barrier.  Because it is an observer, it is zero-cost when detached and
provably perturbation-free when attached (observers read state only).

Checked invariants:

- **transition claims** — the table row's declared ``next_state`` label
  matches the entry's actual post-state;
- **busy-state exclusivity** — a request arriving mid-transaction can
  only be answered by a BUSY rule, never mutate the transaction;
- **directory well-formedness** — no duplicated pointers, pointer count
  within hardware capacity, exactly one tracked node in ``READ_WRITE``,
  transient states carry their pending requester, acknowledgement
  counters never negative; an extended or broadcast-flagged entry is
  accounted for (no pointers lost on overflow or trap);
- **no lost readers** — whenever a hardware entry settles in
  ``READ_ONLY``, every node actually holding a readable copy is named
  by a hardware pointer or the software extension record (the converse
  — stale pointers to clean-evicted copies — is legal);
- **ack conservation** — every ACK on the fabric matches an earlier
  INV for the same block, and none are outstanding at the end;
- **single-writer** — a WDATA grant never leaves another node holding
  a readable copy, an RDATA grant never coexists with a writable copy
  (modulo the software-only directory's in-flight home-copy flush,
  which the protocol intentionally allows);
- **final sweep** — :func:`repro.analysis.verify.coherence_violations`
  over the quiesced machine at :meth:`InvariantChecker.finish`.

Attach with :meth:`InvariantChecker.attach`, or from the CLI with
``repro run --check-invariants`` / ``repro experiments
--check-invariants``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.common.types import CacheState, DirState
from repro.core import messages as msg
from repro.core.directory import DirectoryEntry
from repro.core.protocol.table import allowed_after
from repro.core.software.extdir import SoftwareDirEntry
from repro.obs.events import TransitionApplied

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.machine import Machine
    from repro.network.fabric import Message

__all__ = ["InvariantChecker", "InvariantViolation"]

#: Rules allowed to answer a request that arrived mid-transaction.
_BUSY_RULES = frozenset({"read_busy", "reply_busy", "busy_trap"})


class InvariantViolation(AssertionError):
    """Raised by a strict checker at the first violated invariant."""


class InvariantChecker:
    """Continuous protocol-invariant checker over the event bus.

    Subscribe with :meth:`attach`; collected violations accumulate in
    :attr:`violations` (``strict=True`` raises
    :class:`InvariantViolation` at the first one instead).  Call
    :meth:`finish` after the run for the end-of-run conservation and
    whole-machine coherence sweeps.
    """

    def __init__(self, machine: "Machine", strict: bool = False) -> None:
        self.machine = machine
        self.strict = strict
        self.violations: List[str] = []
        self.transitions_checked = 0
        self.messages_checked = 0
        self._outstanding_invs: Dict[int, int] = {}
        self._attached = False

    @classmethod
    def attach(cls, machine: "Machine",
               strict: bool = False) -> "InvariantChecker":
        """Create a checker and subscribe it to ``machine``'s bus."""
        checker = cls(machine, strict=strict)
        bus = machine.observe()
        bus.subscribe("transition", checker._on_transition)
        bus.subscribe("message", checker._on_message)
        checker._attached = True
        return checker

    def detach(self) -> None:
        """Unsubscribe from the bus (violations are kept)."""
        if self._attached and self.machine.obs is not None:
            self.machine.obs.unsubscribe("transition", self._on_transition)
            self.machine.obs.unsubscribe("message", self._on_message)
        self._attached = False

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _violate(self, at: int, text: str) -> None:
        report = f"[cycle {at}] {text}"
        self.violations.append(report)
        if self.strict:
            raise InvariantViolation(report)

    def finish(self) -> List[str]:
        """End-of-run sweeps; returns the accumulated violations."""
        for block, count in sorted(self._outstanding_invs.items()):
            if count:
                self._violate(
                    self.machine.sim.now,
                    f"{count} invalidation(s) never acknowledged for "
                    f"block {block}",
                )
        from repro.analysis.verify import coherence_violations

        for problem in coherence_violations(self.machine):
            self._violate(self.machine.sim.now, f"final state: {problem}")
        return self.violations

    def assert_clean(self) -> None:
        """Raise :class:`InvariantViolation` if anything was recorded."""
        if self.violations:
            shown = "\n  ".join(self.violations[:8])
            raise InvariantViolation(
                f"{len(self.violations)} protocol invariant violation(s):"
                f"\n  {shown}"
            )

    # ------------------------------------------------------------------
    # Transition-level checks
    # ------------------------------------------------------------------

    def _on_transition(self, ev: TransitionApplied) -> None:
        self.transitions_checked += 1
        claim = allowed_after(ev.next_label)
        if claim == "same":
            if ev.after != ev.before:
                self._violate(
                    ev.at,
                    f"rule {ev.rule} claims no state change for block "
                    f"{ev.block} but moved {ev.before} -> {ev.after}",
                )
        elif claim is not None:
            if ev.after is None or DirState(ev.after) not in claim:
                self._violate(
                    ev.at,
                    f"rule {ev.rule} declared next state "
                    f"{ev.next_label!r} for block {ev.block} but entry "
                    f"is in {ev.after}",
                )
        if ev.busy and ev.event in (msg.RREQ, msg.WREQ) \
                and ev.rule not in _BUSY_RULES:
            self._violate(
                ev.at,
                f"busy-state exclusivity: {ev.event} for block "
                f"{ev.block} fired {ev.rule} while a transaction was "
                f"in flight",
            )
        entry = self.machine.nodes[ev.node].home.entries.get(ev.block)
        if isinstance(entry, DirectoryEntry):
            self._check_hardware_entry(ev, entry)
        elif isinstance(entry, SoftwareDirEntry):
            self._check_software_entry(ev, entry)

    def _check_hardware_entry(self, ev: TransitionApplied,
                              entry: DirectoryEntry) -> None:
        at = ev.at
        block = ev.block
        pointers = entry.pointers
        if len(set(pointers)) != len(pointers):
            self._violate(at, f"block {block}: duplicated hardware "
                              f"pointers {pointers}")
        if not entry.full_map and len(pointers) > entry.capacity:
            self._violate(at, f"block {block}: {len(pointers)} pointers "
                              f"exceed capacity {entry.capacity}")
        if entry.ack_count < 0:
            self._violate(at, f"block {block}: negative ack count "
                              f"{entry.ack_count}")
        if entry.untracked < 0:
            self._violate(at, f"block {block}: negative untracked count")
        if entry.untracked > 0 and not entry.sw_broadcast:
            self._violate(at, f"block {block}: untracked copies on a "
                              f"non-broadcast entry")
        state = entry.state
        if state is DirState.READ_WRITE:
            tracked = len(pointers) + (
                1 if entry.use_local_bit and entry.local_bit else 0
            )
            if tracked != 1:
                self._violate(at, f"block {block}: READ_WRITE with "
                                  f"{tracked} tracked nodes")
        elif state is DirState.READ_ONLY:
            if not entry.sw_pending and not entry.extended \
                    and not entry.sharer_set():
                self._violate(at, f"block {block}: READ_ONLY with no "
                                  f"tracked sharers")
        if state.transient and entry.pending_requester is None:
            self._violate(at, f"block {block}: transient state {state} "
                              f"without a pending requester")
        if not state.transient and entry.ack_count != 0:
            self._violate(at, f"block {block}: ack counter "
                              f"{entry.ack_count} armed outside a write "
                              f"transaction")
        if ev.after == DirState.READ_ONLY.value and entry.idle \
                and entry.untracked == 0:
            self._check_reader_coverage(ev, entry)

    def _check_reader_coverage(self, ev: TransitionApplied,
                               entry: DirectoryEntry) -> None:
        """No lost pointers: every actual reader is tracked somewhere.

        Stale pointers to clean-evicted copies are legal (the directory
        over-approximates), so the check runs holders-subset-of-tracked
        only.  Restricted to hardware backends: the software-only
        directory's deferred home-copy flush leaves a legitimate
        transiently-untracked reader."""
        tracked = entry.sharer_set()
        software = self.machine.nodes[ev.node].home.software
        if software is not None:
            record = software.iface.lookup_extension(ev.block)
            if record is not None:
                tracked |= record.sharers
        for node in self.machine.nodes:
            if node.cache_ctrl.cache.probe(ev.block) is not \
                    CacheState.INVALID and node.id not in tracked:
                self._violate(
                    ev.at,
                    f"block {ev.block}: node {node.id} holds a readable "
                    f"copy untracked by pointers or extension "
                    f"(lost pointer)",
                )

    def _check_software_entry(self, ev: TransitionApplied,
                              entry: SoftwareDirEntry) -> None:
        at = ev.at
        block = ev.block
        if entry.sw_ack_count < 0:
            self._violate(at, f"block {block}: negative H0 ack count")
        state = entry.state
        if state is DirState.READ_WRITE:
            if entry.owner is None or entry.sharers != {entry.owner}:
                self._violate(
                    at,
                    f"block {block}: H0 READ_WRITE owner={entry.owner} "
                    f"sharers={sorted(entry.sharers)}",
                )
        elif state is DirState.READ_ONLY:
            if not entry.sharers:
                self._violate(at, f"block {block}: H0 READ_ONLY with no "
                                  f"sharers")
        if state.transient and entry.pending_requester is None:
            self._violate(at, f"block {block}: H0 transient state "
                              f"{state} without a pending requester")

    # ------------------------------------------------------------------
    # Message-level checks
    # ------------------------------------------------------------------

    def _on_message(self, ev: "Message") -> None:
        kind = ev.kind
        if kind == msg.INV:
            self.messages_checked += 1
            block = ev.block
            self._outstanding_invs[block] = \
                self._outstanding_invs.get(block, 0) + 1
        elif kind == msg.ACK:
            self.messages_checked += 1
            block = ev.block
            count = self._outstanding_invs.get(block, 0)
            if count <= 0:
                self._violate(
                    ev.sent_at,
                    f"block {block}: ACK from {ev.src} without a "
                    f"matching invalidation",
                )
            else:
                self._outstanding_invs[block] = count - 1
        elif kind == msg.WDATA:
            self.messages_checked += 1
            self._check_exclusive_grant(ev)
        elif kind == msg.RDATA:
            self.messages_checked += 1
            self._check_shared_grant(ev)

    def _flush_in_flight(self, block: Optional[int],
                         home: int) -> bool:
        backend = getattr(self.machine.nodes[home].home, "backend", None)
        flush_acks = getattr(backend, "_flush_acks", None)
        return bool(flush_acks) and flush_acks.get(block, 0) > 0

    def _check_exclusive_grant(self, ev: "Message") -> None:
        """At a WDATA send, no third node may still hold the block."""
        block = ev.block
        if block is None:
            return
        home = self.machine.params.home_of_block(block)
        for node in self.machine.nodes:
            if node.id == ev.dst:
                continue
            state = node.cache_ctrl.cache.probe(block)
            if state is CacheState.INVALID:
                continue
            if node.id == home and self._flush_in_flight(block, home):
                # The software-only directory flushes the home's own
                # copy asynchronously; the protocol tolerates the
                # stale copy until the INV lands.
                continue
            self._violate(
                ev.sent_at,
                f"block {block}: WDATA granted to {ev.dst} while node "
                f"{node.id} still holds {state.value}",
            )

    def _check_shared_grant(self, ev: "Message") -> None:
        """At an RDATA send, no node may hold a writable copy."""
        block = ev.block
        if block is None:
            return
        for node in self.machine.nodes:
            if node.id == ev.dst:
                continue
            if node.cache_ctrl.cache.probe(block) is CacheState.READ_WRITE:
                self._violate(
                    ev.sent_at,
                    f"block {block}: RDATA granted to {ev.dst} while "
                    f"node {node.id} holds a writable copy",
                )
