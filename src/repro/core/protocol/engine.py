"""The table-driven home protocol engine.

One :class:`HomeProtocolEngine` executes every protocol in the paper's
spectrum: it resolves its backend's
:class:`~repro.core.protocol.table.ProtocolTable` into a per-event,
per-state dispatch structure at construction time, then interprets
incoming messages against it.  All protocol *behaviour* lives in the
table rows and the backend's guard/action methods; the engine itself
only sequences them.

The engine also owns the ``"transition"`` observability probe: when a
bus is attached (``machine.observe()``) and the channel has
subscribers, every fired rule emits a
:class:`~repro.obs.events.TransitionApplied` carrying the before/after
directory states and the declared ``next_state`` label — the raw
material of the continuous invariant checker
(:class:`~repro.core.protocol.invariants.InvariantChecker`).  When
detached the probe costs one attribute load and a ``None`` check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.core.protocol.backends import (
    DirectoryBackend,
    FullMapBackend,
    LimitedPointerBackend,
    SoftwareOnlyBackend,
)
from repro.core.spec import ProtocolSpec
from repro.common.errors import ProtocolStateError
from repro.common.types import DirState
from repro.obs.events import TransitionApplied

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.software.interface import CoherenceInterface
    from repro.machine.node import Node
    from repro.network.fabric import Message

__all__ = ["HomeProtocolEngine", "build_home_engine"]


class HomeProtocolEngine:
    """Executes a protocol table against a directory backend.

    The per-event plan maps each event kind to ``(create, strict,
    by_state, when_missing)``: whether the entry is created on lookup,
    whether an unmatched event is an error, the per-state row lists
    (wildcard rows merged in table order), and the rows applicable when
    no entry exists.  Rows are ``(guard, action, transition)`` triples
    with guards and actions pre-resolved to bound backend methods.
    """

    def __init__(self, node: "Node", spec: ProtocolSpec,
                 backend: DirectoryBackend) -> None:
        self.node = node
        self.spec = spec
        self.backend = backend
        table = backend.TABLE
        self._dispatch: Dict[str, tuple] = {}
        for event, policy in table.policies.items():
            rows = table.rows_for(event)
            resolved = []
            for row in rows:
                guard = (None if row.guard is None
                         else getattr(backend, row.guard))
                resolved.append((row.states, guard,
                                 getattr(backend, row.action), row))
            by_state: Dict[DirState, Tuple[tuple, ...]] = {}
            for state in DirState:
                by_state[state] = tuple(
                    (guard, action, row)
                    for states, guard, action, row in resolved
                    if states is None or state in states
                )
            when_missing = tuple(
                (guard, action, row)
                for states, guard, action, row in resolved
                if states is None
            )
            self._dispatch[event] = (
                policy.lookup == "create",
                policy.fallback == "error",
                by_state,
                when_missing,
            )

    # ------------------------------------------------------------------
    # Compatibility surface (tests and the machine address the home
    # controller through these)
    # ------------------------------------------------------------------

    @property
    def entries(self):
        """The backend's per-block directory entries."""
        return self.backend.entries

    @property
    def software(self):
        """The software extension handlers, if the protocol has any."""
        return getattr(self.backend, "software", None)

    def entry_for(self, block: int):
        """The backend's directory entry for ``block``."""
        return self.backend.entry_for(block)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def handle(self, message: "Message") -> None:
        """Apply the first matching transition for ``message``."""
        kind = message.kind
        plan = self._dispatch.get(kind)
        if plan is None:
            self.backend.unknown_event(kind)
            return
        create, strict, by_state, when_missing = plan
        block = message.payload.block
        src = message.src
        backend = self.backend
        if create:
            entry = backend.entry_for(block)
        else:
            entry = backend.entries.get(block)
        if entry is None:
            before = None
            rows = when_missing
        else:
            before = entry.state
            rows = by_state[before]
        obs = self.node.machine.obs
        if obs is not None and obs.on_transition:
            busy = entry is not None and (
                before.transient or getattr(entry, "sw_pending", False)
            )
            for guard, action, row in rows:
                if guard is None or guard(entry, src, block):
                    action(entry, src, block)
                    # positional: node, at, event, src, block, before,
                    # after, rule, next_label, busy, txn
                    obs.transition(TransitionApplied(
                        self.node.id, self.node.machine.sim.now, kind,
                        src, block,
                        None if before is None else before.value,
                        None if entry is None else entry.state.value,
                        row.action, row.next_state, busy,
                        message.payload.txn))
                    return
        else:
            for guard, action, row in rows:
                if guard is None or guard(entry, src, block):
                    action(entry, src, block)
                    return
        if strict:
            backend.no_rule(kind, entry, src, block)


def build_home_engine(node: "Node", spec: ProtocolSpec,
                      interface: Optional["CoherenceInterface"]
                      ) -> HomeProtocolEngine:
    """Construct the home engine for ``spec`` with the right backend.

    Full-map protocols get :class:`FullMapBackend`; the software-only
    directory gets :class:`SoftwareOnlyBackend` (which requires the
    flexible coherence ``interface``); everything else — limited
    pointers with software extension, and the Dir1SW broadcast
    protocol — gets :class:`LimitedPointerBackend`.
    """
    backend: DirectoryBackend
    if spec.is_software_only:
        if interface is None:
            raise ProtocolStateError("software protocol needs an interface")
        backend = SoftwareOnlyBackend(node, spec, interface)
    elif spec.full_map:
        backend = FullMapBackend(node, spec, interface)
    else:
        backend = LimitedPointerBackend(node, spec, interface)
    return HomeProtocolEngine(node, spec, backend)
