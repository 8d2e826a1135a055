"""The flexible coherence interface (paper Section 4.1).

The C implementation of Alewife's protocol extension software is built on
a flexible interface that provides "C macros for hardware directory
manipulation, protocol message transmission, a free-listing memory
manager, and hash table administration", and hides details such as atomic
protocol transitions.  This module is the analogue: protocol handlers
(:mod:`repro.core.software.handlers`) are written against this facade and
never touch the fabric, the hardware directory internals, or the trap
machinery directly.

The facade also charges the *cost* of each handler through the cost model
(:mod:`repro.core.software.costmodel`), so the flexibility-vs-performance
tradeoff of Section 4 is a first-class experiment: the same handler logic
runs under the ``flexible`` or the ``optimized`` cost model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, List, Optional

from repro.common.types import TrapKind
from repro.core import messages as msg
from repro.core.directory import DirectoryEntry
from repro.core.software.costmodel import (
    FLEXIBLE,
    CostModel,
    HandlerCost,
)
from repro.core.software.extdir import (
    SMALL_SET_THRESHOLD,
    ExtendedDirectory,
    ExtensionRecord,
    SoftwareDirectory,
)
from repro.core.spec import ProtocolSpec
from repro.obs.events import TrapPosted

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.node import Node


class CoherenceInterface:
    """Per-node services available to protocol extension handlers."""

    def __init__(self, node: "Node", spec: ProtocolSpec,
                 implementation: str = FLEXIBLE) -> None:
        self.node = node
        self.spec = spec
        self.implementation = implementation
        self.cost_model = CostModel(implementation, spec.smallset_opt)
        self.extdir = ExtendedDirectory()
        self.swdir = SoftwareDirectory()

    # ------------------------------------------------------------------
    # Hash table administration / memory management
    # ------------------------------------------------------------------

    def lookup_extension(self, block: int) -> Optional[ExtensionRecord]:
        return self.extdir.lookup(block)

    def allocate_extension(self, block: int) -> ExtensionRecord:
        return self.extdir.get_or_create(block)

    def free_extension(self, block: int) -> Optional[ExtensionRecord]:
        return self.extdir.free(block)

    def is_small_set(self, size: int) -> bool:
        return size <= SMALL_SET_THRESHOLD

    # ------------------------------------------------------------------
    # Hardware directory manipulation
    # ------------------------------------------------------------------

    @staticmethod
    def empty_hardware_pointers(entry: DirectoryEntry) -> List[int]:
        """Move every hardware pointer into software hands."""
        return entry.take_all_pointers()

    @staticmethod
    def arm_ack_counter(entry: DirectoryEntry, count: int) -> None:
        """Return the hardware directory to acknowledgement-counting
        mode (Section 2.2)."""
        entry.ack_count = count

    # ------------------------------------------------------------------
    # Protocol message transmission
    # ------------------------------------------------------------------

    def transmit(self, kind: str, dst: int, block: int,
                 index: int = 0) -> None:
        """Launch one protocol message from software.

        ``index`` spaces successive launches from the same handler (the
        invalidation loop injects messages back-to-back at the software
        launch rate).
        """
        self.node.send_protocol(
            kind, dst, block,
            extra_delay=index * self.cost_model.message_spacing,
        )

    def transmit_invalidations(self, targets: Iterable[int],
                               block: int) -> int:
        """Send an invalidation to each target; returns the count."""
        count = 0
        for index, target in enumerate(sorted(targets)):
            self.transmit(msg.INV, target, block, index=index)
            count += 1
        self.node.stats.invalidations_sw += count
        return count

    # ------------------------------------------------------------------
    # Trap scheduling
    # ------------------------------------------------------------------

    def run_handler(self, kind: TrapKind, cost: HandlerCost,
                    completion: Callable[[], None],
                    pointers: int = 0) -> None:
        """Queue a handler on the local processor; ``completion`` runs
        (atomically, per the interface's atomic-transition guarantee)
        when the handler finishes.

        The transaction id of the message that trapped is captured here
        and re-established around the deferred completion, so state
        changes and messages launched *at handler end* (the deferred-send
        discipline of the software backends) are attributed to the
        transaction that trapped — not to whatever message happens to be
        dispatching when the completion event fires.
        """
        node = self.node
        txn = node.current_txn
        obs = node.machine.obs
        if obs is not None and obs.on_trap:
            obs.trap(TrapPosted(node.id, kind.value, node.machine.sim.now,
                                cost.latency, pointers, txn))

        def complete() -> None:
            prev = node.current_txn
            node.current_txn = txn
            completion()
            node.current_txn = prev

        node.processor.post_trap(kind, cost, complete,
                                 pointers=pointers,
                                 implementation=self.implementation,
                                 txn=txn)
