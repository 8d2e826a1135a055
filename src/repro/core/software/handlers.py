"""Protocol extension handlers (the software half of the directory).

These handlers implement the software side of every ``Dirn`` protocol
from ``DirnH1S...`` to ``DirnH(n-1)SNB`` plus the broadcast protocol
``Dir1H1SB,LACK``, written against the flexible coherence interface —
mirroring the paper's C implementation, in which "a single set of C
routines implements all of the protocols" (Section 4.1).

The hardware (the home controller) invokes a handler when:

- a read request overflows the hardware pointers (``on_read_overflow``);
- a write request targets a block whose directory has been extended
  (``on_write_extended`` / ``on_write_broadcast``);
- an acknowledgement arrives that the hardware cannot count
  (``on_ack_software``), or the *last* acknowledgement arrives under a
  ``,LACK`` protocol (``on_last_ack``).

Handler bodies run as trap completions: the directory mutation happens
atomically when the handler finishes occupying the processor, which is
the atomicity guarantee the flexible interface provides.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Set

from repro.common.errors import ProtocolStateError
from repro.common.types import DirState, TrapKind
from repro.core import messages as msg
from repro.core.directory import DirectoryEntry
from repro.core.software.interface import CoherenceInterface
from repro.core.spec import AckMode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.protocol.backends import LimitedPointerBackend


#: worker sets at or below this size use the sequential procedure when
#: the machine's invalidation mode is "dynamic"
SEQUENTIAL_THRESHOLD = 4


class ProtocolSoftware:
    """Software extension handlers for the hardware-directory protocols."""

    def __init__(self, home: "LimitedPointerBackend",
                 interface: CoherenceInterface) -> None:
        self.home = home
        self.iface = interface
        self.spec = interface.spec

    # ------------------------------------------------------------------
    # Read overflow (Section 2.2)
    # ------------------------------------------------------------------

    def on_read_overflow(self, entry: DirectoryEntry, requester: int) -> None:
        """The hardware pointer array is full and ``requester`` is not in
        it: empty the pointers into software and record the requester."""
        entry.sw_pending = True
        record = self.iface.lookup_extension(entry_block(entry))
        current = len(record.sharers) if record else 0
        pointers = len(entry.pointers)
        small = self.iface.is_small_set(current + pointers + 1)
        cost = self.iface.cost_model.read_overflow(pointers, small)

        def complete() -> None:
            block = entry_block(entry)
            rec = self.iface.allocate_extension(block)
            rec.sharers.update(self.iface.empty_hardware_pointers(entry))
            entry.record(requester)
            entry.extended = True
            entry.sw_pending = False
            self.iface.transmit(msg.RDATA, requester, block)
            self.home.note_grant(block, requester)

        self.iface.run_handler(TrapKind.READ_OVERFLOW, cost, complete,
                               pointers=pointers)

    # ------------------------------------------------------------------
    # Write to an extended block (Section 2.2)
    # ------------------------------------------------------------------

    def on_write_extended(self, entry: DirectoryEntry, writer: int) -> None:
        """Invalidate every recorded copy — hardware pointers and the
        software extension — then arm acknowledgement collection."""
        entry.sw_pending = True
        block = entry_block(entry)
        record = self.iface.lookup_extension(block)
        targets: Set[int] = set(entry.sharer_set())
        if record is not None:
            targets.update(record.sharers)
        targets.discard(writer)
        small = self.iface.is_small_set(len(targets))
        cost = self.iface.cost_model.write_extended(len(targets), small)

        def complete() -> None:
            self.iface.free_extension(block)
            entry.pointers.clear()
            entry.local_bit = False
            entry.extended = False
            entry.sw_pending = False
            if not targets:
                self.home.complete_write(entry, writer, via_software=True)
                return
            self._arm_write(entry, writer, targets, block)

        self.iface.run_handler(TrapKind.WRITE_EXTENDED, cost, complete,
                               pointers=len(targets))

    def on_write_broadcast(self, entry: DirectoryEntry, writer: int) -> None:
        """``Dir1H1SB,LACK``: the directory lost track of the sharers, so
        software broadcasts an invalidation to every other node; the
        hardware accumulates the acknowledgements (Section 2.5)."""
        entry.sw_pending = True
        block = entry_block(entry)
        targets = {node for node in range(self.home.n_nodes)
                   if node != writer}
        cost = self.iface.cost_model.write_extended(len(targets))

        def complete() -> None:
            entry.pointers.clear()
            entry.local_bit = False
            entry.extended = False
            entry.sw_pending = False
            self._arm_write(entry, writer, targets, block)

        self.iface.run_handler(TrapKind.WRITE_EXTENDED, cost, complete,
                               pointers=len(targets))

    def _arm_write(self, entry: DirectoryEntry, writer: int,
                   targets: Set[int], block: int) -> None:
        """Send the invalidations and configure ack collection.

        The machine-wide invalidation mode selects between blasting
        every invalidation from one handler (*parallel*), chaining them
        one acknowledgement at a time (*sequential*), or picking per
        worker set (*dynamic* — Section 7's enhancement for
        widely-shared data).
        """
        mode = self.home.node.machine.invalidation_mode
        sequential = mode == "sequential" or (
            mode == "dynamic" and len(targets) <= SEQUENTIAL_THRESHOLD)
        entry.state = DirState.WRITE_TRANSACTION
        entry.pending_requester = writer
        entry.sw_write = True
        if sequential and len(targets) > 1:
            ordered = sorted(targets)
            self.iface.transmit(msg.INV, ordered[0], block)
            self.home.node.stats.invalidations_sw += 1
            entry.seq_targets = ordered[1:]
            return
        self.iface.transmit_invalidations(targets, block)
        if self.spec.ack_mode is AckMode.SOFTWARE:
            # The hardware pointer is unused during the process; software
            # keeps the count (Section 2.4, first variant).
            rec = self.iface.allocate_extension(block)
            rec.sw_ack_count = len(targets)
            entry.ack_count = 0
        else:
            # Hardware counts (either fully, or trapping on the last ack).
            self.iface.arm_ack_counter(entry, len(targets))

    # ------------------------------------------------------------------
    # Acknowledgement handling (Section 2.4)
    # ------------------------------------------------------------------

    def on_ack_software(self, entry: DirectoryEntry) -> None:
        """A ``,ACK`` protocol: every acknowledgement traps."""
        block = entry_block(entry)
        record = self.iface.lookup_extension(block)
        if record is None or record.sw_ack_count <= 0:
            raise ProtocolStateError(
                f"software ack with no outstanding count for block {block}"
            )
        record.sw_ack_count -= 1
        last = record.sw_ack_count == 0
        cost = (self.iface.cost_model.last_ack() if last
                else self.iface.cost_model.ack())

        def complete() -> None:
            if last:
                self.iface.free_extension(block)
                writer = entry.pending_requester
                if writer is None:
                    raise ProtocolStateError("ack completion lost requester")
                self.home.complete_write(entry, writer, via_software=True)

        kind = TrapKind.ACK_LAST if last else TrapKind.ACK_SOFTWARE
        self.iface.run_handler(kind, cost, complete)

    def on_ack_sequential(self, entry: DirectoryEntry) -> None:
        """Sequential invalidation: each acknowledgement trap launches
        the next invalidation; the last one transmits the data."""
        assert entry.seq_targets is not None
        block = entry_block(entry)
        writer = entry.pending_requester
        if writer is None:
            raise ProtocolStateError("sequential ack lost its requester")
        if entry.seq_targets:
            target = entry.seq_targets.pop(0)
            cost = self.iface.cost_model.ack_forward()

            def complete() -> None:
                self.iface.transmit(msg.INV, target, block)
                self.home.node.stats.invalidations_sw += 1

            self.iface.run_handler(TrapKind.ACK_SOFTWARE, cost, complete)
            return
        cost = self.iface.cost_model.last_ack()

        def finish() -> None:
            self.home.complete_write(entry, writer, via_software=True)

        self.iface.run_handler(TrapKind.ACK_LAST, cost, finish)

    def on_last_ack(self, entry: DirectoryEntry) -> None:
        """A ``,LACK`` protocol: the hardware counted down to zero and
        traps software, which transmits the data to the requester."""
        cost = self.iface.cost_model.last_ack()
        writer = entry.pending_requester
        if writer is None:
            raise ProtocolStateError("last ack with no pending requester")

        def complete() -> None:
            self.home.complete_write(entry, writer, via_software=True)

        self.iface.run_handler(TrapKind.ACK_LAST, cost, complete)


def entry_block(entry: DirectoryEntry) -> int:
    """Block id an entry describes (stored by the home controller)."""
    block = getattr(entry, "block", None)
    if block is None:
        raise ProtocolStateError("directory entry missing block id")
    return block
