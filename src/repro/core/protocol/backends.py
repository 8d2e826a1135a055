"""Directory backends: the state the protocol tables operate on.

A backend owns one node's directory entries and provides the guard
predicates and action mutators named by its
:class:`~repro.core.protocol.table.ProtocolTable`.  Three backends
cover the paper's spectrum:

- :class:`FullMapBackend` — ``DirnHNBS-``: n pointers, all hardware,
  never traps;
- :class:`LimitedPointerBackend` — ``DirnHkSNB`` (k >= 1) and the
  ``Dir1H1SB,LACK`` broadcast protocol: k hardware pointers, overflow
  and extended writes delegated to
  :class:`~repro.core.software.handlers.ProtocolSoftware`;
- :class:`SoftwareOnlyBackend` — ``DirnH0SNB,ACK`` (Section 2.3): one
  remote-access bit per block, every inter-node coherence event
  handled by a software trap; state transitions are applied atomically
  at message delivery while the outgoing messages are deferred behind
  the handler occupancy (``_defer_sends``).

Guards are side-effect-free predicates ``(entry, src, block) -> bool``;
actions ``(entry, src, block) -> None`` perform the sends, traps and
directory mutations.  The engine resolves both by name via ``getattr``
at construction time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Dict, Optional, Set

from repro.common.errors import ProtocolStateError
from repro.common.types import DirState, TrapKind
from repro.core import messages as msg
from repro.core.directory import DirectoryEntry
from repro.core.protocol.table import (
    HARDWARE_TABLE,
    SOFTWARE_ONLY_TABLE,
    ProtocolTable,
)
from repro.core.software.extdir import SoftwareDirEntry
from repro.core.software.handlers import ProtocolSoftware
from repro.core.software.interface import CoherenceInterface
from repro.core.spec import AckMode, ProtocolSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.node import Node

__all__ = [
    "DIR_LATENCY",
    "HW_INV_SPACING",
    "MIGRATORY_THRESHOLD",
    "DirectoryBackend",
    "FullMapBackend",
    "LimitedPointerBackend",
    "SoftwareOnlyBackend",
]

#: Cycles for a hardware directory lookup/update before a reply leaves.
DIR_LATENCY = 2

#: Spacing between successive hardware-synthesised invalidations.
HW_INV_SPACING = 2

#: read-then-upgrade migrations observed before a block is marked
#: migratory
MIGRATORY_THRESHOLD = 2


class DirectoryBackend:
    """Base class: per-node directory state behind a protocol table.

    Subclasses set :attr:`TABLE`, own an ``entries`` dict, and provide
    the guard/action methods the table names.  ``unknown_event`` and
    ``no_rule`` supply the backend-specific error surface the engine
    falls back to.
    """

    TABLE: ClassVar[ProtocolTable]

    def __init__(self, node: "Node", spec: ProtocolSpec) -> None:
        self.node = node
        self.spec = spec

    def unknown_event(self, kind: str) -> None:
        """A message kind the table has no policy for."""
        raise ProtocolStateError(f"home received {kind}")

    def no_rule(self, event: str, entry, src: int, block: int) -> None:
        """No row matched under an ``error`` fallback policy."""
        raise ProtocolStateError(
            f"no transition for {event} in state "
            f"{None if entry is None else entry.state}"
        )


class LimitedPointerBackend(DirectoryBackend):
    """Hardware directory + software extension for one node's memory."""

    TABLE = HARDWARE_TABLE

    def __init__(self, node: "Node", spec: ProtocolSpec,
                 interface: Optional[CoherenceInterface] = None) -> None:
        super().__init__(node, spec)
        self.n_nodes = node.machine.params.n_nodes
        self.mem_latency = node.machine.params.mem_latency
        self.entries: Dict[int, DirectoryEntry] = {}
        self.software: Optional[ProtocolSoftware] = None
        if spec.needs_software:
            if interface is None:
                raise ProtocolStateError("software protocol needs an interface")
            self.software = ProtocolSoftware(self, interface)

    # ------------------------------------------------------------------
    # Entry management
    # ------------------------------------------------------------------

    def entry_for(self, block: int) -> DirectoryEntry:
        """The directory entry for ``block``, created on first touch."""
        entry = self.entries.get(block)
        if entry is None:
            # Alewife reconfigures coherence protocols block-by-block
            # (Section 3.1); the machine may hold a per-block override.
            spec = self.node.machine.protocol_for_block(block)
            entry = DirectoryEntry(
                capacity=0 if spec.full_map else spec.hw_pointers,
                block=block,
                full_map=spec.full_map,
                home=self.node.id,
                use_local_bit=spec.local_bit and not spec.full_map,
                sw_broadcast=spec.sw_broadcast,
            )
            self.entries[block] = entry
        return entry

    # ------------------------------------------------------------------
    # Guards
    # ------------------------------------------------------------------

    def busy(self, entry: DirectoryEntry, src: int, block: int) -> bool:
        """Transaction in flight, or a software handler queued."""
        return not entry.idle

    def reader_fits(self, entry: DirectoryEntry, src: int,
                    block: int) -> bool:
        """The reader is already recorded or a pointer is free."""
        return entry.has_pointer(src) or entry.can_record(src)

    def broadcast_mode(self, entry: DirectoryEntry, src: int,
                       block: int) -> bool:
        """Dir1..B: reads past the pointer never trap."""
        return entry.sw_broadcast

    def from_owner(self, entry: DirectoryEntry, src: int,
                   block: int) -> bool:
        """The message comes from the block's exclusive owner."""
        return entry.owner == src

    def migratory_block(self, entry: DirectoryEntry, src: int,
                        block: int) -> bool:
        """The block was detected migratory (Section 7)."""
        return entry.migratory

    def extended_broadcast(self, entry: DirectoryEntry, src: int,
                           block: int) -> bool:
        """Extended under a broadcast protocol."""
        return entry.extended and entry.sw_broadcast

    def extended_dir(self, entry: DirectoryEntry, src: int,
                     block: int) -> bool:
        """The directory has been extended into software."""
        return entry.extended

    def sole_sharer(self, entry: DirectoryEntry, src: int,
                    block: int) -> bool:
        """No tracked copies other than the writer's."""
        targets = entry.sharer_set()
        targets.discard(src)
        return not targets

    def seq_invalidation(self, entry: DirectoryEntry, src: int,
                         block: int) -> bool:
        """A sequential-invalidation chain is in progress."""
        return entry.sw_write and entry.seq_targets is not None

    def sw_counted_acks(self, entry: DirectoryEntry, src: int,
                        block: int) -> bool:
        """,ACK protocol after a software write: software counts."""
        return entry.sw_write and self.spec.ack_mode is AckMode.SOFTWARE

    def acks_remaining(self, entry: DirectoryEntry, src: int,
                       block: int) -> bool:
        """More than one acknowledgement still outstanding."""
        return entry.ack_count > 1

    def final_lack(self, entry: DirectoryEntry, src: int,
                   block: int) -> bool:
        """Last ack of a software write under a ,LACK protocol."""
        return (entry.ack_count == 1 and entry.sw_write
                and self.spec.ack_mode is AckMode.LAST_SOFTWARE)

    def final_ack(self, entry: DirectoryEntry, src: int,
                  block: int) -> bool:
        """Exactly one acknowledgement outstanding."""
        return entry.ack_count == 1

    def from_pending_owner(self, entry: DirectoryEntry, src: int,
                           block: int) -> bool:
        """The message comes from the owner a fetch is waiting on."""
        return entry.pending_owner == src

    def tracked_sharer(self, entry: DirectoryEntry, src: int,
                       block: int) -> bool:
        """The sender holds a hardware pointer."""
        return entry.has_pointer(src)

    def untracked_copies(self, entry: DirectoryEntry, src: int,
                         block: int) -> bool:
        """Dir1..B: untracked (broadcast-flagged) copies outstanding."""
        return entry.untracked > 0

    # ------------------------------------------------------------------
    # Read actions
    # ------------------------------------------------------------------

    def read_busy(self, entry: DirectoryEntry, src: int,
                  block: int) -> None:
        """BUSY reply; a reader racing a migratory handoff reverts the
        migratory flag after ``MIGRATORY_THRESHOLD`` conflicts."""
        if (entry.migratory
                and entry.state is DirState.WRITE_TRANSACTION
                and entry.pending_owner is not None):
            # A second reader is racing a migratory handoff: the
            # block is being read-shared after all.  Revert.
            entry.migratory_conflicts += 1
            if entry.migratory_conflicts >= MIGRATORY_THRESHOLD:
                entry.migratory = False
                entry.migratory_evidence = 0
                entry.migratory_conflicts = 0
        self._send_busy(src, block)

    def read_absent(self, entry: DirectoryEntry, src: int,
                    block: int) -> None:
        """First copy: record the reader and grant."""
        entry.state = DirState.READ_ONLY
        entry.record(src)
        self._grant(msg.RDATA, src, block)

    def read_record(self, entry: DirectoryEntry, src: int,
                    block: int) -> None:
        """Record the reader in hardware and grant."""
        entry.record(src)
        self._grant(msg.RDATA, src, block)

    def read_untracked(self, entry: DirectoryEntry, src: int,
                       block: int) -> None:
        """Dir1..B overflow: stop tracking, remember that a broadcast
        will be needed, and grant without trapping.  The idle ack
        counter counts the untracked copies so CICO check-ins can
        restore exactness."""
        entry.extended = True
        entry.untracked += 1
        self._grant(msg.RDATA, src, block)

    def read_overflow(self, entry: DirectoryEntry, src: int,
                      block: int) -> None:
        """Pointer overflow: trap the software read handler."""
        assert self.software is not None
        self.software.on_read_overflow(entry, src)

    def read_fetch_exclusive(self, entry: DirectoryEntry, src: int,
                             block: int) -> None:
        """Migratory data (Section 7): hand the reader the block
        exclusively, saving its upgrade transaction."""
        self._start_fetch(entry, src, entry.owner, is_read=False)

    def read_fetch_shared(self, entry: DirectoryEntry, src: int,
                          block: int) -> None:
        """Recall the dirty copy for shared access."""
        self._start_fetch(entry, src, entry.owner, is_read=True)

    # ------------------------------------------------------------------
    # Write actions
    # ------------------------------------------------------------------

    def write_absent(self, entry: DirectoryEntry, src: int,
                     block: int) -> None:
        """No copies: grant exclusive."""
        self.complete_write(entry, src)

    def write_broadcast(self, entry: DirectoryEntry, src: int,
                        block: int) -> None:
        """Dir1..B: trap software to broadcast the invalidations."""
        assert self.software is not None
        self.software.on_write_broadcast(entry, src)

    def write_extended(self, entry: DirectoryEntry, src: int,
                       block: int) -> None:
        """Extended directory: trap the software write handler."""
        assert self.software is not None
        self.software.on_write_extended(entry, src)

    def write_sole_sharer(self, entry: DirectoryEntry, src: int,
                          block: int) -> None:
        """Writer is the only tracked sharer: upgrade in place."""
        if self.node.machine.migratory_detection:
            self._observe_upgrade(entry, src)
        self.complete_write(entry, src)

    def write_invalidate(self, entry: DirectoryEntry, src: int,
                         block: int) -> None:
        """Hardware-directed invalidation of the tracked sharers."""
        if self.node.machine.migratory_detection:
            self._observe_upgrade(entry, src)
        targets = entry.sharer_set()
        targets.discard(src)
        self._hw_invalidate(entry, src, targets)

    def write_fetch_exclusive(self, entry: DirectoryEntry, src: int,
                              block: int) -> None:
        """Invalidate the owner; its data completes the write."""
        self._start_fetch(entry, src, entry.owner, is_read=False)

    # ------------------------------------------------------------------
    # Acknowledgement actions
    # ------------------------------------------------------------------

    def ack_sequential(self, entry: DirectoryEntry, src: int,
                       block: int) -> None:
        """Sequential invalidation: trap to launch the next INV."""
        assert self.software is not None
        self.software.on_ack_sequential(entry)

    def ack_software(self, entry: DirectoryEntry, src: int,
                     block: int) -> None:
        """,ACK protocol: the ack traps; software counts."""
        assert self.software is not None
        self.software.on_ack_software(entry)

    def ack_countdown(self, entry: DirectoryEntry, src: int,
                      block: int) -> None:
        """Hardware counts down."""
        entry.ack_count -= 1

    def ack_last_trap(self, entry: DirectoryEntry, src: int,
                      block: int) -> None:
        """,LACK protocol: the last ack traps software, which sends
        the data."""
        entry.ack_count -= 1
        if entry.pending_requester is None:
            raise ProtocolStateError(f"no pending requester for {block}")
        assert self.software is not None
        self.software.on_last_ack(entry)

    def ack_complete(self, entry: DirectoryEntry, src: int,
                     block: int) -> None:
        """Last ack: hardware grants exclusive."""
        entry.ack_count -= 1
        requester = entry.pending_requester
        if requester is None:
            raise ProtocolStateError(f"no pending requester for {block}")
        self.complete_write(entry, requester)

    def ack_underflow(self, entry: DirectoryEntry, src: int,
                      block: int) -> None:
        """More acknowledgements than invalidations: protocol error."""
        raise ProtocolStateError(f"ack underflow for block {block}")

    # ------------------------------------------------------------------
    # Fetch-response and eviction actions
    # ------------------------------------------------------------------

    def fetch_complete_read(self, entry: DirectoryEntry, src: int,
                            block: int) -> None:
        """Owner's data arrived for a read fetch."""
        self._finish_fetch(entry, src)

    def fetch_complete_write(self, entry: DirectoryEntry, src: int,
                             block: int) -> None:
        """Owner's data arrived for a write fetch."""
        self._finish_fetch(entry, src)

    def writeback_release(self, entry: DirectoryEntry, src: int,
                          block: int) -> None:
        """The owner wrote its dirty copy back: the entry empties."""
        entry.reset_to_absent()

    def writeback_completes_read(self, entry: DirectoryEntry, src: int,
                                 block: int) -> None:
        """The write-back crossed our fetch in flight; it *is* the
        fetch response, except the owner no longer holds a copy."""
        entry.fetch_is_inv = True
        self._finish_fetch(entry, src)

    def writeback_completes_write(self, entry: DirectoryEntry, src: int,
                                  block: int) -> None:
        """As :meth:`writeback_completes_read`, completing a write."""
        entry.fetch_is_inv = True
        self._finish_fetch(entry, src)

    # ------------------------------------------------------------------
    # CICO check-in actions
    # ------------------------------------------------------------------

    def relinq_drop(self, entry: DirectoryEntry, src: int,
                    block: int) -> None:
        """Drop the sharer's hardware pointer."""
        entry.drop(src)
        self._settle_relinquish(entry)

    def relinq_checkin(self, entry: DirectoryEntry, src: int,
                       block: int) -> None:
        """Count an untracked (broadcast-flagged) copy back in."""
        entry.untracked -= 1
        if entry.untracked == 0 and entry.sw_broadcast:
            # Every untracked copy was checked back in: the pointer
            # is exact again and writes need no broadcast.
            entry.extended = False
        self._settle_relinquish(entry)

    def relinq_stale(self, entry: DirectoryEntry, src: int,
                     block: int) -> None:
        """A pointer held in the software extension stays — its stale
        entry is harmless and the next software write skips absent
        copies via the normal acknowledge-anything rule."""
        self._settle_relinquish(entry)

    def _settle_relinquish(self, entry: DirectoryEntry) -> None:
        # A pending software handler (read overflow) still refers to
        # this entry; resetting it now would let the handler complete
        # into an ABSENT entry and record a sharer the directory no
        # longer admits losing.  Settle only when the entry is idle —
        # the handler's own completion re-settles the bookkeeping.
        if not entry.extended and not entry.sharer_set() and entry.idle:
            entry.reset_to_absent()

    # ------------------------------------------------------------------
    # Fallbacks
    # ------------------------------------------------------------------

    def unknown_event(self, kind: str) -> None:
        raise ProtocolStateError(f"home received {kind}")

    def no_rule(self, event: str, entry, src: int, block: int) -> None:
        if event == msg.ACK:
            raise ProtocolStateError(
                f"stray ack from {src} for block {block}"
            )
        if event == msg.FETCH_DATA:
            raise ProtocolStateError(f"stray fetch data for block {block}")
        if event == msg.EVICT_WB:
            if entry is None:
                raise ProtocolStateError(
                    f"write-back for untracked block {block}"
                )
            raise ProtocolStateError(
                f"unexpected write-back from {src} for block {block} "
                f"in state {entry.state}"
            )
        if event == msg.RREQ:  # pragma: no cover - caught by the busy row
            raise ProtocolStateError(f"read in state {entry.state}")
        raise ProtocolStateError(  # pragma: no cover
            f"write in state {entry.state}"
        )

    # ------------------------------------------------------------------
    # Helpers shared with the software handlers
    # ------------------------------------------------------------------

    def _observe_upgrade(self, entry: DirectoryEntry, requester: int) -> None:
        """Migratory detection: a read followed by an upgrade from the
        sole sharer, with a *different* previous writer, is migration
        evidence; genuine read-sharing resets it."""
        others = entry.sharer_set() - {requester}
        migrationlike = (not others
                         or others == {entry.last_writer})
        if migrationlike:
            if entry.last_writer is not None \
                    and entry.last_writer != requester:
                entry.migratory_evidence += 1
                entry.migratory_conflicts = 0
                if entry.migratory_evidence >= MIGRATORY_THRESHOLD:
                    entry.migratory = True
        elif len(others) >= 2:
            entry.migratory_evidence = 0
            entry.migratory = False

    def _hw_invalidate(self, entry: DirectoryEntry, requester: int,
                       targets: Set[int]) -> None:
        for index, target in enumerate(sorted(targets)):
            self.node.send_protocol(
                msg.INV, target, entry.block,
                extra_delay=DIR_LATENCY + index * HW_INV_SPACING,
            )
        self.node.stats.invalidations_hw += len(targets)
        entry.state = DirState.WRITE_TRANSACTION
        entry.pending_requester = requester
        entry.ack_count = len(targets)
        entry.sw_write = False

    def _start_fetch(self, entry: DirectoryEntry, requester: int,
                     owner: int, is_read: bool) -> None:
        """Recall a dirty copy from its owner.

        A read normally downgrades the owner (FETCH_RD) so both nodes
        end up with shared copies; when the directory cannot hold
        pointers for both, the owner is invalidated instead.
        """
        fetch_inv = not is_read
        if is_read and not entry.full_map:
            slots_needed = sum(
                1
                for node in (owner, requester)
                if not (entry.use_local_bit and node == entry.home)
            )
            if slots_needed > entry.capacity:
                fetch_inv = True
        entry.state = (DirState.READ_TRANSACTION if is_read
                       else DirState.WRITE_TRANSACTION)
        entry.pending_requester = requester
        entry.pending_owner = owner
        entry.pending_is_read = is_read
        entry.fetch_is_inv = fetch_inv
        entry.ack_count = 0
        entry.sw_write = False
        kind = msg.FETCH_INV if fetch_inv else msg.FETCH_RD
        self.node.send_protocol(kind, owner, entry.block,
                                extra_delay=DIR_LATENCY)

    def _finish_fetch(self, entry: DirectoryEntry, owner: int) -> None:
        if entry.pending_owner != owner:
            raise ProtocolStateError(
                f"fetch response from {owner}, expected {entry.pending_owner}"
            )
        requester = entry.pending_requester
        if requester is None:
            raise ProtocolStateError("fetch completion lost its requester")
        if entry.pending_is_read:
            entry.pointers.clear()
            entry.local_bit = False
            entry.state = DirState.READ_ONLY
            entry.pending_requester = None
            entry.pending_owner = None
            if not entry.fetch_is_inv:
                entry.record(owner)
            entry.record(requester)
            self._grant(msg.RDATA, requester, entry.block)
        else:
            self.complete_write(entry, requester)

    def complete_write(self, entry: DirectoryEntry, requester: int,
                       via_software: bool = False) -> None:
        """Grant exclusive ownership of ``entry`` to ``requester``."""
        entry.last_writer = requester
        entry.reset_to_exclusive(requester)
        entry.pending_owner = None
        delay = 0 if via_software else self.mem_latency
        self.node.send_protocol(msg.WDATA, requester, entry.block,
                                extra_delay=delay)
        self.node.machine.note_grant(entry.block, requester, write=True)

    def note_grant(self, block: int, requester: int) -> None:
        """Record a read grant with the machine (worker-set tracking)."""
        self.node.machine.note_grant(block, requester)

    def _grant(self, kind: str, requester: int, block: int) -> None:
        self.node.send_protocol(kind, requester, block,
                                extra_delay=self.mem_latency)
        self.note_grant(block, requester)

    def _send_busy(self, requester: int, block: int) -> None:
        self.node.stats.busy_replies += 1
        self.node.send_protocol(msg.BUSY, requester, block,
                                extra_delay=DIR_LATENCY)

    def reply_busy(self, entry: DirectoryEntry, src: int,
                   block: int) -> None:
        """Plain BUSY reply (transaction in flight, retry later)."""
        self._send_busy(src, block)


class FullMapBackend(LimitedPointerBackend):
    """``DirnHNBS-``: one pointer per node, entirely in hardware.

    Shares the hardware table and machinery with
    :class:`LimitedPointerBackend`; the overflow/extension rows are
    unreachable because a full-map entry always has a pointer free.
    """

    def __init__(self, node: "Node", spec: ProtocolSpec,
                 interface: Optional[CoherenceInterface] = None) -> None:
        super().__init__(node, spec, interface)


class SoftwareOnlyBackend(DirectoryBackend):
    """``DirnH0SNB,ACK``: all inter-node coherence handled in software.

    One extra bit per block (the *remote-access* bit) lets purely local
    data run at uniprocessor speed; the first inter-node request sets
    the bit and flushes the home node's cached copy, after which every
    access — including the home's own — is handled by the extension
    software.

    State transitions are applied atomically when a message is
    delivered (several handlers can be queued on the node's software
    context at once, so deferring mutations would let them clobber each
    other); the trap models the handler's processor occupancy and
    delays the *outgoing* messages until the handler would have
    finished composing them.
    """

    TABLE = SOFTWARE_ONLY_TABLE

    def __init__(self, node: "Node", spec: ProtocolSpec,
                 interface: CoherenceInterface) -> None:
        super().__init__(node, spec)
        self.iface = interface
        self.mem_latency = node.machine.params.mem_latency
        self.entries: Dict[int, SoftwareDirEntry] = {}
        #: invalidations sent to flush the home's own copy, with no
        #: write transaction waiting on them
        self._flush_acks: Dict[int, int] = {}

    def entry_for(self, block: int) -> SoftwareDirEntry:
        """The software directory entry for ``block``."""
        entry = self.entries.get(block)
        if entry is None:
            entry = SoftwareDirEntry(block)
            self.entries[block] = entry
        return entry

    def _defer_sends(self, kind: TrapKind, cost, sends, pointers: int = 0,
                     grants=()) -> None:
        """Charge a handler and launch ``sends`` when it completes."""
        def complete() -> None:
            for index, (mkind, dst, block) in enumerate(sends):
                self.iface.transmit(mkind, dst, block, index=index)
            for grant in grants:
                self.node.machine.note_grant(*grant)
        self.iface.run_handler(kind, cost, complete, pointers=pointers)

    def _trap_kind(self, src: int) -> TrapKind:
        return (TrapKind.LOCAL_FAULT if src == self.node.id
                else TrapKind.REMOTE_REQUEST)

    def _note_remote(self, entry: SoftwareDirEntry, src: int) -> None:
        if src != self.node.id:
            entry.remote_bit = True

    # ------------------------------------------------------------------
    # Guards
    # ------------------------------------------------------------------

    def local_private(self, entry: SoftwareDirEntry, src: int,
                      block: int) -> bool:
        """Home's own access with the remote-access bit still clear."""
        return src == self.node.id and not entry.remote_bit

    def from_owner(self, entry: SoftwareDirEntry, src: int,
                   block: int) -> bool:
        """The message comes from the recorded owner."""
        return entry.owner == src

    def no_other_sharers(self, entry: SoftwareDirEntry, src: int,
                         block: int) -> bool:
        """No copies besides (possibly) the writer's own."""
        targets = set(entry.sharers)
        targets.discard(src)
        return not targets

    def acks_remaining(self, entry: SoftwareDirEntry, src: int,
                       block: int) -> bool:
        """More than one acknowledgement still outstanding."""
        return entry.sw_ack_count > 1

    def final_ack(self, entry: SoftwareDirEntry, src: int,
                  block: int) -> bool:
        """Exactly one acknowledgement outstanding."""
        return entry.sw_ack_count == 1

    def flush_pending(self, entry, src: int, block: int) -> bool:
        """A home-copy flush invalidation awaits this acknowledgement.

        Deliberately ignores ``entry`` (which may be ``None``): flush
        acks are tracked per block, outside any write transaction."""
        return self._flush_acks.get(block, 0) > 0

    def private_writeback(self, entry: SoftwareDirEntry, src: int,
                          block: int) -> bool:
        """The home writes back its own still-private copy."""
        return (entry.owner == src and src == self.node.id
                and not entry.remote_bit)

    # ------------------------------------------------------------------
    # Request actions
    # ------------------------------------------------------------------

    def local_miss_busy(self, entry: SoftwareDirEntry, src: int,
                        block: int) -> None:
        """Only the home holds copies while the bit is clear; a miss on
        an owned block means the dirty copy's write-back is in flight.
        Retry until it lands — no software involved."""
        self.node.stats.busy_replies += 1
        self.node.send_protocol(msg.BUSY, self.node.id, block,
                                extra_delay=DIR_LATENCY)

    def local_read_grant(self, entry: SoftwareDirEntry, src: int,
                         block: int) -> None:
        """Uniprocessor fast path: no software involved (Section 2.3)."""
        home = self.node.id
        entry.state = DirState.READ_ONLY
        entry.sharers.add(home)
        self.node.send_protocol(msg.RDATA, home, block,
                                extra_delay=self.mem_latency)
        self.node.machine.note_grant(block, home, write=False)

    def local_write_grant(self, entry: SoftwareDirEntry, src: int,
                          block: int) -> None:
        """Uniprocessor fast path for a write."""
        home = self.node.id
        entry.state = DirState.READ_WRITE
        entry.owner = home
        entry.sharers = {home}
        self.node.send_protocol(msg.WDATA, home, block,
                                extra_delay=self.mem_latency)
        self.node.machine.note_grant(block, home, write=True)

    def busy_trap(self, entry: SoftwareDirEntry, src: int,
                  block: int) -> None:
        """Software is mid-transaction on this block; even the busy
        reply costs a handler dispatch under the software-only
        directory."""
        self.node.stats.busy_replies += 1
        self._defer_sends(self._trap_kind(src), self.iface.cost_model.ack(),
                          [(msg.BUSY, src, block)])

    def owner_busy_trap(self, entry: SoftwareDirEntry, src: int,
                        block: int) -> None:
        """The owner's own request races its write-back: BUSY, via a
        handler."""
        self._note_remote(entry, src)
        self.node.stats.busy_replies += 1
        self._defer_sends(self._trap_kind(src), self.iface.cost_model.ack(),
                          [(msg.BUSY, src, block)])

    def read_fetch(self, entry: SoftwareDirEntry, src: int,
                   block: int) -> None:
        """Fetch the dirty copy for a reader."""
        self._note_remote(entry, src)
        owner = entry.owner
        assert owner is not None
        self._start_fetch(entry, src, owner, self._trap_kind(src),
                          is_read=True)

    def write_fetch(self, entry: SoftwareDirEntry, src: int,
                    block: int) -> None:
        """Fetch (and invalidate) the dirty copy for a writer."""
        self._note_remote(entry, src)
        owner = entry.owner
        assert owner is not None
        self._start_fetch(entry, src, owner, self._trap_kind(src),
                          is_read=False)

    def read_grant(self, entry: SoftwareDirEntry, src: int,
                   block: int) -> None:
        """Record the reader and send the data from the handler."""
        self._note_remote(entry, src)
        trap_kind = self._trap_kind(src)
        sends = []
        if src != self.node.id and self.node.id in entry.sharers:
            # Flush the home's own copy (Section 2.3): once the
            # remote-access bit is set, local accesses must trap too.
            sends.append((msg.INV, self.node.id, block))
            self.node.stats.invalidations_sw += 1
            self._flush_acks[block] = self._flush_acks.get(block, 0) + 1
            entry.sharers.discard(self.node.id)
        entry.state = DirState.READ_ONLY
        entry.sharers.add(src)
        sends.append((msg.RDATA, src, block))
        small = self.iface.is_small_set(len(entry.sharers))
        cost = self.iface.cost_model.sw_request("read", 1, small)
        self._defer_sends(trap_kind, cost, sends, pointers=1,
                          grants=[(block, src)])

    def write_grant(self, entry: SoftwareDirEntry, src: int,
                    block: int) -> None:
        """No other copies: grant exclusive from the handler."""
        self._note_remote(entry, src)
        trap_kind = self._trap_kind(src)
        targets = set(entry.sharers)
        targets.discard(src)
        small = self.iface.is_small_set(len(targets))
        cost = self.iface.cost_model.sw_request("write", len(targets), small)
        entry.state = DirState.READ_WRITE
        entry.owner = src
        entry.sharers = {src}
        self._defer_sends(trap_kind, cost,
                          [(msg.WDATA, src, block)],
                          grants=[(block, src, True)])

    def write_invalidate(self, entry: SoftwareDirEntry, src: int,
                         block: int) -> None:
        """Software sends one INV per sharer and counts the acks."""
        self._note_remote(entry, src)
        trap_kind = self._trap_kind(src)
        targets = set(entry.sharers)
        targets.discard(src)
        small = self.iface.is_small_set(len(targets))
        cost = self.iface.cost_model.sw_request("write", len(targets), small)
        # A pending home-copy flush (read_grant) is absorbed into this
        # transaction: its INV is already in flight and its ACK is
        # indistinguishable from the ones armed here, so counting it
        # keeps the exclusive grant behind *every* outstanding
        # invalidation instead of completing one ack early.
        absorbed = self._flush_acks.pop(block, 0)
        entry.state = DirState.WRITE_TRANSACTION
        entry.pending_requester = src
        entry.sw_ack_count = len(targets) + absorbed
        entry.sharers = set()
        sends = [(msg.INV, target, block) for target in sorted(targets)]
        self.node.stats.invalidations_sw += len(targets)
        self._defer_sends(trap_kind, cost, sends, pointers=len(targets))

    def _start_fetch(self, entry: SoftwareDirEntry, requester: int,
                     owner: int, trap_kind: TrapKind, is_read: bool) -> None:
        # The software-only directory always invalidates the owner (the
        # flush behaviour of Section 2.3), so after the fetch completes
        # only the requester holds a copy.
        entry.state = (DirState.READ_TRANSACTION if is_read
                       else DirState.WRITE_TRANSACTION)
        entry.pending_requester = requester
        entry.owner = owner
        entry.sw_ack_count = 0
        cost = self.iface.cost_model.sw_request(
            "read" if is_read else "write", 1)
        self._defer_sends(trap_kind, cost,
                          [(msg.FETCH_INV, owner, entry.block)],
                          pointers=1)

    # ------------------------------------------------------------------
    # Response actions (every one of them traps)
    # ------------------------------------------------------------------

    def ack_countdown(self, entry: SoftwareDirEntry, src: int,
                      block: int) -> None:
        """Software counts down; each ack costs a trap."""
        entry.sw_ack_count -= 1
        self._defer_sends(TrapKind.ACK_SOFTWARE,
                          self.iface.cost_model.ack(), [])

    def ack_complete(self, entry: SoftwareDirEntry, src: int,
                     block: int) -> None:
        """Last ack: software grants exclusive."""
        entry.sw_ack_count -= 1
        requester = entry.pending_requester
        assert requester is not None
        entry.state = DirState.READ_WRITE
        entry.owner = requester
        entry.sharers = {requester}
        entry.pending_requester = None
        self._defer_sends(TrapKind.ACK_LAST,
                          self.iface.cost_model.last_ack(),
                          [(msg.WDATA, requester, block)],
                          grants=[(block, requester, True)])

    def flush_ack(self, entry, src: int, block: int) -> None:
        """Acknowledgement of a home-copy flush: pure bookkeeping."""
        flushes = self._flush_acks.get(block, 0)
        if flushes == 1:
            del self._flush_acks[block]
        else:
            self._flush_acks[block] = flushes - 1
        self._defer_sends(TrapKind.ACK_SOFTWARE,
                          self.iface.cost_model.ack(), [])

    def fetch_complete_read(self, entry: SoftwareDirEntry, src: int,
                            block: int) -> None:
        """Owner's data for a read fetch: only the requester holds a
        copy afterwards."""
        requester = entry.pending_requester
        assert requester is not None
        cost = self.iface.cost_model.last_ack()
        entry.state = DirState.READ_ONLY
        entry.owner = None
        entry.sharers = {requester}
        entry.pending_requester = None
        self._defer_sends(TrapKind.REMOTE_REQUEST, cost,
                          [(msg.RDATA, requester, block)],
                          grants=[(block, requester)])

    def fetch_complete_write(self, entry: SoftwareDirEntry, src: int,
                             block: int) -> None:
        """Owner's data for a write fetch: exclusive grant."""
        requester = entry.pending_requester
        assert requester is not None
        cost = self.iface.cost_model.last_ack()
        entry.state = DirState.READ_WRITE
        entry.owner = requester
        entry.sharers = {requester}
        entry.pending_requester = None
        self._defer_sends(TrapKind.REMOTE_REQUEST, cost,
                          [(msg.WDATA, requester, block)],
                          grants=[(block, requester, True)])

    def writeback_private(self, entry: SoftwareDirEntry, src: int,
                          block: int) -> None:
        """Still private: no trap, uniprocessor behaviour."""
        entry.state = DirState.ABSENT
        entry.owner = None
        entry.sharers = set()

    def writeback_trap(self, entry: SoftwareDirEntry, src: int,
                       block: int) -> None:
        """The owner wrote back; the bookkeeping traps."""
        entry.state = DirState.ABSENT
        entry.owner = None
        entry.sharers = set()
        self._defer_sends(TrapKind.REMOTE_REQUEST,
                          self.iface.cost_model.ack(), [])

    def relinq_shared(self, entry: SoftwareDirEntry, src: int,
                      block: int) -> None:
        """CICO check-in of a shared copy."""
        entry.sharers.discard(src)
        if not entry.sharers:
            entry.state = DirState.ABSENT
        self._defer_sends(TrapKind.REMOTE_REQUEST,
                          self.iface.cost_model.ack(), [])

    def relinq_ack(self, entry: SoftwareDirEntry, src: int,
                   block: int) -> None:
        """Stale check-in: acknowledge via a handler, no state change."""
        self._defer_sends(TrapKind.REMOTE_REQUEST,
                          self.iface.cost_model.ack(), [])

    # ------------------------------------------------------------------
    # Fallbacks
    # ------------------------------------------------------------------

    def unknown_event(self, kind: str) -> None:
        raise ProtocolStateError(f"H0 home received {kind}")

    def no_rule(self, event: str, entry, src: int, block: int) -> None:
        if event == msg.ACK:
            raise ProtocolStateError(
                f"stray H0 ack from {src} for block {block}"
            )
        if event == msg.FETCH_DATA:
            raise ProtocolStateError(
                f"stray H0 fetch data for block {block}"
            )
        if event == msg.EVICT_WB:
            if entry is None:
                raise ProtocolStateError(
                    f"H0 write-back for untracked {block}"
                )
            raise ProtocolStateError(
                f"unexpected H0 write-back from {src} "
                f"in state {entry.state}"
            )
        raise ProtocolStateError(  # pragma: no cover - requests always match
            f"H0 home cannot serve {event} in state "
            f"{None if entry is None else entry.state}"
        )
