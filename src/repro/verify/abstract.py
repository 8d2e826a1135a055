"""Abstract protocol-level machine for the offline model checker.

This module rebuilds just enough of the simulator to explore every
interleaving of protocol events for one memory block — no clocks, no
cost models, no workloads.  The abstraction keeps exactly the artifacts
the protocol depends on for correctness:

- **Per-channel FIFO network.**  The real fabric clamps deliveries so a
  ``(src, dst)`` pair never reorders (``_pair_last`` in
  ``repro.network.fabric``); the protocol leans on that (a write-back
  always beats its sender's next request, an INV never passes the grant
  it chases).  The abstract network is therefore a FIFO queue per
  directed node pair, with *arbitrary* interleaving across channels.
- **FIFO handler queue.**  Software handlers post to the home
  processor's trap queue and complete in order; mutations that the real
  code defers to handler completion are deferred here too (hardware
  table), while the software-only table mutates at delivery and defers
  only its sends — both exactly as in ``backends.py``.
- **Blocking caches.**  One outstanding transaction per node, BUSY
  means re-send, INV/FETCH answered exactly as
  ``repro.core.cache_ctrl`` does, clean conflict evictions are silent.

Timing is erased: every enabled step may happen next.  That makes the
exploration an *over*-approximation of the timed simulator — any safety
violation of the real machine shows up here, plus possibly schedules
the timed simulator cannot produce.  Counters that only saturate
(migratory evidence) are capped at their threshold so the state space
stays finite; the cap is behaviour-equivalent because no guard reads
values past the threshold.

Messages carry a *purpose tag* alongside their kind: invalidations are
tagged ``"wt"`` (part of a write transaction) or ``"flush"`` (the
software-only directory flushing the home's own copy), and an ACK
carries back the tag of the INV it answers.  The protocol itself never
sees tags — dispatch uses only the kind, as in the real engine — but
the safety checks use them to tell an acceptable grant/flush overlap
from a lost invalidation.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.common.types import DirState
from repro.core import messages as msg
from repro.core.protocol.table import (
    HARDWARE_TABLE,
    SOFTWARE_ONLY_TABLE,
    ProtocolTable,
)
from repro.core.software.handlers import SEQUENTIAL_THRESHOLD
from repro.core.spec import AckMode, ProtocolSpec

__all__ = [
    "ModelConfig",
    "ModelViolation",
    "World",
    "AbstractHardwareHome",
    "AbstractSoftwareOnlyHome",
    "home_class_for",
    "successors",
    "initial_state",
    "obligations",
    "quiescent_findings",
]

#: Cache states, small ints for cheap hashing.
C_INV, C_RO, C_RW = 0, 1, 2
#: Outstanding-transaction kinds per node.
O_NONE, O_READ, O_WRITE = 0, 1, 2

#: Message purpose tags (second element of a channel item).
TAG_WT = "wt"
TAG_FLUSH = "flush"


class ModelViolation(Exception):
    """A safety/consistency check failed while applying a step."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    """One small configuration the checker explores exhaustively."""

    label: str
    spec: ProtocolSpec
    n_nodes: int = 3
    home: int = 0
    #: machine-wide invalidation mode ("parallel"/"sequential"/"dynamic")
    invalidation_mode: str = "parallel"
    migratory_detection: bool = False
    #: silent clean-drop budget per node (bounds untracked-copy growth)
    drop_budget: int = 1

    @property
    def table(self) -> ProtocolTable:
        return (SOFTWARE_ONLY_TABLE if self.spec.is_software_only
                else HARDWARE_TABLE)


# ----------------------------------------------------------------------
# Abstract directory entries (mirrors of DirectoryEntry /
# SoftwareDirEntry, parameterized by the config instead of a machine)
# ----------------------------------------------------------------------


class HwEntry:
    """Abstract mirror of :class:`repro.core.directory.DirectoryEntry`."""

    __slots__ = (
        "state", "pointers", "local_bit", "extended", "untracked",
        "ack_count", "pending_requester", "pending_owner",
        "pending_is_read", "fetch_is_inv", "sw_pending", "sw_write",
        "seq_targets", "migratory", "mig_evidence", "mig_conflicts",
        "last_writer", "ext_sharers", "ext_ack",
    )

    def __init__(self) -> None:
        self.state = DirState.ABSENT
        self.pointers: List[int] = []
        self.local_bit = False
        self.extended = False
        self.untracked = 0
        self.ack_count = 0
        self.pending_requester: Optional[int] = None
        self.pending_owner: Optional[int] = None
        self.pending_is_read = False
        self.fetch_is_inv = False
        self.sw_pending = False
        self.sw_write = False
        self.seq_targets: Optional[List[int]] = None
        self.migratory = False
        self.mig_evidence = 0
        self.mig_conflicts = 0
        self.last_writer: Optional[int] = None
        #: software extension record (None = not allocated)
        self.ext_sharers: Optional[FrozenSet[int]] = None
        self.ext_ack = 0

    def freeze(self) -> tuple:
        return (
            self.state, tuple(self.pointers), self.local_bit,
            self.extended, self.untracked, self.ack_count,
            self.pending_requester, self.pending_owner,
            self.pending_is_read, self.fetch_is_inv, self.sw_pending,
            self.sw_write,
            None if self.seq_targets is None else tuple(self.seq_targets),
            self.migratory, self.mig_evidence, self.mig_conflicts,
            self.last_writer, self.ext_sharers, self.ext_ack,
        )

    @classmethod
    def thaw(cls, frozen: tuple) -> "HwEntry":
        entry = cls()
        (entry.state, pointers, entry.local_bit, entry.extended,
         entry.untracked, entry.ack_count, entry.pending_requester,
         entry.pending_owner, entry.pending_is_read, entry.fetch_is_inv,
         entry.sw_pending, entry.sw_write, seq, entry.migratory,
         entry.mig_evidence, entry.mig_conflicts, entry.last_writer,
         entry.ext_sharers, entry.ext_ack) = frozen
        entry.pointers = list(pointers)
        entry.seq_targets = None if seq is None else list(seq)
        return entry

    @property
    def idle(self) -> bool:
        return not self.state.transient and not self.sw_pending


class SwEntry:
    """Abstract mirror of
    :class:`repro.core.software.extdir.SoftwareDirEntry` (plus the
    backend's per-block flush-ack counter)."""

    __slots__ = ("state", "sharers", "owner", "sw_ack_count",
                 "pending_requester", "remote_bit", "flush_acks")

    def __init__(self) -> None:
        self.state = DirState.ABSENT
        self.sharers: Set[int] = set()
        self.owner: Optional[int] = None
        self.sw_ack_count = 0
        self.pending_requester: Optional[int] = None
        self.remote_bit = False
        self.flush_acks = 0

    def freeze(self) -> tuple:
        return (self.state, frozenset(self.sharers), self.owner,
                self.sw_ack_count, self.pending_requester,
                self.remote_bit, self.flush_acks)

    @classmethod
    def thaw(cls, frozen: tuple) -> "SwEntry":
        entry = cls()
        (entry.state, sharers, entry.owner, entry.sw_ack_count,
         entry.pending_requester, entry.remote_bit,
         entry.flush_acks) = frozen
        entry.sharers = set(sharers)
        return entry

    @property
    def idle(self) -> bool:
        return not self.state.transient


# ----------------------------------------------------------------------
# The mutable world one step operates on
# ----------------------------------------------------------------------


class World:
    """Thawed global state: entry + caches + channels + handler queue."""

    __slots__ = ("cfg", "entry", "caches", "outstanding", "budgets",
                 "channels", "handlers", "fired")

    def __init__(self, cfg: ModelConfig) -> None:
        self.cfg = cfg
        self.entry = None  # type: Optional[object]
        self.caches = [C_INV] * cfg.n_nodes
        self.outstanding = [O_NONE] * cfg.n_nodes
        self.budgets = [cfg.drop_budget] * cfg.n_nodes
        #: (src, dst) -> FIFO list of (kind, tag)
        self.channels: Dict[Tuple[int, int], List[tuple]] = {}
        #: FIFO handler queue at the home processor
        self.handlers: List[tuple] = []
        #: table-row indices fired while applying the current step
        self.fired: List[int] = []

    # -- state <-> hashable key ---------------------------------------

    def freeze(self) -> tuple:
        chans = tuple(sorted(
            (pair, tuple(queue))
            for pair, queue in self.channels.items() if queue
        ))
        return (
            None if self.entry is None else self.entry.freeze(),
            tuple(self.caches), tuple(self.outstanding),
            tuple(self.budgets), chans, tuple(self.handlers),
        )

    @classmethod
    def thaw(cls, cfg: ModelConfig, frozen: tuple) -> "World":
        world = cls(cfg)
        entry, caches, outstanding, budgets, chans, handlers = frozen
        if entry is not None:
            entry_cls = (SwEntry if cfg.spec.is_software_only else HwEntry)
            world.entry = entry_cls.thaw(entry)
        world.caches = list(caches)
        world.outstanding = list(outstanding)
        world.budgets = list(budgets)
        world.channels = {pair: list(queue) for pair, queue in chans}
        world.handlers = list(handlers)
        return world

    # -- network -------------------------------------------------------

    def send(self, src: int, dst: int, kind: str,
             tag: Optional[str] = None) -> None:
        self.channels.setdefault((src, dst), []).append((kind, tag))

    def in_flight_to(self, dst: int, kind: str,
                     tag: Optional[str] = None) -> bool:
        """Any (kind[, tag]) message queued toward ``dst``?"""
        for (_, to), queue in self.channels.items():
            if to != dst:
                continue
            for mkind, mtag in queue:
                if mkind == kind and (tag is None or mtag == tag):
                    return True
        return False

    def readable(self, node: int) -> bool:
        return self.caches[node] != C_INV

    def writable(self, node: int) -> bool:
        return self.caches[node] == C_RW


# ----------------------------------------------------------------------
# Abstract homes: guard/action methods mirroring backends.py, operating
# on the abstract world.  Method names match the tables exactly, so the
# same dispatch-by-name the engine uses works here.
# ----------------------------------------------------------------------

from repro.core.protocol.backends import MIGRATORY_THRESHOLD  # noqa: E402


class AbstractHardwareHome:
    """Mirror of ``LimitedPointerBackend`` (+ ``ProtocolSoftware``)."""

    TABLE = HARDWARE_TABLE

    def __init__(self, world: World) -> None:
        self.w = world
        self.cfg = world.cfg
        self.spec = world.cfg.spec
        self.home = world.cfg.home

    # -- entry management (mirrors DirectoryEntry) ---------------------

    @property
    def capacity(self) -> int:
        return 0 if self.spec.full_map else self.spec.hw_pointers

    @property
    def use_local_bit(self) -> bool:
        return self.spec.local_bit and not self.spec.full_map

    def ensure_entry(self) -> HwEntry:
        if self.w.entry is None:
            self.w.entry = HwEntry()
        return self.w.entry

    def has_pointer(self, e: HwEntry, node: int) -> bool:
        if self.use_local_bit and node == self.home and e.local_bit:
            return True
        return node in e.pointers

    def can_record(self, e: HwEntry, node: int) -> bool:
        if self.has_pointer(e, node):
            return True
        if self.use_local_bit and node == self.home:
            return True
        return self.spec.full_map or len(e.pointers) < self.capacity

    def record_node(self, e: HwEntry, node: int) -> None:
        if self.has_pointer(e, node):
            return
        if self.use_local_bit and node == self.home:
            e.local_bit = True
            return
        if not self.spec.full_map and len(e.pointers) >= self.capacity:
            raise ModelViolation(
                "wellformed",
                f"hardware directory overflow recording node {node} "
                f"(capacity {self.capacity})",
            )
        e.pointers.append(node)

    def drop_node(self, e: HwEntry, node: int) -> None:
        if self.use_local_bit and node == self.home:
            e.local_bit = False
        while node in e.pointers:
            e.pointers.remove(node)

    def sharer_set(self, e: HwEntry) -> Set[int]:
        sharers = set(e.pointers)
        if self.use_local_bit and e.local_bit:
            sharers.add(self.home)
        return sharers

    def owner_of(self, e: HwEntry) -> int:
        if e.state is not DirState.READ_WRITE:
            raise ModelViolation(
                "state-error", f"no owner in state {e.state.value}")
        if self.use_local_bit and e.local_bit:
            return self.home
        if len(e.pointers) != 1:
            raise ModelViolation(
                "wellformed",
                f"READ_WRITE entry with {len(e.pointers)} pointers")
        return e.pointers[0]

    def reset_to_exclusive(self, e: HwEntry, owner: int) -> None:
        e.pointers = []
        e.local_bit = False
        e.extended = False
        e.state = DirState.READ_WRITE
        if self.use_local_bit and owner == self.home:
            e.local_bit = True
        else:
            e.pointers.append(owner)
        e.ack_count = 0
        e.pending_requester = None
        e.sw_write = False
        e.seq_targets = None
        e.untracked = 0

    def reset_to_absent(self, e: HwEntry) -> None:
        e.pointers = []
        e.local_bit = False
        e.extended = False
        e.state = DirState.ABSENT
        e.ack_count = 0
        e.pending_requester = None
        e.sw_write = False
        e.seq_targets = None
        e.untracked = 0

    # -- guards (same names, same semantics as LimitedPointerBackend) --

    def busy(self, e, src):
        return not e.idle

    def reader_fits(self, e, src):
        return self.has_pointer(e, src) or self.can_record(e, src)

    def broadcast_mode(self, e, src):
        return self.spec.sw_broadcast

    def from_owner(self, e, src):
        return self.owner_of(e) == src

    def migratory_block(self, e, src):
        return e.migratory

    def extended_broadcast(self, e, src):
        return e.extended and self.spec.sw_broadcast

    def extended_dir(self, e, src):
        return e.extended

    def sole_sharer(self, e, src):
        targets = self.sharer_set(e)
        targets.discard(src)
        return not targets

    def seq_invalidation(self, e, src):
        return e.sw_write and e.seq_targets is not None

    def sw_counted_acks(self, e, src):
        return e.sw_write and self.spec.ack_mode is AckMode.SOFTWARE

    def acks_remaining(self, e, src):
        return e.ack_count > 1

    def final_lack(self, e, src):
        return (e.ack_count == 1 and e.sw_write
                and self.spec.ack_mode is AckMode.LAST_SOFTWARE)

    def final_ack(self, e, src):
        return e.ack_count == 1

    def from_pending_owner(self, e, src):
        return e.pending_owner == src

    def tracked_sharer(self, e, src):
        return self.has_pointer(e, src)

    def untracked_copies(self, e, src):
        return e.untracked > 0

    # -- grant helpers with the safety checks --------------------------

    def _check_no_stale_grant(self, dst: int) -> None:
        for (_, to), queue in self.w.channels.items():
            if to != dst:
                continue
            for kind, _tag in queue:
                if kind in (msg.RDATA, msg.WDATA):
                    raise ModelViolation(
                        "safety",
                        f"second grant launched at node {dst} while "
                        f"one is already in flight")

    def _grant_rdata(self, dst: int) -> None:
        for n in range(self.cfg.n_nodes):
            if n != dst and self.w.writable(n):
                raise ModelViolation(
                    "safety",
                    f"RDATA granted to node {dst} while node {n} "
                    f"holds a dirty copy")
        self._check_no_stale_grant(dst)
        self.w.send(self.home, dst, msg.RDATA)

    def _grant_wdata(self, dst: int) -> None:
        for n in range(self.cfg.n_nodes):
            if n == dst or not self.w.readable(n):
                continue
            if self.w.in_flight_to(n, msg.INV, TAG_FLUSH):
                # The software-only directory's home-copy flush may
                # overlap a grant (the documented H0 concession); a
                # write-transaction INV may not.
                continue
            raise ModelViolation(
                "safety",
                f"WDATA granted to node {dst} while node {n} still "
                f"holds a readable copy (lost invalidation)")
        self._check_no_stale_grant(dst)
        self.w.send(self.home, dst, msg.WDATA)

    def _send_busy(self, dst: int) -> None:
        self.w.send(self.home, dst, msg.BUSY)

    # -- read actions --------------------------------------------------

    def read_busy(self, e, src):
        if (e.migratory and e.state is DirState.WRITE_TRANSACTION
                and e.pending_owner is not None):
            e.mig_conflicts += 1
            if e.mig_conflicts >= MIGRATORY_THRESHOLD:
                e.migratory = False
                e.mig_evidence = 0
                e.mig_conflicts = 0
        self._send_busy(src)

    def read_absent(self, e, src):
        e.state = DirState.READ_ONLY
        self.record_node(e, src)
        self._grant_rdata(src)

    def read_record(self, e, src):
        self.record_node(e, src)
        self._grant_rdata(src)

    def read_untracked(self, e, src):
        e.extended = True
        e.untracked += 1
        self._grant_rdata(src)

    def read_overflow(self, e, src):
        e.sw_pending = True
        self.w.handlers.append(("read_overflow", src))

    def read_fetch_exclusive(self, e, src):
        self._start_fetch(e, src, self.owner_of(e), is_read=False)

    def read_fetch_shared(self, e, src):
        self._start_fetch(e, src, self.owner_of(e), is_read=True)

    # -- write actions -------------------------------------------------

    def write_absent(self, e, src):
        self.complete_write(e, src)

    def write_broadcast(self, e, src):
        e.sw_pending = True
        self.w.handlers.append(("write_broadcast", src))

    def write_extended(self, e, src):
        # Targets are computed at trap-post time, exactly as
        # ProtocolSoftware.on_write_extended captures them.
        e.sw_pending = True
        targets = self.sharer_set(e)
        if e.ext_sharers is not None:
            targets |= e.ext_sharers
        targets.discard(src)
        self.w.handlers.append(("write_extended", src, frozenset(targets)))

    def write_sole_sharer(self, e, src):
        if self.cfg.migratory_detection:
            self._observe_upgrade(e, src)
        self.complete_write(e, src)

    def write_invalidate(self, e, src):
        if self.cfg.migratory_detection:
            self._observe_upgrade(e, src)
        targets = self.sharer_set(e)
        targets.discard(src)
        self._hw_invalidate(e, src, targets)

    def write_fetch_exclusive(self, e, src):
        self._start_fetch(e, src, self.owner_of(e), is_read=False)

    # -- acknowledgement actions ---------------------------------------

    def ack_sequential(self, e, src):
        # Mirrors ProtocolSoftware.on_ack_sequential: the target pops at
        # trap-post time; the INV (or the grant) launches on completion.
        if e.seq_targets is None:
            raise ModelViolation("state-error", "sequential ack lost chain")
        writer = e.pending_requester
        if writer is None:
            raise ModelViolation(
                "state-error", "sequential ack lost its requester")
        if e.seq_targets:
            target = e.seq_targets.pop(0)
            self.w.handlers.append(("ack_seq_next", target))
        else:
            self.w.handlers.append(("ack_seq_finish", writer))

    def ack_software(self, e, src):
        # Mirrors on_ack_software: the extension-record count decrements
        # at trap-post time; only the last ack's completion acts.
        if e.ext_sharers is None or e.ext_ack <= 0:
            raise ModelViolation(
                "state-error",
                "software ack with no outstanding count")
        e.ext_ack -= 1
        if e.ext_ack == 0:
            self.w.handlers.append(("ack_sw_last",))

    def ack_countdown(self, e, src):
        e.ack_count -= 1

    def ack_last_trap(self, e, src):
        e.ack_count -= 1
        writer = e.pending_requester
        if writer is None:
            raise ModelViolation(
                "state-error", "last ack with no pending requester")
        self.w.handlers.append(("ack_last", writer))

    def ack_complete(self, e, src):
        e.ack_count -= 1
        requester = e.pending_requester
        if requester is None:
            raise ModelViolation(
                "state-error", "no pending requester at final ack")
        self.complete_write(e, requester)

    def ack_underflow(self, e, src):
        raise ModelViolation(
            "state-error", "more acknowledgements than invalidations")

    # -- fetch responses / evictions -----------------------------------

    def fetch_complete_read(self, e, src):
        self._finish_fetch(e, src)

    def fetch_complete_write(self, e, src):
        self._finish_fetch(e, src)

    def writeback_release(self, e, src):
        self.reset_to_absent(e)

    def writeback_completes_read(self, e, src):
        e.fetch_is_inv = True
        self._finish_fetch(e, src)

    def writeback_completes_write(self, e, src):
        e.fetch_is_inv = True
        self._finish_fetch(e, src)

    # -- CICO check-ins ------------------------------------------------

    def relinq_drop(self, e, src):
        self.drop_node(e, src)
        self._settle_relinquish(e)

    def relinq_checkin(self, e, src):
        e.untracked -= 1
        if e.untracked == 0 and self.spec.sw_broadcast:
            e.extended = False
        self._settle_relinquish(e)

    def relinq_stale(self, e, src):
        self._settle_relinquish(e)

    def _settle_relinquish(self, e):
        if not e.extended and not self.sharer_set(e) and e.idle:
            self.reset_to_absent(e)

    def reply_busy(self, e, src):
        self._send_busy(src)

    # -- shared helpers (mirror backends.py) ---------------------------

    def _observe_upgrade(self, e, requester):
        others = self.sharer_set(e) - {requester}
        migrationlike = not others or others == {e.last_writer}
        if migrationlike:
            if e.last_writer is not None and e.last_writer != requester:
                # Saturate at the threshold: nothing reads larger values
                # and the cap keeps the abstract state space finite.
                e.mig_evidence = min(e.mig_evidence + 1,
                                     MIGRATORY_THRESHOLD)
                e.mig_conflicts = 0
                if e.mig_evidence >= MIGRATORY_THRESHOLD:
                    e.migratory = True
        elif len(others) >= 2:
            e.mig_evidence = 0
            e.migratory = False

    def _hw_invalidate(self, e, requester, targets):
        for target in sorted(targets):
            self.w.send(self.home, target, msg.INV, TAG_WT)
        e.state = DirState.WRITE_TRANSACTION
        e.pending_requester = requester
        e.ack_count = len(targets)
        e.sw_write = False

    def _start_fetch(self, e, requester, owner, is_read):
        fetch_inv = not is_read
        if is_read and not self.spec.full_map:
            slots_needed = sum(
                1 for node in (owner, requester)
                if not (self.use_local_bit and node == self.home)
            )
            if slots_needed > self.capacity:
                fetch_inv = True
        e.state = (DirState.READ_TRANSACTION if is_read
                   else DirState.WRITE_TRANSACTION)
        e.pending_requester = requester
        e.pending_owner = owner
        e.pending_is_read = is_read
        e.fetch_is_inv = fetch_inv
        e.ack_count = 0
        e.sw_write = False
        kind = msg.FETCH_INV if fetch_inv else msg.FETCH_RD
        self.w.send(self.home, owner, kind)

    def _finish_fetch(self, e, owner):
        if e.pending_owner != owner:
            raise ModelViolation(
                "state-error",
                f"fetch response from {owner}, "
                f"expected {e.pending_owner}")
        requester = e.pending_requester
        if requester is None:
            raise ModelViolation(
                "state-error", "fetch completion lost its requester")
        if e.pending_is_read:
            e.pointers = []
            e.local_bit = False
            e.state = DirState.READ_ONLY
            e.pending_requester = None
            e.pending_owner = None
            if not e.fetch_is_inv:
                self.record_node(e, owner)
            self.record_node(e, requester)
            self._grant_rdata(requester)
        else:
            self.complete_write(e, requester)

    def complete_write(self, e, requester):
        e.last_writer = requester
        self.reset_to_exclusive(e, requester)
        e.pending_owner = None
        self._grant_wdata(requester)

    # -- software-handler completions (mirror handlers.py closures) ----

    def complete(self, tag: tuple) -> None:
        getattr(self, "_complete_" + tag[0])(*tag[1:])

    def _complete_read_overflow(self, requester):
        e = self.w.entry
        # take_all_pointers: the pointer array empties into the
        # extension record; the local bit stays in hardware.
        taken = frozenset(e.pointers)
        e.ext_sharers = ((e.ext_sharers or frozenset()) | taken)
        e.pointers = []
        self.record_node(e, requester)
        e.extended = True
        e.sw_pending = False
        self._grant_rdata(requester)

    def _complete_write_extended(self, writer, targets):
        e = self.w.entry
        e.ext_sharers = None
        e.ext_ack = 0
        e.pointers = []
        e.local_bit = False
        e.extended = False
        e.sw_pending = False
        if not targets:
            self.complete_write(e, writer)
            return
        self._arm_write(e, writer, set(targets))

    def _complete_write_broadcast(self, writer):
        e = self.w.entry
        targets = {node for node in range(self.cfg.n_nodes)
                   if node != writer}
        e.pointers = []
        e.local_bit = False
        e.extended = False
        e.sw_pending = False
        self._arm_write(e, writer, targets)

    def _arm_write(self, e, writer, targets):
        mode = self.cfg.invalidation_mode
        sequential = mode == "sequential" or (
            mode == "dynamic" and len(targets) <= SEQUENTIAL_THRESHOLD)
        e.state = DirState.WRITE_TRANSACTION
        e.pending_requester = writer
        e.sw_write = True
        if sequential and len(targets) > 1:
            ordered = sorted(targets)
            self.w.send(self.home, ordered[0], msg.INV, TAG_WT)
            e.seq_targets = ordered[1:]
            return
        for target in sorted(targets):
            self.w.send(self.home, target, msg.INV, TAG_WT)
        if self.spec.ack_mode is AckMode.SOFTWARE:
            e.ext_sharers = e.ext_sharers or frozenset()
            e.ext_ack = len(targets)
            e.ack_count = 0
        else:
            e.ack_count = len(targets)

    def _complete_ack_sw_last(self):
        e = self.w.entry
        e.ext_sharers = None
        e.ext_ack = 0
        writer = e.pending_requester
        if writer is None:
            raise ModelViolation(
                "state-error", "ack completion lost requester")
        self.complete_write(e, writer)

    def _complete_ack_seq_next(self, target):
        self.w.send(self.home, target, msg.INV, TAG_WT)

    def _complete_ack_seq_finish(self, writer):
        self.complete_write(self.w.entry, writer)

    def _complete_ack_last(self, writer):
        self.complete_write(self.w.entry, writer)

    # -- well-formedness -----------------------------------------------

    def check_entry(self) -> None:
        e = self.w.entry
        if e is None:
            return
        if len(set(e.pointers)) != len(e.pointers):
            raise ModelViolation("wellformed", "duplicate hardware pointers")
        if not self.spec.full_map and len(e.pointers) > self.capacity:
            raise ModelViolation(
                "wellformed",
                f"{len(e.pointers)} pointers exceed capacity "
                f"{self.capacity}")
        if e.local_bit and not self.use_local_bit:
            raise ModelViolation("wellformed", "local bit set but unused")
        if e.ack_count < 0 or e.ext_ack < 0 or e.untracked < 0:
            raise ModelViolation(
                "wellformed",
                f"negative counter (ack={e.ack_count}, "
                f"ext={e.ext_ack}, untracked={e.untracked})")
        if e.state.transient and e.pending_requester is None:
            raise ModelViolation(
                "wellformed", "transient entry with no pending requester")
        if e.state is DirState.READ_WRITE:
            if len(self.sharer_set(e)) != 1:
                raise ModelViolation(
                    "wellformed",
                    f"READ_WRITE entry tracks "
                    f"{len(self.sharer_set(e))} nodes")
            if e.extended or e.untracked:
                raise ModelViolation(
                    "wellformed", "READ_WRITE entry still extended")
        if e.state is DirState.ABSENT:
            if (e.pointers or e.local_bit or e.extended or e.untracked
                    or e.ext_sharers is not None):
                raise ModelViolation(
                    "wellformed",
                    "ABSENT entry still tracks sharers (pointers="
                    f"{e.pointers}, extended={e.extended}, "
                    f"ext={e.ext_sharers})")
        if e.seq_targets is not None and not (
                e.state is DirState.WRITE_TRANSACTION and e.sw_write):
            raise ModelViolation(
                "wellformed", "sequential chain outside a software write")
        if e.ext_ack > 0 and not (
                e.state is DirState.WRITE_TRANSACTION and e.sw_write):
            raise ModelViolation(
                "wellformed", "software ack count outside a software write")

    # -- quiescence sweep ----------------------------------------------

    def sweep(self) -> List[Tuple[str, str]]:
        findings = []
        w = self.w
        e = w.entry
        readable = [n for n in range(self.cfg.n_nodes) if w.readable(n)]
        writable = [n for n in range(self.cfg.n_nodes) if w.writable(n)]
        if e is None or e.state is DirState.ABSENT:
            if readable:
                findings.append((
                    "safety",
                    f"quiescent: nodes {readable} hold copies but the "
                    f"directory is empty"))
            return findings
        if e.ack_count or e.ext_ack or e.seq_targets is not None:
            findings.append((
                "safety",
                "quiescent: acknowledgement bookkeeping left armed"))
        if e.state is DirState.READ_ONLY:
            if writable:
                findings.append((
                    "safety",
                    f"quiescent: nodes {writable} hold dirty copies "
                    f"under a read-only directory"))
            if e.untracked == 0:
                tracked = self.sharer_set(e) | (e.ext_sharers or frozenset())
                lost = [n for n in readable if n not in tracked]
                if lost:
                    findings.append((
                        "safety",
                        f"quiescent: nodes {lost} hold untracked copies"))
        elif e.state is DirState.READ_WRITE:
            owner = self.owner_of(e)
            stale = [n for n in readable if n != owner]
            if stale:
                findings.append((
                    "safety",
                    f"quiescent: nodes {stale} hold copies alongside "
                    f"exclusive owner {owner} (lost invalidation)"))
            if not w.writable(owner):
                findings.append((
                    "safety",
                    f"quiescent: directory says node {owner} owns the "
                    f"block but its cache does not agree"))
        return findings


class AbstractSoftwareOnlyHome:
    """Mirror of ``SoftwareOnlyBackend``.

    Directory mutations happen atomically at delivery (as in the real
    backend); only the outgoing messages ride behind the FIFO handler
    queue (``_defer_sends``).  Handlers that send nothing are not
    queued — their completions are no-ops, so skipping them only prunes
    duplicate interleavings.
    """

    TABLE = SOFTWARE_ONLY_TABLE

    def __init__(self, world: World) -> None:
        self.w = world
        self.cfg = world.cfg
        self.spec = world.cfg.spec
        self.home = world.cfg.home

    def ensure_entry(self) -> SwEntry:
        if self.w.entry is None:
            self.w.entry = SwEntry()
        return self.w.entry

    def _defer_sends(self, sends) -> None:
        if sends:
            self.w.handlers.append(("sends", tuple(sends)))

    def _note_remote(self, e, src) -> None:
        if src != self.home:
            e.remote_bit = True

    # -- guards --------------------------------------------------------

    def local_private(self, e, src):
        return src == self.home and not e.remote_bit

    def from_owner(self, e, src):
        return e.owner == src

    def no_other_sharers(self, e, src):
        targets = set(e.sharers)
        targets.discard(src)
        return not targets

    def acks_remaining(self, e, src):
        return e.sw_ack_count > 1

    def final_ack(self, e, src):
        return e.sw_ack_count == 1

    def flush_pending(self, e, src):
        return e is not None and e.flush_acks > 0

    def private_writeback(self, e, src):
        return e.owner == src and src == self.home and not e.remote_bit

    # -- request actions -----------------------------------------------

    def local_miss_busy(self, e, src):
        self.w.send(self.home, self.home, msg.BUSY)

    def local_read_grant(self, e, src):
        e.state = DirState.READ_ONLY
        e.sharers.add(self.home)
        self._grant_rdata_now(self.home)

    def local_write_grant(self, e, src):
        e.state = DirState.READ_WRITE
        e.owner = self.home
        e.sharers = {self.home}
        self._grant_wdata_now(self.home)

    def busy_trap(self, e, src):
        self._defer_sends([(msg.BUSY, None, src)])

    def owner_busy_trap(self, e, src):
        self._note_remote(e, src)
        self._defer_sends([(msg.BUSY, None, src)])

    def read_fetch(self, e, src):
        self._note_remote(e, src)
        owner = e.owner
        if owner is None:
            raise ModelViolation("state-error", "read fetch with no owner")
        self._start_fetch(e, src, owner, is_read=True)

    def write_fetch(self, e, src):
        self._note_remote(e, src)
        owner = e.owner
        if owner is None:
            raise ModelViolation("state-error", "write fetch with no owner")
        self._start_fetch(e, src, owner, is_read=False)

    def read_grant(self, e, src):
        self._note_remote(e, src)
        sends = []
        if src != self.home and self.home in e.sharers:
            # Flush the home's own copy (Section 2.3).
            sends.append((msg.INV, TAG_FLUSH, self.home))
            e.flush_acks += 1
            e.sharers.discard(self.home)
        e.state = DirState.READ_ONLY
        e.sharers.add(src)
        sends.append((msg.RDATA, None, src))
        self._defer_sends(sends)

    def write_grant(self, e, src):
        self._note_remote(e, src)
        e.state = DirState.READ_WRITE
        e.owner = src
        e.sharers = {src}
        self._defer_sends([(msg.WDATA, None, src)])

    def write_invalidate(self, e, src):
        self._note_remote(e, src)
        targets = set(e.sharers)
        targets.discard(src)
        # A pending home-copy flush is absorbed into the transaction:
        # its INV is already in flight, and counting its ACK here keeps
        # the grant behind *every* outstanding invalidation.
        absorbed = e.flush_acks
        e.flush_acks = 0
        e.state = DirState.WRITE_TRANSACTION
        e.pending_requester = src
        e.sw_ack_count = len(targets) + absorbed
        e.sharers = set()
        self._defer_sends(
            [(msg.INV, TAG_WT, target) for target in sorted(targets)])

    def _start_fetch(self, e, requester, owner, is_read):
        e.state = (DirState.READ_TRANSACTION if is_read
                   else DirState.WRITE_TRANSACTION)
        e.pending_requester = requester
        e.owner = owner
        e.sw_ack_count = 0
        self._defer_sends([(msg.FETCH_INV, None, owner)])

    # -- response actions ----------------------------------------------

    def ack_countdown(self, e, src):
        e.sw_ack_count -= 1

    def ack_complete(self, e, src):
        e.sw_ack_count -= 1
        requester = e.pending_requester
        if requester is None:
            raise ModelViolation(
                "state-error", "no pending requester at final ack")
        e.state = DirState.READ_WRITE
        e.owner = requester
        e.sharers = {requester}
        e.pending_requester = None
        self._defer_sends([(msg.WDATA, None, requester)])

    def flush_ack(self, e, src):
        if e is None or e.flush_acks <= 0:
            raise ModelViolation(
                "state-error", "flush ack with no flush outstanding")
        e.flush_acks -= 1

    def fetch_complete_read(self, e, src):
        requester = e.pending_requester
        if requester is None:
            raise ModelViolation(
                "state-error", "fetch completion lost its requester")
        e.state = DirState.READ_ONLY
        e.owner = None
        e.sharers = {requester}
        e.pending_requester = None
        self._defer_sends([(msg.RDATA, None, requester)])

    def fetch_complete_write(self, e, src):
        requester = e.pending_requester
        if requester is None:
            raise ModelViolation(
                "state-error", "fetch completion lost its requester")
        e.state = DirState.READ_WRITE
        e.owner = requester
        e.sharers = {requester}
        e.pending_requester = None
        self._defer_sends([(msg.WDATA, None, requester)])

    def writeback_private(self, e, src):
        e.state = DirState.ABSENT
        e.owner = None
        e.sharers = set()

    def writeback_trap(self, e, src):
        e.state = DirState.ABSENT
        e.owner = None
        e.sharers = set()

    def relinq_shared(self, e, src):
        e.sharers.discard(src)
        if not e.sharers:
            e.state = DirState.ABSENT

    def relinq_ack(self, e, src):
        pass

    # -- deferred-send completion with grant checks --------------------

    def complete(self, tag: tuple) -> None:
        assert tag[0] == "sends"
        for kind, mtag, dst in tag[1]:
            if kind == msg.RDATA:
                self._grant_rdata_now(dst)
            elif kind == msg.WDATA:
                self._grant_wdata_now(dst)
            else:
                self.w.send(self.home, dst, kind, mtag)

    def _grant_rdata_now(self, dst):
        for n in range(self.cfg.n_nodes):
            if n != dst and self.w.writable(n):
                raise ModelViolation(
                    "safety",
                    f"RDATA granted to node {dst} while node {n} "
                    f"holds a dirty copy")
        self.w.send(self.home, dst, msg.RDATA)

    def _grant_wdata_now(self, dst):
        for n in range(self.cfg.n_nodes):
            if n == dst or not self.w.readable(n):
                continue
            if self.w.in_flight_to(n, msg.INV, TAG_FLUSH):
                continue  # home-copy flush overlap (Section 2.3 design)
            raise ModelViolation(
                "safety",
                f"WDATA granted to node {dst} while node {n} still "
                f"holds a readable copy (lost invalidation)")
        self.w.send(self.home, dst, msg.WDATA)

    # -- well-formedness -----------------------------------------------

    def check_entry(self) -> None:
        e = self.w.entry
        if e is None:
            return
        if e.sw_ack_count < 0 or e.flush_acks < 0:
            raise ModelViolation(
                "wellformed",
                f"negative counter (acks={e.sw_ack_count}, "
                f"flushes={e.flush_acks})")
        if e.state.transient and e.pending_requester is None:
            raise ModelViolation(
                "wellformed", "transient entry with no pending requester")
        if e.state is DirState.READ_WRITE:
            if e.owner is None or e.sharers != {e.owner}:
                raise ModelViolation(
                    "wellformed",
                    f"READ_WRITE entry with owner {e.owner} and "
                    f"sharers {sorted(e.sharers)}")
        if e.state is DirState.READ_ONLY and not e.sharers:
            raise ModelViolation(
                "wellformed", "READ_ONLY entry with no sharers")
        if e.state in (DirState.READ_ONLY, DirState.ABSENT) \
                and e.owner is not None:
            raise ModelViolation(
                "wellformed", f"stale owner {e.owner} in {e.state.value}")
        if e.state is DirState.ABSENT and e.sharers:
            raise ModelViolation(
                "wellformed",
                f"ABSENT entry with sharers {sorted(e.sharers)}")

    # -- quiescence sweep ----------------------------------------------

    def sweep(self) -> List[Tuple[str, str]]:
        findings = []
        w = self.w
        e = w.entry
        readable = [n for n in range(self.cfg.n_nodes) if w.readable(n)]
        writable = [n for n in range(self.cfg.n_nodes) if w.writable(n)]
        if e is not None and (e.flush_acks or e.sw_ack_count):
            findings.append((
                "safety",
                "quiescent: acknowledgement bookkeeping left armed"))
        if e is None or e.state is DirState.ABSENT:
            if readable:
                findings.append((
                    "safety",
                    f"quiescent: nodes {readable} hold copies but the "
                    f"directory is empty"))
            return findings
        if e.state is DirState.READ_ONLY:
            if writable:
                findings.append((
                    "safety",
                    f"quiescent: nodes {writable} hold dirty copies "
                    f"under a read-only directory"))
            lost = [n for n in readable if n not in e.sharers]
            if lost:
                findings.append((
                    "safety",
                    f"quiescent: nodes {lost} hold untracked copies"))
        elif e.state is DirState.READ_WRITE:
            stale = [n for n in readable if n != e.owner]
            if stale:
                findings.append((
                    "safety",
                    f"quiescent: nodes {stale} hold copies alongside "
                    f"exclusive owner {e.owner} (lost invalidation)"))
            if e.owner is not None and not w.writable(e.owner):
                findings.append((
                    "safety",
                    f"quiescent: directory says node {e.owner} owns "
                    f"the block but its cache does not agree"))
        return findings


def home_class_for(cfg: ModelConfig):
    """The abstract home class matching ``cfg``'s protocol spec."""
    return (AbstractSoftwareOnlyHome if cfg.spec.is_software_only
            else AbstractHardwareHome)


# ----------------------------------------------------------------------
# Table interpreter (mirrors HomeProtocolEngine's per-event plan)
# ----------------------------------------------------------------------


class CompiledTable:
    """Per-event/per-state dispatch, built exactly as the engine
    builds its plan: wildcard rows merged in table order, ``when_missing``
    holding the wildcard rows for get-policy lookups that find no
    entry, first matching guard wins."""

    def __init__(self, table: ProtocolTable) -> None:
        self.table = table
        self.dispatch: Dict[str, tuple] = {}
        indexed = list(enumerate(table.transitions))
        for event, policy in table.policies.items():
            rows = [(i, row) for i, row in indexed if row.event == event]
            by_state = {}
            for state in DirState:
                by_state[state] = [
                    (i, row) for i, row in rows
                    if row.states is None or state in row.states
                ]
            when_missing = [(i, row) for i, row in rows
                            if row.states is None]
            self.dispatch[event] = (
                policy.lookup == "create",
                policy.fallback == "error",
                by_state,
                when_missing,
            )

    def deliver(self, home, world: World, kind: str, src: int) -> None:
        plan = self.dispatch.get(kind)
        if plan is None:
            raise ModelViolation("state-error", f"home received {kind}")
        create, strict, by_state, when_missing = plan
        if create:
            entry = home.ensure_entry()
        else:
            entry = world.entry
        if entry is None:
            before = None
            rows = when_missing
        else:
            before = entry.state
            rows = by_state[before]
        for index, row in rows:
            if row.guard is None or getattr(home, row.guard)(entry, src):
                getattr(home, row.action)(entry, src)
                world.fired.append(index)
                self._check_claim(row, before, world)
                return
        if strict:
            raise ModelViolation(
                "totality",
                f"no transition for {kind} from node {src} in state "
                f"{'<no entry>' if before is None else before.value}")

    @staticmethod
    def _check_claim(row, before, world: World) -> None:
        from repro.core.protocol.table import allowed_after

        claim = allowed_after(row.next_state)
        if claim is None:
            return
        after = None if world.entry is None else world.entry.state
        if claim == "same":
            if after is not before:
                raise ModelViolation(
                    "claim",
                    f"row {row.event}/{row.action} claims 'same' but "
                    f"moved {getattr(before, 'value', None)} -> "
                    f"{getattr(after, 'value', None)}")
        elif after not in claim:
            raise ModelViolation(
                "claim",
                f"row {row.event}/{row.action} claims "
                f"{row.next_state!r} but landed in "
                f"{getattr(after, 'value', None)}")


# ----------------------------------------------------------------------
# Cache-side delivery and environment steps
# ----------------------------------------------------------------------

#: Message kinds the home directory consumes (vs. the caches).
HOME_EVENTS = frozenset({
    msg.RREQ, msg.WREQ, msg.ACK, msg.FETCH_DATA, msg.EVICT_WB, msg.RELINQ,
})


def deliver_cache(world: World, kind: str, tag, src: int,
                  dst: int) -> None:
    """Mirror of ``CacheController.handle`` for the abstract caches."""
    cfg = world.cfg
    cache = world.caches[dst]
    out = world.outstanding[dst]
    if kind == msg.RDATA:
        # A stale read grant cannot satisfy a write miss; with no
        # outstanding miss the grant is stale and ignored.
        if out == O_READ:
            world.caches[dst] = C_RO
            world.outstanding[dst] = O_NONE
    elif kind == msg.WDATA:
        # A read miss accepts an exclusive grant too (migratory data).
        if out in (O_READ, O_WRITE):
            world.caches[dst] = C_RW
            world.outstanding[dst] = O_NONE
    elif kind == msg.BUSY:
        if out != O_NONE:
            req = msg.WREQ if out == O_WRITE else msg.RREQ
            world.send(dst, cfg.home, req)
    elif kind == msg.INV:
        if cache == C_RW:
            raise ModelViolation(
                "safety",
                f"node {dst} received INV for a dirty copy")
        world.caches[dst] = C_INV
        world.send(dst, cfg.home, msg.ACK, tag)
    elif kind in (msg.FETCH_RD, msg.FETCH_INV):
        if cache == C_RW:
            world.caches[dst] = (C_INV if kind == msg.FETCH_INV
                                 else C_RO)
            world.send(dst, cfg.home, msg.FETCH_DATA)
        elif cache == C_INV:
            pass  # our write-back is in flight; home treats it as the reply
        else:
            raise ModelViolation(
                "safety",
                f"node {dst}: fetch found a read-only copy")
    else:
        raise ModelViolation("state-error", f"cache received {kind}")


def initial_state(cfg: ModelConfig) -> tuple:
    """The all-idle starting state."""
    return World(cfg).freeze()


def successors(cfg: ModelConfig, frozen: tuple, program: CompiledTable,
               home_cls) -> List[tuple]:
    """All enabled steps from ``frozen``.

    Returns ``(label, step_kind, outcome)`` triples where ``step_kind``
    is ``"internal"`` (delivery / handler completion) or ``"env"``
    (cache issues a request, evicts, or checks in), and ``outcome`` is
    ``("state", next_frozen, fired_rows)`` or ``("violation",
    ModelViolation, fired_rows)``.
    """
    out = []

    def run(label, step_kind, fn):
        world = World.thaw(cfg, frozen)
        home = home_cls(world)
        try:
            fn(world, home)
            home.check_entry()
        except ModelViolation as violation:
            out.append((label, step_kind,
                        ("violation", violation, tuple(world.fired))))
            return
        out.append((label, step_kind,
                    ("state", world.freeze(), tuple(world.fired))))

    entry_f, caches, outstanding, budgets, chans, handlers = frozen

    if handlers:
        tag = handlers[0]
        def complete(world, home):
            world.handlers.pop(0)
            home.complete(tag)
        run(f"complete {tag[0]}", "internal", complete)

    for (src, dst), queue in chans:
        kind, mtag = queue[0]
        def deliver(world, home, src=src, dst=dst, kind=kind, mtag=mtag):
            world.channels[(src, dst)].pop(0)
            if kind in HOME_EVENTS:
                program.deliver(home, world, kind, src)
            else:
                deliver_cache(world, kind, mtag, src, dst)
        run(f"deliver {kind} {src}->{dst}", "internal", deliver)

    for node in range(cfg.n_nodes):
        if outstanding[node] != O_NONE:
            continue
        cache = caches[node]
        if cache == C_INV:
            def issue_read(world, home, node=node):
                world.outstanding[node] = O_READ
                world.send(node, cfg.home, msg.RREQ)
            run(f"node {node} issues read", "env", issue_read)
        if cache in (C_INV, C_RO):
            def issue_write(world, home, node=node):
                world.outstanding[node] = O_WRITE
                world.send(node, cfg.home, msg.WREQ)
            run(f"node {node} issues write", "env", issue_write)
        if cache == C_RW:
            def evict(world, home, node=node):
                world.caches[node] = C_INV
                world.send(node, cfg.home, msg.EVICT_WB)
            run(f"node {node} evicts dirty copy", "env", evict)
        if cache == C_RO:
            def checkin(world, home, node=node):
                world.caches[node] = C_INV
                world.send(node, cfg.home, msg.RELINQ)
            run(f"node {node} checks in clean copy", "env", checkin)
            if budgets[node] > 0:
                def drop(world, home, node=node):
                    world.caches[node] = C_INV
                    world.budgets[node] -= 1
                run(f"node {node} silently drops clean copy", "env", drop)

    return out


def obligations(cfg: ModelConfig, frozen: tuple) -> bool:
    """Unfinished protocol work that internal steps must resolve."""
    world = World.thaw(cfg, frozen)
    if any(o != O_NONE for o in world.outstanding):
        return True
    e = world.entry
    if e is None:
        return False
    if cfg.spec.is_software_only:
        return (e.state.transient or e.flush_acks > 0
                or e.sw_ack_count > 0)
    return (e.state.transient or e.sw_pending or e.ack_count > 0
            or e.ext_ack > 0 or e.seq_targets is not None)


def quiescent_findings(cfg: ModelConfig, frozen: tuple,
                       home_cls) -> List[Tuple[str, str]]:
    """Coherence sweep over a quiescent state (empty network/handlers,
    no outstanding misses, no obligations)."""
    world = World.thaw(cfg, frozen)
    return home_cls(world).sweep()
