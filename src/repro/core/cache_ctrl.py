"""Cache-side (processor-side) protocol controller.

The controller sits between the processor and the network: it services
loads, stores and instruction fetches against the local cache, issues
read/write requests to home nodes on misses (one outstanding transaction,
matching Sparcle's blocking-load behaviour), retries after BUSY replies
with deterministic backoff, and answers coherence traffic (invalidations
and fetches) from home directories.

Instruction fetches to the node's private code region never involve the
directory: a miss is filled straight from local memory.  Code shares the
combined direct-mapped cache with data, which is exactly what makes the
instruction/data thrashing of the TSP case study (Section 6) possible.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Optional

from repro.common.errors import ProtocolStateError
from repro.common.types import AccessType, CacheState
from repro.cache.cache import DirectMappedCache, Eviction
from repro.core import messages as msg

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.node import Node
    from repro.network.fabric import Message

#: Extra cycles charged when a hit is satisfied by a victim-cache swap.
VICTIM_HIT_PENALTY = 2

READ_ONLY = CacheState.READ_ONLY
READ_WRITE = CacheState.READ_WRITE
WRITE = AccessType.WRITE


@dataclasses.dataclass
class Outstanding:
    """The single in-flight memory transaction of a blocking processor."""

    block: int
    access: AccessType
    done: Callable[[], None]
    retries: int = 0
    #: Transaction id for tracing; retries re-use it so the whole retry
    #: storm of one miss stays attributable to that miss.
    txn: Optional[int] = None


class CacheController:
    """Processor-side cache + protocol engine for one node."""

    def __init__(self, node: "Node") -> None:
        self.node = node
        params = node.machine.params
        victim = (params.victim_cache_entries
                  if params.victim_cache_enabled else 0)
        self.cache = DirectMappedCache(params.cache_sets, victim)
        self.block_shift = params.block_shift
        self._hit_latency = params.cache_hit_latency
        self.outstanding: Optional[Outstanding] = None
        self._ifetch_pending = False

    # ------------------------------------------------------------------
    # Processor interface
    # ------------------------------------------------------------------

    def try_hit(self, access: AccessType, block: int) -> Optional[int]:
        """Attempt a cache hit; returns the hit latency or None on miss.

        READ_WRITE satisfies every access; READ_ONLY satisfies any
        access but a write.
        """
        stats = self.node.stats
        state, from_victim = self.cache.lookup(block)
        if state is READ_WRITE or (state is READ_ONLY
                                   and access is not WRITE):
            stats.cache_hits += 1
            if from_victim:
                stats.victim_hits += 1
                return self._hit_latency + VICTIM_HIT_PENALTY
            return self._hit_latency
        stats.cache_misses += 1
        return None

    def start_miss(self, access: AccessType, block: int,
                   done: Callable[[], None],
                   txn: Optional[int] = None) -> None:
        """Begin a data miss; ``done`` fires when the line is filled."""
        if self.outstanding is not None:
            raise ProtocolStateError(
                f"node {self.node.id} already has an outstanding miss"
            )
        self.outstanding = Outstanding(block, access, done, txn=txn)
        self._send_request()

    def check_in(self, block: int) -> None:
        """CICO check-in (Section 2/7 annotations): relinquish any cached
        copy so the directory's pointer is freed.  Dirty copies write
        back; clean copies notify the home to drop the pointer."""
        state = self.cache.invalidate(block)
        home = self.node.machine.params.home_of_block(block)
        if state is CacheState.READ_WRITE:
            self.node.stats.dirty_evictions += 1
            self.node.send_protocol(msg.EVICT_WB, home, block)
        elif state is CacheState.READ_ONLY:
            self.node.send_protocol(msg.RELINQ, home, block)

    def start_ifetch_miss(self, block: int, done: Callable[[], None]) -> None:
        """Fill an instruction line from local memory (no coherence)."""
        if self._ifetch_pending:
            raise ProtocolStateError("overlapping instruction fetches")
        self._ifetch_pending = True

        def fill() -> None:
            self._ifetch_pending = False
            self._fill(block, CacheState.READ_ONLY)
            done()

        self.node.machine.sim.after(self.node.machine.params.mem_latency,
                                    fill)

    def _send_request(self) -> None:
        assert self.outstanding is not None
        out = self.outstanding
        kind = msg.WREQ if out.access is AccessType.WRITE else msg.RREQ
        home = self.node.machine.params.home_of_block(out.block)
        self.node.send_protocol(kind, home, out.block, txn=out.txn)

    # ------------------------------------------------------------------
    # Network interface
    # ------------------------------------------------------------------

    def handle(self, message: "Message") -> None:
        block = message.block
        kind = message.kind
        if kind == msg.RDATA:
            self._on_data(block, CacheState.READ_ONLY)
        elif kind == msg.WDATA:
            self._on_data(block, CacheState.READ_WRITE)
        elif kind == msg.BUSY:
            self._on_busy(block)
        elif kind == msg.INV:
            self._on_inv(message.src, block)
        elif kind == msg.FETCH_RD:
            self._on_fetch(message.src, block, invalidate=False)
        elif kind == msg.FETCH_INV:
            self._on_fetch(message.src, block, invalidate=True)
        else:
            raise ProtocolStateError(f"cache received {message.kind}")

    def _on_data(self, block: int, state: CacheState) -> None:
        out = self.outstanding
        if out is None or out.block != block:
            # A stale grant (e.g. the home answered both the original
            # request and a retry).  Filling could clobber newer state.
            return
        if (out.access is AccessType.WRITE
                and state is not CacheState.READ_WRITE):
            return  # a stale read grant cannot satisfy a write miss
        # A read miss accepts either grant: homes answer reads to
        # migratory blocks with exclusive data (Section 7).
        self.outstanding = None
        self._fill(block, state)
        out.done()

    def _fill(self, block: int, state: CacheState) -> None:
        for eviction in self.cache.fill(block, state):
            self._write_back(eviction)

    def _write_back(self, eviction: Eviction) -> None:
        self.node.stats.evictions += 1
        if not eviction.dirty:
            return  # clean lines are dropped silently (no notification)
        self.node.stats.dirty_evictions += 1
        home = self.node.machine.params.home_of_block(eviction.block)
        self.node.send_protocol(msg.EVICT_WB, home, eviction.block)

    def _on_busy(self, block: int) -> None:
        out = self.outstanding
        if out is None or out.block != block:
            return  # stale busy for a transaction that already completed
        out.retries += 1
        self.node.stats.retries += 1
        params = self.node.machine.params
        # Deterministic per-node jitter breaks the lockstep resonance of
        # many nodes retrying a contended home in phase.
        jitter = (self.node.id * 7 + out.retries * 3) % 17
        backoff = (params.retry_backoff_base
                   + params.retry_backoff_step * min(out.retries, 16)
                   + jitter)
        self.node.machine.sim.after(backoff, self._retry(out))

    def _retry(self, out: Outstanding) -> Callable[[], None]:
        def resend() -> None:
            if self.outstanding is out:
                self._send_request()
        return resend

    def _on_inv(self, home: int, block: int) -> None:
        state = self.cache.invalidate(block)
        if state is CacheState.READ_WRITE:
            raise ProtocolStateError(
                f"node {self.node.id} received INV for a dirty block {block}"
            )
        self.node.send_protocol(msg.ACK, home, block)

    def _on_fetch(self, home: int, block: int, invalidate: bool) -> None:
        if invalidate:
            state = self.cache.invalidate(block)
        else:
            state = self.cache.downgrade(block)
        if state is CacheState.READ_WRITE:
            self.node.send_protocol(msg.FETCH_DATA, home, block)
        elif state is CacheState.INVALID:
            # We evicted the dirty line; the write-back racing this fetch
            # is already in flight and the home will treat it as the
            # response.
            pass
        else:
            raise ProtocolStateError(
                f"node {self.node.id}: fetch for block {block} found "
                f"state {state}"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def state_of(self, block: int) -> CacheState:
        return self.cache.probe(block)
