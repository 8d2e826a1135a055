"""Processor cache: direct-mapped combined I/D cache plus victim cache.

Alewife's cache is a 64 Kbyte direct-mapped combined instruction/data
cache (Section 3.1).  Because it is direct-mapped and combined, hot data
can conflict with hot code — the instruction/data thrashing the TSP case
study exposes (Section 6).  Alewife's remedy is a small victim cache
(Jouppi) built from the transaction store; lines evicted from the main
array drop into a small fully-associative FIFO buffer and can be swapped
back on a subsequent miss.

The cache stores only coherence state per block (the simulator does not
track data values); hits/misses and evictions are what drive the protocol.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.common.types import CacheState


@dataclasses.dataclass
class Eviction:
    """A block that left the cache system entirely."""

    block: int
    state: CacheState

    @property
    def dirty(self) -> bool:
        return self.state is CacheState.READ_WRITE


class VictimCache:
    """Small fully-associative FIFO buffer of evicted lines."""

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self._lines: "OrderedDict[int, CacheState]" = OrderedDict()
        self.hits = 0

    def __contains__(self, block: int) -> bool:
        return block in self._lines

    def __len__(self) -> int:
        return len(self._lines)

    def insert(self, block: int, state: CacheState) -> Optional[Eviction]:
        """Add a line; returns the line pushed out, if any."""
        evicted: Optional[Eviction] = None
        if self.entries == 0:
            return Eviction(block, state)
        if len(self._lines) >= self.entries and block not in self._lines:
            old_block, old_state = self._lines.popitem(last=False)
            evicted = Eviction(old_block, old_state)
        self._lines[block] = state
        return evicted

    def extract(self, block: int) -> Optional[CacheState]:
        """Remove and return the state of ``block`` if present."""
        return self._lines.pop(block, None)

    def state_of(self, block: int) -> Optional[CacheState]:
        return self._lines.get(block)

    def set_state(self, block: int, state: CacheState) -> None:
        if block not in self._lines:
            raise KeyError(block)
        self._lines[block] = state

    def blocks(self) -> List[int]:
        return list(self._lines)


class DirectMappedCache:
    """Direct-mapped cache with an optional victim cache behind it."""

    def __init__(self, n_sets: int, victim_entries: int = 0) -> None:
        if n_sets & (n_sets - 1) or n_sets <= 0:
            raise ValueError("n_sets must be a positive power of two")
        self.n_sets = n_sets
        self._mask = n_sets - 1
        # set index -> (block, state)
        self._sets: Dict[int, Tuple[int, CacheState]] = {}
        self.victim = VictimCache(victim_entries) if victim_entries else None

    # ------------------------------------------------------------------
    # Lookup / fill
    # ------------------------------------------------------------------

    def probe(self, block: int) -> CacheState:
        """State of ``block`` without side effects (victim included)."""
        entry = self._sets.get(block & self._mask)
        if entry is not None and entry[0] == block:
            return entry[1]
        if self.victim is not None:
            state = self.victim.state_of(block)
            if state is not None:
                return state
        return CacheState.INVALID

    def lookup(self, block: int) -> Tuple[CacheState, bool]:
        """Access ``block``; returns ``(state, from_victim)``.

        A victim-cache hit swaps the line back into the main array,
        pushing the conflicting occupant into the victim buffer (the
        swap is what makes a victim cache effective against ping-pong
        conflicts).
        """
        idx = block & self._mask
        entry = self._sets.get(idx)
        if entry is not None and entry[0] == block:
            return entry[1], False
        if self.victim is not None:
            state = self.victim.extract(block)
            if state is not None:
                self.victim.hits += 1
                if entry is not None:
                    # Swap: displaced main-array line drops into the victim
                    # buffer.  The victim just freed a slot, so this cannot
                    # push anything out.
                    self.victim.insert(entry[0], entry[1])
                self._sets[idx] = (block, state)
                return state, True
        return CacheState.INVALID, False

    def fill(self, block: int, state: CacheState) -> List[Eviction]:
        """Install ``block`` with ``state``; returns lines evicted
        entirely out of the cache system (candidates for write-back)."""
        idx = block & self._mask
        evictions: List[Eviction] = []
        if self.victim is not None and block in self.victim:
            # The line is being re-filled (e.g. upgraded); drop the stale
            # victim copy *before* pushing the displaced occupant, or a
            # full victim buffer would report a spurious eviction of the
            # very block being installed.
            self.victim.extract(block)
        entry = self._sets.get(idx)
        if entry is not None and entry[0] != block:
            old_block, old_state = entry
            if self.victim is not None:
                pushed = self.victim.insert(old_block, old_state)
                if pushed is not None:
                    evictions.append(pushed)
            else:
                evictions.append(Eviction(old_block, old_state))
        self._sets[idx] = (block, state)
        return evictions

    # ------------------------------------------------------------------
    # Coherence actions from the protocol
    # ------------------------------------------------------------------

    def invalidate(self, block: int) -> CacheState:
        """Drop ``block``; returns its prior state."""
        idx = block & self._mask
        entry = self._sets.get(idx)
        if entry is not None and entry[0] == block:
            del self._sets[idx]
            return entry[1]
        if self.victim is not None:
            state = self.victim.extract(block)
            if state is not None:
                return state
        return CacheState.INVALID

    def downgrade(self, block: int) -> CacheState:
        """Demote ``block`` to READ_ONLY; returns its prior state."""
        idx = block & self._mask
        entry = self._sets.get(idx)
        if entry is not None and entry[0] == block:
            self._sets[idx] = (block, CacheState.READ_ONLY)
            return entry[1]
        if self.victim is not None:
            state = self.victim.state_of(block)
            if state is not None:
                self.victim.set_state(block, CacheState.READ_ONLY)
                return state
        return CacheState.INVALID

    def resident_blocks(self) -> List[int]:
        """All blocks currently cached (main array + victim)."""
        blocks = [blk for blk, _state in self._sets.values()]
        if self.victim is not None:
            blocks.extend(self.victim.blocks())
        return blocks
