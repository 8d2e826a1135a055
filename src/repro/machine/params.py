"""Machine configuration parameters.

The defaults describe an Alewife node as built (Section 3.1 of the paper):
a 33 MHz Sparcle processor, 64 Kbyte direct-mapped combined
instruction/data cache with 16-byte lines, 4 Mbytes of globally shared
memory per node, and a 2-D mesh interconnect.  Contention is modelled at
the network transmit/receive queues only, matching the stated fidelity of
NWO, the simulator the paper's results come from.
"""

from __future__ import annotations

import dataclasses
import functools
import math

from repro.common.errors import ConfigurationError

#: Bytes per 32-bit word.  Addresses throughout the simulator count words.
WORD_BYTES = 4


@dataclasses.dataclass(frozen=True)
class MachineParams:
    """Immutable description of the simulated machine.

    Parameters
    ----------
    n_nodes:
        Number of processing nodes; must be a square (2-D mesh) or 1.
    cache_bytes / block_bytes:
        Geometry of the direct-mapped combined I/D cache.
    victim_cache_entries / victim_cache_enabled:
        Jouppi-style victim cache used by Alewife to add associativity
        (Section 6, TSP case study).
    perfect_ifetch:
        Simulator option granting one-cycle instruction access without
        using the cache (used for Figure 3).
    mem_latency:
        Cycles for a DRAM block access at the home node.
    cache_hit_latency:
        Cycles for a load/store that hits in the cache.
    hop_latency:
        Cycles per mesh hop (switch transit; no switch-internal
        contention is modelled).
    header_flits / data_flits:
        Message sizes in flits; the transmit and receive queues serialise
        one flit per cycle, which is where contention appears.
    trap_dispatch_overhead:
        Cycles for Sparcle to flush its pipeline and reach the first trap
        instruction (the paper notes 3 cycles, excluded from Table 2).
    retry_backoff_base / retry_backoff_step:
        Deterministic backoff, in cycles, before a requester retries
        after receiving a BUSY reply.
    watchdog_threshold / watchdog_window:
        Livelock watchdog (Section 4.1): if user code makes no progress
        for ``watchdog_threshold`` cycles of handler activity, asynchronous
        protocol traps are deferred for ``watchdog_window`` cycles.
    local_mem_words:
        Words of globally-shared memory owned by each node (4 MB default).
    """

    n_nodes: int = 16
    cache_bytes: int = 64 * 1024
    block_bytes: int = 16
    victim_cache_entries: int = 6
    victim_cache_enabled: bool = False
    perfect_ifetch: bool = False
    mem_latency: int = 10
    cache_hit_latency: int = 1
    hop_latency: int = 1
    header_flits: int = 3
    data_flits: int = 8
    trap_dispatch_overhead: int = 3
    retry_backoff_base: int = 12
    retry_backoff_step: int = 6
    watchdog_threshold: int = 4000
    watchdog_window: int = 500
    local_mem_words: int = (4 * 1024 * 1024) // WORD_BYTES
    code_region_blocks: int = 512

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError("n_nodes must be >= 1")
        side = int(math.isqrt(self.n_nodes))
        if side * side != self.n_nodes:
            raise ConfigurationError(
                f"n_nodes must be a perfect square for a 2-D mesh, "
                f"got {self.n_nodes}"
            )
        if self.block_bytes % WORD_BYTES:
            raise ConfigurationError("block_bytes must be a multiple of 4")
        if self.cache_bytes % self.block_bytes:
            raise ConfigurationError(
                "cache_bytes must be a multiple of block_bytes"
            )
        n_sets = self.cache_bytes // self.block_bytes
        if n_sets & (n_sets - 1):
            raise ConfigurationError("cache line count must be a power of 2")
        block_words = self.block_bytes // WORD_BYTES
        if block_words & (block_words - 1):
            raise ConfigurationError("block size in words must be a power of 2")
        local_blocks = self.local_mem_words // block_words
        if local_blocks & (local_blocks - 1):
            raise ConfigurationError(
                "local memory must hold a power-of-two number of blocks"
            )
        if self.code_region_blocks < 0 or self.code_region_blocks >= local_blocks:
            raise ConfigurationError("code region must fit in local memory")

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    # Computed once per instance: misses, fills and home lookups read
    # these thousands of times per run.  ``cached_property`` stores into
    # the instance ``__dict__`` (allowed on a frozen dataclass), so the
    # cache is invisible to ``fields()``, ``asdict()``, equality and
    # hashing — job and cache keys are unchanged.

    @functools.cached_property
    def mesh_side(self) -> int:
        """Width (= height) of the square mesh."""
        return int(math.isqrt(self.n_nodes))

    @functools.cached_property
    def block_words(self) -> int:
        """Words per cache/memory block."""
        return self.block_bytes // WORD_BYTES

    @functools.cached_property
    def block_shift(self) -> int:
        """log2(words per block); ``addr >> block_shift`` is the block id."""
        return self.block_words.bit_length() - 1

    @functools.cached_property
    def cache_sets(self) -> int:
        """Number of lines in the direct-mapped cache."""
        return self.cache_bytes // self.block_bytes

    @functools.cached_property
    def local_mem_blocks(self) -> int:
        """Blocks of shared memory owned by each node."""
        return self.local_mem_words // self.block_words

    def home_of_block(self, block: int) -> int:
        """Home node of a memory block (segmented address space)."""
        return block // self.local_mem_blocks

    def home_of_addr(self, addr: int) -> int:
        """Home node of a word address."""
        return addr // self.local_mem_words

    def node_base_addr(self, node: int) -> int:
        """First word address of ``node``'s local memory segment."""
        return node * self.local_mem_words

    def cache_set_of_block(self, block: int) -> int:
        """Direct-mapped cache set index for a block id."""
        return block & (self.cache_sets - 1)

    def with_updates(self, **changes: object) -> "MachineParams":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)
