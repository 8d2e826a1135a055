"""TSP: branch-and-bound traveling salesman (paper Section 6).

The application solves the traveling salesman problem with a
branch-and-bound graph search.  As in the paper, the best-path bound is
seeded with the optimal tour length so the amount of work is
deterministic and identical across protocol configurations.

Sharing pattern: most worker sets are small (per-node partial tours), but
two memory blocks — the seeded best bound and a global tour counter — are
read by *every* node.  The paper found exactly two such globally-shared
blocks "constantly replaced in the cache by commonly run instructions" in
Alewife's combined direct-mapped cache.  We model the commonly-run
instructions as the Mul-T runtime's code region, fetched once every
``runtime_period`` expansions; with ``thrash_layout=True`` (the default,
matching the paper's initial runs) it is laid out to conflict with the
two hot blocks, so every runtime invocation evicts them and the next
bound check misses all the way to node 0.  Victim caching (Alewife's fix)
or the *perfect ifetch* simulator option relieves the thrashing —
reproducing the three bar groups of Figure 3.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

from repro.common.errors import ConfigurationError
from repro.workloads.base import Op, Workload, det_rand

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.machine import Machine

#: processor work per tree-node expansion (bound arithmetic, future
#: touch/scheduling overhead of the Mul-T program)
EXPAND_CYCLES = 200

#: expansions between invocations of the "commonly run" runtime code
RUNTIME_PERIOD = 8


def tour_distances(n_cities: int, seed: int = 7) -> List[List[int]]:
    """Deterministic symmetric distance matrix with distances 10..99."""
    dist = [[0] * n_cities for _ in range(n_cities)]
    for i in range(n_cities):
        for j in range(i + 1, n_cities):
            d = 10 + det_rand(seed, i, j) % 90
            dist[i][j] = dist[j][i] = d
    return dist


def held_karp(dist: List[List[int]]) -> int:
    """Exact optimal tour length (dynamic programming over subsets)."""
    n = len(dist)
    if n < 2:
        return 0
    full = 1 << (n - 1)  # subsets of cities 1..n-1
    # best[mask][j]: shortest path 0 -> visits mask -> ends at city j+1
    best: List[Dict[int, int]] = [dict() for _ in range(full)]
    for j in range(n - 1):
        best[1 << j][j] = dist[0][j + 1]
    for mask in range(full):
        for j, cost in best[mask].items():
            rest = ~mask & (full - 1)
            sub = rest
            while sub:
                k = (sub & -sub).bit_length() - 1
                new_mask = mask | (1 << k)
                new_cost = cost + dist[j + 1][k + 1]
                cur = best[new_mask].get(k)
                if cur is None or new_cost < cur:
                    best[new_mask][k] = new_cost
                sub &= sub - 1
    final = full - 1
    return min(cost + dist[j + 1][0] for j, cost in best[final].items())


_OPTIMAL_CACHE: Dict[Tuple[int, int], int] = {}


def _optimal_tour_length(n_cities: int, seed: int) -> int:
    """Memoised optimal tour length (setup cost, not simulated)."""
    key = (n_cities, seed)
    if key not in _OPTIMAL_CACHE:
        _OPTIMAL_CACHE[key] = held_karp(tour_distances(n_cities, seed))
    return _OPTIMAL_CACHE[key]


class TSP(Workload):
    """Branch-and-bound TSP with a deterministic (seeded) bound."""

    name = "tsp"

    def __init__(self, n_cities: int = 12, prefix_depth: int = 4,
                 thrash_layout: bool = True, seed: int = 7,
                 runtime_period: int = RUNTIME_PERIOD) -> None:
        if n_cities < 4:
            raise ConfigurationError("TSP needs at least 4 cities")
        if not 1 <= prefix_depth < n_cities - 1:
            raise ConfigurationError("invalid prefix depth")
        if runtime_period < 1:
            raise ConfigurationError("runtime period must be >= 1")
        self.n_cities = n_cities
        self.prefix_depth = prefix_depth
        self.thrash_layout = thrash_layout
        self.seed = seed
        self.runtime_period = runtime_period
        self.dist = tour_distances(n_cities, seed)
        self.optimal = _optimal_tour_length(n_cities, seed)
        #: minimum outgoing edge per city, for the lower bound
        self._min_out = [
            min(d for j, d in enumerate(row) if j != i)
            for i, row in enumerate(self.dist)
        ]
        self.best_found: int = 0
        self.expansions: int = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def setup(self, machine: "Machine") -> None:
        n = self.n_cities
        heap = machine.heap
        self._code = machine.register_code("tsp-search", lines=2)
        self._runtime_code = machine.register_code("mult-runtime", lines=2)
        # The two hot globally-shared blocks.  With the thrash layout they
        # collide with the runtime's instruction lines in the
        # direct-mapped cache.
        colors = (self._runtime_code.cache_colors if self.thrash_layout
                  else (None, None))
        self.best_addr = heap.alloc_block(0, color=colors[0])
        self.count_addr = heap.alloc_block(0, color=colors[1])
        # Distance matrix: rows homed round-robin across the machine
        # (the runtime distributes read-only data), so the start-up
        # transient of shipping it everywhere does not serialise at one
        # home node.
        n_nodes = machine.params.n_nodes
        self.dist_rows = [heap.alloc(i % n_nodes, n) for i in range(n)]
        # Per-node result slots (read by node 0 during the reduction).
        self.result_addrs = [
            heap.alloc_block(node) for node in range(machine.params.n_nodes)
        ]
        # Private scratch (partial tours) in each node's local memory.
        self._scratch = [
            heap.alloc(node, machine.params.block_words * 4)
            for node in range(machine.params.n_nodes)
        ]
        self._prefixes = [
            (0,) + p
            for p in itertools.permutations(range(1, n), self.prefix_depth)
        ]
        self.best_found = 0
        self.expansions = 0

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def thread(self, machine: "Machine", node_id: int) -> Iterator[Op]:
        n_nodes = machine.params.n_nodes
        code = self._code
        best = self.optimal  # the seeded bound
        local_best = None
        local_expansions = 0

        # Read the bound and counter once up front; distance rows are
        # pulled in lazily as the search first touches them, which
        # spreads the start-up distribution transient over time.
        yield ("read", self.best_addr)
        yield ("read", self.count_addr)
        yield ("barrier",)

        # The search's ops, built once (the processor only reads them).
        runtime_op = ("compute", 24, self._runtime_code)
        expand_op = ("compute", EXPAND_CYCLES, code)
        read_count = ("read", self.count_addr)
        read_best = ("read", self.best_addr)
        read_row = [("read", addr) for addr in self.dist_rows]
        write_scratch = ("write", self._scratch[node_id])
        period = self.runtime_period
        dist = self.dist
        min_out = self._min_out
        full = (1 << self.n_cities) - 1
        # Every prefix starts at city 0, so only cities 1..n-1 can be
        # children; highest first, so the stack pops them lowest first.
        descending = [(c, 1 << c) for c in range(self.n_cities - 1, 0, -1)]
        all_min_out = sum(min_out)

        for prefix in self._prefixes[node_id::n_nodes]:
            # Depth-first branch and bound below this prefix.  A stack
            # entry is (last city, visited bitmask, lower bound of the
            # unvisited cities, cost so far), each carried forward from
            # its parent's.
            mask = 0
            bound = all_min_out
            for city in prefix:
                mask |= 1 << city
                bound -= min_out[city]
            cost = sum(dist[a][b] for a, b in zip(prefix, prefix[1:]))
            stack = [(prefix[-1], mask, bound, cost)]
            pop = stack.pop
            push = stack.append
            while stack:
                last, mask, bound, cost = pop()
                self.expansions += 1
                local_expansions += 1
                if local_expansions % period == 0:
                    # The Mul-T runtime runs (task bookkeeping); its
                    # instruction lines may evict the hot shared blocks.
                    yield runtime_op
                yield expand_op
                yield read_count
                yield read_best
                yield read_row[last]
                if mask == full:
                    total = cost + dist[last][0]
                    yield write_scratch
                    if total <= best:
                        best = total
                        local_best = total
                    continue
                if cost + bound > best:
                    continue  # pruned
                row = dist[last]
                for child, bit in descending:
                    if not mask & bit:
                        push((child, mask | bit, bound - min_out[child],
                              cost + row[child]))

        # Publish the node's best and reduce on node 0.
        yield ("compute", 10, code)
        yield ("write", self.result_addrs[node_id])
        if local_best is not None:
            self.best_found = (min(self.best_found, local_best)
                               if self.best_found else local_best)
        yield ("barrier",)
        if node_id == 0:
            for addr in self.result_addrs:
                yield ("read", addr)
            yield ("compute", 20, code)
            yield ("write", self.best_addr)
        yield ("barrier",)
