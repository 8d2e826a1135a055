"""EVOLVE: genome evolution by hypercube traversal (paper Section 6).

EVOLVE reduces the simulation of genome evolution to traversing a
hypercube (each vertex is a genome; each dimension flips one gene) and
finding local and global fitness maxima.  Every node hill-climbs from its
own starting genomes: at each step it reads the fitness of all ``d``
neighbours of its current vertex, moves to the best strictly-improving
one, and records the visit.

The fitness landscape pulls walks toward a global maximum, so walks from
different nodes converge onto the same ridge: the vertices near the
maxima are read by many nodes (large worker sets), while the vast
majority of vertices are touched by at most one walk.  The visit
counters add read-modify-write traffic to exactly those popular blocks.
This mix — thousands of one-node worker sets with a significant tail of
nontrivial ones (Figure 6) — is what makes EVOLVE the hardest of the six
applications for a software-extended directory (Figure 4d).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.workloads.base import Op, Workload, det_rand

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.machine import Machine

#: processor cycles to score one neighbour genome
SCORE_CYCLES = 130

#: processor cycles of bookkeeping per hill-climbing step
STEP_CYCLES = 90


class Evolve(Workload):
    """Parallel hill-climbing over a fitness-weighted hypercube."""

    name = "evolve"

    def __init__(self, dimensions: int = 12, walks_per_node: int = 5,
                 seed: int = 11) -> None:
        if not 4 <= dimensions <= 20:
            raise ConfigurationError("dimensions must be in 4..20")
        if walks_per_node < 1:
            raise ConfigurationError("walks_per_node must be >= 1")
        self.dimensions = dimensions
        self.walks_per_node = walks_per_node
        self.seed = seed
        self.n_vertices = 1 << dimensions
        #: the target genome: fitness grows with similarity to it
        self.target = det_rand(seed, 1) & (self.n_vertices - 1)
        self.local_maxima: Set[int] = set()
        self.global_best: Tuple[int, int] = (-1, -1)  # (fitness, vertex)
        self.steps: int = 0

    # ------------------------------------------------------------------
    # The fitness landscape (deterministic, rugged, single main ridge)
    # ------------------------------------------------------------------

    def fitness(self, vertex: int) -> int:
        """Similarity to the target genome plus deterministic noise."""
        match = self.dimensions - bin(vertex ^ self.target).count("1")
        noise = det_rand(self.seed, vertex) % 23
        return 16 * match + noise

    def neighbours(self, vertex: int) -> List[int]:
        return [vertex ^ (1 << bit) for bit in range(self.dimensions)]

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def setup(self, machine: "Machine") -> None:
        params = machine.params
        n_nodes = params.n_nodes
        heap = machine.heap
        self._code = machine.register_code("evolve-climb", lines=2)
        # Fitness table: one word per vertex, distributed block-wise
        # round-robin over the nodes.
        words_per_chunk = params.block_words * 2
        self._chunk_words = words_per_chunk
        n_chunks = -(-self.n_vertices // words_per_chunk)
        # Hash-distribute chunks over homes.  Hypercube neighbours differ
        # in one bit, so a modulo distribution would pile every high-bit
        # neighbour of a popular genome onto a single home node.
        self._fitness_chunks = [
            heap.alloc(det_rand(self.seed, 3, chunk) % n_nodes,
                       words_per_chunk)
            for chunk in range(n_chunks)
        ]
        # Visit counters, independently distributed (written by visitors).
        self._visit_chunks = [
            heap.alloc(det_rand(self.seed, 4, chunk) % n_nodes,
                       words_per_chunk)
            for chunk in range(n_chunks)
        ]
        # Per-node private walk records and result slot.
        self._records = [
            heap.alloc(node, params.block_words * 8)
            for node in range(n_nodes)
        ]
        self.result_addrs = [heap.alloc_block(node) for node in range(n_nodes)]
        self.local_maxima = set()
        self.global_best = (-1, -1)
        self.steps = 0
        self._params = params

    def _fitness_addr(self, vertex: int) -> int:
        chunk, offset = divmod(vertex, self._chunk_words)
        return self._fitness_chunks[chunk] + offset

    def _visit_addr(self, vertex: int) -> int:
        chunk, offset = divmod(vertex, self._chunk_words)
        return self._visit_chunks[chunk] + offset

    # ------------------------------------------------------------------
    # Threads
    # ------------------------------------------------------------------

    def thread(self, machine: "Machine", node_id: int) -> Iterator[Op]:
        code = self._code
        n_nodes = machine.params.n_nodes
        best_fitness, best_vertex = -1, -1

        for walk in range(self.walks_per_node):
            vertex = det_rand(self.seed, 2, node_id, walk) & (
                self.n_vertices - 1)
            current_fit = self.fitness(vertex)
            yield ("read", self._fitness_addr(vertex))
            yield ("compute", STEP_CYCLES, code)
            while True:
                self.steps += 1
                # Score every neighbour genome.
                best_n, best_n_fit = -1, current_fit
                for nb in self.neighbours(vertex):
                    yield ("read", self._fitness_addr(nb))
                    yield ("compute", SCORE_CYCLES, code)
                    fit = self.fitness(nb)
                    if fit > best_n_fit or (fit == best_n_fit
                                            and nb > best_n >= 0):
                        best_n, best_n_fit = nb, fit
                # Record the visit: the private walk log always, the
                # shared visit counter on every other step (the counter
                # is a read-modify-write of a popular block).
                if self.steps % 2 == 0:
                    yield ("read", self._visit_addr(vertex))
                    yield ("write", self._visit_addr(vertex))
                yield ("write", self._records[node_id])
                yield ("compute", STEP_CYCLES, code)
                if best_n < 0:
                    break  # local maximum
                vertex, current_fit = best_n, best_n_fit
            self.local_maxima.add(vertex)
            if current_fit > best_fitness:
                best_fitness, best_vertex = current_fit, vertex

        yield ("write", self.result_addrs[node_id])
        yield ("barrier",)
        # Node 0 reduces to the global maximum found.
        if node_id == 0:
            for addr in self.result_addrs:
                yield ("read", addr)
                yield ("compute", 6, code)
        if best_fitness > self.global_best[0] or (
                best_fitness == self.global_best[0]
                and best_vertex > self.global_best[1]):
            self.global_best = (best_fitness, best_vertex)
        yield ("barrier",)
