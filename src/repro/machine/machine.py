"""The complete machine: NWO-style deterministic simulation driver.

:class:`Machine` wires together the event engine, the mesh fabric, the
nodes (processor + cache + directory + protocol software), the shared
heap, and the barrier tree, then drives a workload to completion and
returns a :class:`~repro.sim.stats.RunStats`.

Usage::

    from repro import Machine, MachineParams
    from repro.workloads import WorkerBenchmark

    machine = Machine(MachineParams(n_nodes=16), protocol="DirnH5SNB")
    stats = machine.run(WorkerBenchmark(worker_set_size=8))
    print(stats.run_cycles, stats.speedup)
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.common.errors import (
    ConfigurationError,
    DeadlockError,
    ProtocolSpecError,
)
from repro.core.software.costmodel import FLEXIBLE, OPTIMIZED
from repro.core.spec import AckMode, ProtocolSpec, spec_of
from repro.machine.barrier import BarrierManager
from repro.machine.heap import SharedHeap
from repro.machine.sync import LockManager, ReductionManager
from repro.machine.node import Node
from repro.machine.params import MachineParams
from repro.network.detailed import DetailedFabric
from repro.network.fabric import Fabric
from repro.network.topology import Mesh
from repro.sim.engine import Simulator
from repro.sim.stats import HandlerSample, RunStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.events import EventBus
    from repro.workloads.base import Workload

#: Cap on stored handler samples (counting continues past the cap).
MAX_HANDLER_SAMPLES = 250_000


@dataclasses.dataclass(frozen=True)
class CodeRef:
    """A region of instruction lines, replicated in every node's local
    memory at identical offsets (so it maps to the same cache sets on
    every node)."""

    name: str
    offsets: tuple  # block offsets within each node's segment
    cache_colors: tuple  # direct-mapped set index of each line
    blocks_per_node: int

    def blocks(self, node_id: int) -> List[int]:
        base = node_id * self.blocks_per_node
        return [base + off for off in self.offsets]


class Machine:
    """A simulated Alewife machine running one coherence protocol."""

    def __init__(
        self,
        params: Optional[MachineParams] = None,
        protocol: "ProtocolSpec | str" = "DirnH5SNB",
        software: str = FLEXIBLE,
        track_worker_sets: bool = False,
        collect_handler_samples: bool = True,
        invalidation_mode: str = "parallel",
        network_model: str = "queues",
        migratory_detection: bool = False,
    ) -> None:
        self.params = params if params is not None else MachineParams()
        self.spec = spec_of(protocol)
        if software not in (FLEXIBLE, OPTIMIZED):
            raise ConfigurationError(f"unknown software variant {software!r}")
        if self.spec.full_map and software == OPTIMIZED:
            raise ProtocolSpecError("full-map runs no software at all")
        if software == OPTIMIZED and self.spec.name != "DirnH5SNB":
            # The hand-tuned assembly version implements only DirnH5SNB
            # (Section 4.1: "this version only implements DirnH5SNB").
            # Checked before any component is built: a half-built
            # machine cannot be closed, so it would be cyclic garbage.
            raise ConfigurationError(
                "the optimized (assembly) software implements only "
                f"DirnH5SNB, not {self.spec.name}"
            )
        self.software_implementation = software
        if invalidation_mode not in ("parallel", "sequential", "dynamic"):
            raise ConfigurationError(
                f"unknown invalidation mode {invalidation_mode!r}"
            )
        #: how the extension software transmits invalidations (Section 7)
        self.invalidation_mode = invalidation_mode
        #: dynamic detection of migratory data (Section 7)
        self.migratory_detection = migratory_detection
        #: the livelock watchdog matters for the protocols that handle
        #: acknowledgements in software (Section 4.1)
        self.watchdog_enabled = (
            self.spec.needs_software
            and self.spec.ack_mode is AckMode.SOFTWARE
        )

        self.sim = Simulator()
        self.mesh = Mesh(self.params.n_nodes)
        if network_model == "queues":
            # NWO's fidelity: endpoint queue contention only.
            self.fabric: Fabric = Fabric(self.sim, self.mesh,
                                         self.params.hop_latency)
        elif network_model == "links":
            # Beyond NWO: per-link switch contention too.
            self.fabric = DetailedFabric(self.sim, self.mesh,
                                         self.params.hop_latency)
        else:
            raise ConfigurationError(
                f"unknown network model {network_model!r}"
            )
        self.network_model = network_model
        self.heap = SharedHeap(self.params, self.params.code_region_blocks)
        self.barrier = BarrierManager(self)
        self.locks = LockManager(self)
        self.reductions = ReductionManager(self)
        self.nodes: List[Node] = [
            Node(node_id, self) for node_id in range(self.params.n_nodes)
        ]
        for node in self.nodes:
            self.fabric.attach(node.id, node.receive)

        # Code-region bookkeeping
        self._code_cursor = 0
        self._code_refs: Dict[str, CodeRef] = {}

        # Per-block protocol overrides (Section 3.1: Alewife supports
        # dynamic reconfiguration of coherence protocols block-by-block).
        self._block_specs: Dict[int, ProtocolSpec] = {}

        # Sequential-execution accounting (the Figure 4 denominator)
        self.seq_compute = 0
        self.seq_mem_ops = 0
        self.seq_ifetches = 0

        # Instrumentation
        self.track_worker_sets = track_worker_sets
        self._worker_sets: Dict[int, Set[int]] = {}
        self.collect_handler_samples = collect_handler_samples
        self.handler_samples: List[HandlerSample] = []
        self.handler_samples_dropped = 0

        #: optional access profiler (repro.analysis.profiling)
        self.profiler = None

        #: observability event bus (repro.obs); None until observe() is
        #: called, so probe sites are a single None-check by default
        self.obs: Optional["EventBus"] = None

        #: per-node coherence-transaction counters (tracing metadata;
        #: ids interleave modulo n_nodes so they stay unique while each
        #: node's sequence depends only on its own history — the
        #: attribution baseline and the span tests pin these ids)
        self._txn_counters: List[int] = [0] * self.params.n_nodes

        self._done_at: Dict[int, int] = {}
        self._ran = False

    def next_txn(self, node_id: int) -> int:
        """Allocate ``node_id``'s next coherence-transaction id.

        Ids start at ``node_id + 1`` and stride by ``n_nodes``, so they
        are unique machine-wide without any cross-node coordination.
        """
        count = self._txn_counters[node_id]
        self._txn_counters[node_id] = count + 1
        return count * self.params.n_nodes + node_id + 1

    # ------------------------------------------------------------------
    # Code regions (instruction footprint of workload phases)
    # ------------------------------------------------------------------

    def register_code(self, name: str, lines: int = 2) -> CodeRef:
        """Reserve ``lines`` instruction blocks for a named code region.

        Regions are laid out identically in every node's local memory
        (code is replicated per node, as on Alewife), so a region's cache
        colours are the same machine-wide.
        """
        existing = self._code_refs.get(name)
        if existing is not None:
            return existing
        if lines <= 0:
            raise ConfigurationError("a code region needs at least one line")
        if self._code_cursor + lines > self.params.code_region_blocks:
            raise ConfigurationError("code region exhausted")
        offsets = tuple(range(self._code_cursor, self._code_cursor + lines))
        self._code_cursor += lines
        colors = tuple(self.params.cache_set_of_block(off) for off in offsets)
        ref = CodeRef(name=name, offsets=offsets, cache_colors=colors,
                      blocks_per_node=self.params.local_mem_blocks)
        self._code_refs[name] = ref
        return ref

    def is_code_block(self, block: int) -> bool:
        return (block % self.params.local_mem_blocks
                < self.params.code_region_blocks)

    def create_lock(self, home: int = 0) -> int:
        """Create a FIFO lock homed on ``home`` (Section 7's lock data
        type); workloads acquire it with a ``("lock", id)`` op."""
        return self.locks.create_lock(home)

    def create_reduction(self, combine) -> int:
        """Create a combining-tree global reduction; workloads use a
        ``("reduce", id, value)`` op and read ``reduction_result``."""
        return self.reductions.create_reduction(combine)

    def reduction_result(self, reduce_id: int):
        """Most recently completed global result of a reduction."""
        return self.reductions.reductions[reduce_id].result

    # ------------------------------------------------------------------
    # Per-block protocol configuration (Section 3.1 / Section 7)
    # ------------------------------------------------------------------

    def configure_block(self, addr: int,
                        protocol: "ProtocolSpec | str") -> None:
        """Select a different coherence protocol for one memory block.

        This is Alewife's block-by-block protocol reconfiguration, the
        mechanism behind the paper's "data specific" enhancement
        (Section 7): e.g. widely-shared read-only data can be switched
        to a broadcast protocol whose reads never trap.

        Restrictions mirror the hardware: the machine-wide protocol must
        be software-extended (the handlers must exist), the override
        cannot be the software-only directory (that is a different home
        controller), and a block must be configured before it is first
        referenced.
        """
        override = spec_of(protocol)
        if not self.spec.needs_software:
            raise ConfigurationError(
                "per-block protocols need the software-extended home "
                "controller; the full-map machine has no handlers"
            )
        if self.spec.is_software_only or override.is_software_only:
            raise ConfigurationError(
                "the software-only directory cannot be mixed per block"
            )
        block = addr >> self.params.block_shift
        home = self.params.home_of_block(block)
        if block in self.nodes[home].home.entries:
            raise ConfigurationError(
                f"block {block} was already referenced; configure blocks "
                f"before first use"
            )
        self._block_specs[block] = override

    def configure_range(self, addr: int, words: int,
                        protocol: "ProtocolSpec | str") -> None:
        """Configure every block overlapping ``[addr, addr + words)``."""
        first = addr >> self.params.block_shift
        last = (addr + max(words, 1) - 1) >> self.params.block_shift
        for block in range(first, last + 1):
            self.configure_block(block << self.params.block_shift, protocol)

    def protocol_for_block(self, block: int) -> ProtocolSpec:
        """The effective protocol spec governing ``block``."""
        return self._block_specs.get(block, self.spec)

    # ------------------------------------------------------------------
    # Instrumentation hooks
    # ------------------------------------------------------------------

    def observe(self) -> "EventBus":
        """Create (or return) this machine's observability event bus.

        Probe points in the engine, processors, fabric, and the software
        handler path emit typed events to subscribers on the returned
        bus (see :mod:`repro.obs`).  Observers read state only — they
        never schedule events — so attaching them changes no simulated
        cycle count; until the first subscriber appears, each probe site
        costs a single ``None`` check.  The engine's clock probe is not
        wired here: :meth:`run` installs it only if the ``advance``
        channel has a subscriber by then, so subscribe before running.
        """
        if self.obs is None:
            from repro.obs.events import EventBus

            self.obs = EventBus()
            self.fabric.obs = self.obs
        return self.obs

    def note_grant(self, block: int, node: int,
                   write: bool = False) -> None:
        """A node received a copy of ``block`` (worker-set tracking and
        the access profiler of Section 7's profile/detect/optimize
        enhancement)."""
        if self.is_code_block(block):
            return
        if self.track_worker_sets:
            members = self._worker_sets.get(block)
            if members is None:
                members = set()
                self._worker_sets[block] = members
            members.add(node)
        if self.profiler is not None:
            self.profiler.record(block, node, write)

    def record_handler_sample(self, sample: HandlerSample) -> None:
        if not self.collect_handler_samples:
            return
        if len(self.handler_samples) >= MAX_HANDLER_SAMPLES:
            self.handler_samples_dropped += 1
            return
        self.handler_samples.append(sample)

    def note_processor_done(self, node_id: int, at: int) -> None:
        self._done_at[node_id] = at

    def worker_set_histogram(self) -> Counter:
        histogram: Counter = Counter()
        for members in self._worker_sets.values():
            histogram[len(members)] += 1
        return histogram

    # ------------------------------------------------------------------
    # Running workloads
    # ------------------------------------------------------------------

    def run(self, workload: "Workload", max_cycles: Optional[int] = None,
            max_events: Optional[int] = None) -> RunStats:
        """Set up ``workload``, run every node's thread to completion,
        and return the aggregated statistics."""
        if self._ran:
            raise ConfigurationError(
                "a Machine instance runs one workload; build a fresh one"
            )
        self._ran = True
        workload.setup(self)
        for node in self.nodes:
            node.processor.start(workload.thread(self, node.id))

        obs = self.obs
        if obs is not None and obs.on_advance:
            # Any probe takes the engine off its tight loop, so only a
            # listened-to ``advance`` channel gets one.
            self.sim.probe = obs.advance
        self.sim.run(until=max_cycles, max_events=max_events,
                     idle_check=self._check_deadlock)
        unfinished = [n.id for n in self.nodes if not n.processor.done]
        if unfinished:
            raise DeadlockError(
                f"run ended at cycle {self.sim.now} with unfinished "
                f"processors {unfinished[:8]}"
            )
        return self._collect()

    def close(self) -> None:
        """Let reference counting free this machine once its results
        have been read.

        A live machine is a web of back-references: each node and
        component names its node or machine, the fabric holds every
        node's ``receive``, the engine queue holds callbacks into the
        processors, and observers hang off the bus.  ``close`` drops
        those references, so the machine, its nodes and its components
        become a tree that is freed the moment its owner lets go.  It
        drops references only: the ``RunStats`` that :meth:`run`
        returned shares :attr:`handler_samples` and each node's
        ``NodeStats``, and both stay as they are.  Idempotent; a closed
        machine cannot run again.
        """
        self._ran = True
        self.obs = None
        self.sim.close()
        self.fabric.close()
        self.barrier.machine = self.barrier.on_complete = None
        self.locks.machine = self.reductions.machine = None
        for node in self.nodes:
            node.close()

    def _check_deadlock(self) -> None:
        stuck = [
            (node.id, node.processor.state.value)
            for node in self.nodes
            if not node.processor.done
        ]
        if stuck:
            raise DeadlockError(
                f"event queue drained at cycle {self.sim.now} with blocked "
                f"processors: {stuck[:8]}"
            )

    def _collect(self) -> RunStats:
        run_cycles = max(self._done_at.values()) if self._done_at else 0
        sequential = (
            self.seq_compute
            + (self.seq_mem_ops + self.seq_ifetches)
            * self.params.cache_hit_latency
        )
        histogram = (self.worker_set_histogram()
                     if self.track_worker_sets else None)
        return RunStats(
            run_cycles=run_cycles,
            n_nodes=self.params.n_nodes,
            per_node=[node.stats for node in self.nodes],
            handler_samples=self.handler_samples,
            sequential_cycles=sequential,
            worker_set_histogram=histogram,
        )
