"""Shared test utilities: scripted workloads and invariant checkers."""

from __future__ import annotations

import functools
from typing import Dict, Iterator, List, Optional

from repro.machine.machine import Machine
from repro.machine.params import MachineParams
from repro.network.fabric import Message
from repro.workloads.base import Op, Workload


class ScriptWorkload(Workload):
    """Executes a fixed per-node list of operations.

    ``scripts`` maps node id -> list of ops.  Barriers are machine-wide,
    so every thread is automatically padded with trailing barriers up to
    the maximum barrier count any script (or ``barriers``) uses.
    """

    name = "script"

    def __init__(self, scripts: Dict[int, List[Op]],
                 barriers: int = 0) -> None:
        self.scripts = scripts
        per_script = [
            sum(1 for op in ops if op[0] == "barrier")
            for ops in scripts.values()
        ]
        self.total_barriers = max([barriers] + per_script) if per_script \
            else barriers

    def setup(self, machine: Machine) -> None:  # noqa: D102 - no shared data
        pass

    def thread(self, machine: Machine, node_id: int) -> Iterator[Op]:
        used = 0
        for op in self.scripts.get(node_id, []):
            if op[0] == "barrier":
                used += 1
            yield op
        for _ in range(self.total_barriers - used):
            yield ("barrier",)


def tiny_machine(n_nodes: int = 4, protocol: str = "DirnH2SNB",
                 **param_overrides) -> Machine:
    """A small machine with fast defaults for unit tests."""
    params = MachineParams(n_nodes=n_nodes, **param_overrides)
    return Machine(params, protocol=protocol)


def sent_message(src: int, dst: int, kind: str, size_flits: int,
                 sent_at: int, delivered_at: int,
                 block: Optional[int] = None,
                 txn: Optional[int] = None) -> Message:
    """A message as the ``message`` channel publishes it: with its send
    and delivery times written."""
    return Message(src, dst, kind, size_flits, block, txn=txn,
                   sent_at=sent_at, delivered_at=delivered_at)


def run_script(machine: Machine, scripts: Dict[int, List[Op]],
               barriers: int = 0):
    """Run a scripted workload to completion; returns RunStats."""
    return machine.run(ScriptWorkload(scripts, barriers=barriers))


class CompletedTraces:
    """Completion subscriber of a ``SpanCollector`` that keeps what the
    collector hands on: every finished stall, in emission order, and
    every completed transaction's trace, by id."""

    def __init__(self, collector) -> None:
        self.collector = collector
        self.stalls: List = []
        self._traces: Dict[int, object] = {}
        collector.on_complete.append(self._on_complete)

    def _on_complete(self, stall, trace) -> None:
        self.stalls.append(stall)
        if trace is not None:
            self._traces[trace.txn] = trace

    def transactions(self) -> List:
        """Completed traces, ordered by transaction id."""
        return [self._traces[txn] for txn in sorted(self._traces)]

    def trace(self, txn: int):
        return self._traces.get(txn)

    def __len__(self) -> int:
        return len(self.collector)


def data_block(machine: Machine, home: int) -> int:
    """Allocate one shared block on ``home``; returns its address."""
    return machine.heap.alloc_block(home)


def walk_table(home, message) -> None:
    """Apply ``message`` by reading the home's protocol table directly.

    A reference for :meth:`~repro.core.protocol.engine.
    HomeProtocolEngine.handle`, which runs a per-event, per-state plan
    of ``backend.TABLE`` compiled once per backend class.  This walk
    instead interprets the declared rows on every delivery: look up the event's
    policy, then fire the first row, in table order, whose state set
    matches (wildcards also match a missing entry) and whose guard
    passes.  It has no ``"transition"`` probe, so use it on machines
    with no observer bus attached.  :func:`interpret_tables` installs
    it on every node of a machine.
    """
    backend = home.backend
    table = backend.TABLE
    kind = message.kind
    policy = table.policies.get(kind)
    if policy is None:
        backend.unknown_event(kind)
        return
    block = message.block
    src = message.src
    if policy.lookup == "create":
        entry = backend.entry_for(block)
    else:
        entry = backend.entries.get(block)
    before = None if entry is None else entry.state
    for row in table.rows_for(kind):
        if row.states is not None and before not in row.states:
            continue
        if row.guard is None or getattr(backend, row.guard)(entry, src,
                                                            block):
            getattr(backend, row.action)(entry, src, block)
            return
    if policy.fallback == "error":
        backend.no_rule(kind, entry, src, block)


def interpret_tables(machine: Machine) -> None:
    """Route every node's home messages through :func:`walk_table`."""
    for node in machine.nodes:
        node.home.handle = functools.partial(walk_table, node.home)


def check_coherence(machine: Machine) -> List[str]:
    """Delegate to the library's state-level verifier."""
    from repro.analysis.verify import coherence_violations

    return coherence_violations(machine)


class VersionedWorkload(Workload):
    """Random reads/writes with value-level coherence checking.

    Each block has a Python-side "memory version".  A writer bumps the
    version at its write; a reader remembers the version it must at
    least observe... Since the simulator does not move data, we instead
    assert a protocol-level property that implies value coherence: at
    every read completion, the reader holds a readable copy, and at
    every write completion the writer holds the only writable copy.
    That assertion is built into the cache controller's state machine,
    so this workload simply generates adversarial traffic.
    """

    name = "versioned"

    def __init__(self, ops_per_node: int, blocks: int, seed: int,
                 write_ratio: float = 0.3, barrier_every: int = 0) -> None:
        self.ops_per_node = ops_per_node
        self.n_blocks = blocks
        self.seed = seed
        self.write_ratio = write_ratio
        self.barrier_every = barrier_every
        self.addrs: List[int] = []

    def setup(self, machine: Machine) -> None:
        from repro.workloads.base import det_rand

        n = machine.params.n_nodes
        self.addrs = [
            machine.heap.alloc_block(det_rand(self.seed, 7, i) % n)
            for i in range(self.n_blocks)
        ]

    def thread(self, machine: Machine, node_id: int) -> Iterator[Op]:
        from repro.workloads.base import det_rand

        pending_barriers = 0
        for i in range(self.ops_per_node):
            r = det_rand(self.seed, node_id, i)
            addr = self.addrs[r % self.n_blocks]
            is_write = (r >> 32) % 1000 < self.write_ratio * 1000
            yield ("write", addr) if is_write else ("read", addr)
            yield ("compute", (r >> 48) % 20)
            if self.barrier_every and (i + 1) % self.barrier_every == 0:
                pending_barriers += 1
                yield ("barrier",)
        total = (self.ops_per_node // self.barrier_every
                 if self.barrier_every else 0)
        for _ in range(total - pending_barriers):
            yield ("barrier",)
