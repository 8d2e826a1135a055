"""Configurations of the op-coverage golden fixture.

``tests/data/op_coverage.json`` pins, for every configuration below, the
full :meth:`~repro.sim.stats.RunStats.digest`, ``run_cycles`` and the
machine's three sequential-baseline counters (``seq_compute``,
``seq_mem_ops``, ``seq_ifetches``).  The protocol-equivalence fixture
runs only WORKER and AQ; these configurations reach the processor paths
it never does:

- :class:`OpMix`: scripted streams mixing every workload op kind
  (compute with and without a code reference, a zero-cycle compute with
  one, read, write, barrier, lock, unlock, reduce, checkin), including
  a compute that crosses ``BATCH_LIMIT`` after hits, code fetches that
  straddle a batch boundary, and an unlock and a checkin that land
  exactly on one; run with ``perfect_ifetch`` and the victim cache each
  on and off;
- 16-node TSP in Figure 3's three machine variants (base, perfect
  ifetch, victim cache): the instruction/data thrashing study.

``tools/gen_op_coverage_fixture.py`` regenerates the fixture; do so only
when simulated behaviour changes on purpose.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Iterator, List, Tuple

from repro.machine.machine import Machine
from repro.machine.params import MachineParams
from repro.machine.processor import BATCH_LIMIT
from repro.workloads.base import Op, Workload, det_rand
from repro.workloads.tsp import TSP

from tests.helpers import ScriptWorkload


class OpMix(ScriptWorkload):
    """Per-node scripts mixing every op kind, built once the machine
    exists (code regions, blocks, the lock and the reduction live on
    it).  Shared blocks are contended, so software handlers pre-empt
    long computes and delay user steps."""

    name = "opmix"

    def __init__(self, rounds: int = 6) -> None:
        super().__init__({})
        self.rounds = rounds

    def setup(self, machine: Machine) -> None:
        n = machine.params.n_nodes
        loop = machine.register_code("opmix.loop", lines=3)
        body = machine.register_code("opmix.body", lines=1)
        # Two data blocks on the same cache set as the loop's first line:
        # code and data, and the two blocks, evict each other unless the
        # victim cache holds the loser.
        color = loop.cache_colors[0]
        thrash = machine.heap.alloc_block(1, color=color)
        thrash2 = machine.heap.alloc_block(2, color=color)
        shared = [machine.heap.alloc_block(h % n) for h in range(2 * n)]
        private = [machine.heap.alloc_block(h) for h in range(n)]
        lock = machine.create_lock(home=n - 1)
        total = machine.create_reduction(operator.add)
        scripts = {}
        for node in range(n):
            ops: List[Op] = [
                ("compute", 0, loop),  # zero cycles: only the fetches
                ("compute", 0, loop),
                ("read", thrash),
                ("compute", 3, loop),
            ]
            for r in range(self.rounds):
                x = det_rand(node, r)
                mine = private[node]
                a = shared[x % len(shared)]
                b = shared[(x >> 8) % len(shared)]
                ops += [
                    ("write", mine),
                    # Hits, then a compute that no longer fits the batch.
                    ("read", mine), ("read", mine), ("read", mine),
                    ("compute", BATCH_LIMIT - 2 + x % 3),
                    ("compute", 3 + (x >> 4) % 5, body),
                    ("read", a),
                    ("compute", 2, loop),
                    ("write", b) if (x >> 12) % 3 == 0 else ("read", b),
                    # Fetches straddling a batch boundary.
                    ("compute", BATCH_LIMIT - 4 + (x >> 16) % 4),
                    ("compute", 5, loop),
                    ("read", thrash),
                    ("read", thrash2),
                    ("compute", 0, body),
                    ("compute", 0),
                    # An unlock landing exactly on the batch boundary
                    # (the step resumed by the grant starts empty).
                    ("lock", lock),
                    ("compute", BATCH_LIMIT - 2),
                    ("unlock", lock),
                    ("write", shared[0]),
                    ("read", b),
                    # A checkin landing exactly on the batch boundary
                    # (the long compute ends its step), then one that
                    # opens the next step.
                    ("compute", 300 + x % 200),
                    ("compute", BATCH_LIMIT - 2),
                    ("checkin", b),
                    ("checkin", a),
                    # An unlock opening the step the grant resumes.
                    ("lock", lock),
                    ("unlock", lock),
                    ("reduce", total, node + r),
                    ("compute", 40 + (x >> 20) % 30, loop),
                    ("barrier",),
                ]
            scripts[node] = ops
        ScriptWorkload.__init__(self, scripts)


def _run(params: MachineParams, protocol: str,
         workload: Workload) -> Tuple[Machine, object]:
    machine = Machine(params, protocol=protocol)
    return machine, machine.run(workload)


#: Figure 3's three machine variants.
FIG3_VARIANTS = (
    ("base", dict(victim_cache_enabled=False, perfect_ifetch=False)),
    ("perfect-ifetch", dict(victim_cache_enabled=False,
                            perfect_ifetch=True)),
    ("victim-cache", dict(victim_cache_enabled=True, perfect_ifetch=False)),
)


def configurations() -> Iterator[
        Tuple[str, Callable[[], Tuple[Machine, object]]]]:
    """Yield ``(config_id, run)``; ``run()`` returns the machine and its
    RunStats."""
    for perfect in (False, True):
        for victim in (False, True):
            label = "+".join(name for name, on in (
                ("perfect-ifetch", perfect), ("victim-cache", victim))
                if on) or "base"
            params = MachineParams(n_nodes=9, perfect_ifetch=perfect,
                                   victim_cache_enabled=victim)
            yield (f"opmix-n9-DirnH1SNB-{label}",
                   lambda p=params: _run(p, "DirnH1SNB", OpMix()))
    for label, overrides in FIG3_VARIANTS:
        params = MachineParams(n_nodes=16, **overrides)
        yield (f"tsp-n16-DirnH5SNB-{label}",
               lambda p=params: _run(p, "DirnH5SNB", TSP()))


def record(machine: Machine, stats) -> Dict[str, object]:
    """The pinned outputs of one run."""
    return {
        "run_cycles": stats.run_cycles,
        "digest": stats.digest(),
        "seq_compute": machine.seq_compute,
        "seq_mem_ops": machine.seq_mem_ops,
        "seq_ifetches": machine.seq_ifetches,
    }
