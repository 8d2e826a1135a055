"""Engine hot-path microbenchmarks (PR: parallel runner + hot path).

Unlike the table/figure benchmarks, these measure wall-clock throughput
of the event loop itself, so they use real pytest-benchmark rounds
rather than ``run_once``.  Three shapes:

- **drain**: pop + dispatch over a pre-scheduled heap — isolates the
  ``Simulator.run`` fast path (no ``until``, no ``max_events``, no
  probe);
- **chain**: each event schedules the next — the steady-state
  schedule/pop/dispatch cycle;
- **probed drain**: same as drain but with an observer probe installed,
  exercising the slow path the fast path branches around;
- **worker end-to-end**: a full 16-node ``WORKER`` run with no
  observers attached — the protocol-engine hot path (table dispatch,
  directory backend, network, caches) measured as wall-clock per
  simulated machine, the gate for refactors of ``repro/core/``.

Record before/after numbers in ``docs/performance.md`` when touching
``Simulator.run``, the ``__slots__`` message/payload classes, or the
coherence engine dispatch.
"""

import json
from pathlib import Path

from repro.machine.machine import Machine
from repro.machine.params import MachineParams
from repro.sim.engine import Simulator
from repro.workloads.worker import WorkerBenchmark

N_EVENTS = 50_000

#: The protocol-equivalence fixture record this benchmark's config and
#: cycle count come from, so the two cannot drift apart.
EQUIVALENCE_FIXTURE = (Path(__file__).parent.parent / "tests" / "data"
                       / "protocol_equivalence.json")
WORKER_RECORD = "worker8x2-n16-DirnH5SNB"


def _equivalence_record(record_id):
    with EQUIVALENCE_FIXTURE.open(encoding="utf-8") as fh:
        fixture = json.load(fh)
    (entry,) = [e for e in fixture["entries"] if e["id"] == record_id]
    return fixture["n_nodes"], entry


def _drain(probe=None):
    sim = Simulator()
    if probe is not None:
        sim.probe = probe
    noop = lambda: None  # noqa: E731
    for t in range(N_EVENTS):
        sim.at(t, noop)
    sim.run()
    return sim.now


def _chain():
    sim = Simulator()
    remaining = [N_EVENTS]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.after(1, tick)

    sim.at(0, tick)
    sim.run()
    return sim.now


def test_engine_drain(benchmark):
    """Fast-path throughput: pop + dispatch of pre-scheduled events."""
    assert benchmark(_drain) == N_EVENTS - 1


def test_engine_chain(benchmark):
    """Steady-state throughput: schedule + pop + dispatch per event."""
    assert benchmark(_chain) == N_EVENTS - 1


def test_engine_drain_with_probe(benchmark):
    """Slow-path throughput with an observer probe installed."""
    seen = []
    result = benchmark(_drain, probe=lambda t: seen.append(t))
    assert result == N_EVENTS - 1
    assert seen  # the probe really ran


def _worker_end_to_end(n_nodes, machine_kwargs):
    machine = Machine(MachineParams(n_nodes=n_nodes), **machine_kwargs)
    stats = machine.run(WorkerBenchmark(worker_set_size=8, iterations=2))
    return stats.run_cycles


def test_worker_end_to_end(benchmark):
    """Whole-machine throughput: 16-node WORKER through the coherence
    engine with no observers attached.  The deterministic cycle count
    doubles as a correctness anchor for the timing being benchmarked;
    it is the ``run_cycles`` of the matching protocol-equivalence
    fixture record, the one pin for this configuration."""
    n_nodes, record = _equivalence_record(WORKER_RECORD)
    assert benchmark(_worker_end_to_end, n_nodes, record["machine"]) \
        == record["run_cycles"]
