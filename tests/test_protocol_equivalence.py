"""A/B equivalence of the table-driven engine vs. the old controllers.

``tests/data/protocol_equivalence.json`` pins run cycles, trap counts
and the full :meth:`~repro.sim.stats.RunStats.digest` of a matrix of
deterministic runs recorded with the hand-written home controllers,
*before* the table-driven protocol engine replaced them.  Replaying
every configuration and matching byte-for-byte proves the refactor
behaviour-preserving across the whole spectrum — full-map, limited
pointers with software extension, LACK/ACK variants, broadcast, and the
software-only directory, plus the Section 7 enhancement paths.

Every configuration runs under *both* readings of the table — the
engine's per-event plan, compiled from the table at construction, and
:func:`tests.helpers.walk_table`, which interprets the declared rows on
every delivery — so the fixture also gates the plan against the table:
both must match the pinned runs cycle-for-cycle, digest-for-digest.

Regenerate (only for *intentional* behaviour changes) with::

    PYTHONPATH=src python tools/gen_protocol_fixture.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.machine.machine import Machine
from repro.machine.params import MachineParams
from repro.workloads.aq import AdaptiveQuadrature
from repro.workloads.worker import WorkerBenchmark
from tests.helpers import interpret_tables

FIXTURE = Path(__file__).parent / "data" / "protocol_equivalence.json"

with FIXTURE.open(encoding="utf-8") as fh:
    _FIXTURE = json.load(fh)


def _workload_for(config_id: str):
    if config_id.startswith("worker8x2"):
        return WorkerBenchmark(worker_set_size=8, iterations=2)
    if config_id.startswith("worker6x2"):
        return WorkerBenchmark(worker_set_size=6, iterations=2)
    assert config_id.startswith("aq"), config_id
    return AdaptiveQuadrature()


@pytest.mark.parametrize("dispatch", ["compiled", "interpreted"])
@pytest.mark.parametrize(
    "entry", _FIXTURE["entries"], ids=[e["id"] for e in _FIXTURE["entries"]]
)
def test_byte_identical_with_prerefactor_controllers(entry, dispatch):
    kwargs = dict(entry["machine"])
    machine = Machine(MachineParams(n_nodes=_FIXTURE["n_nodes"]), **kwargs)
    if dispatch == "interpreted":
        interpret_tables(machine)
    stats = machine.run(_workload_for(entry["id"]))
    assert stats.run_cycles == entry["run_cycles"], entry["id"]
    assert stats.total_traps == entry["total_traps"], entry["id"]
    assert stats.digest() == entry["digest"], (
        f"{entry['id']}: statistics digest diverged from the "
        f"pre-refactor controllers"
    )
