"""Op-coverage golden gate for the processor's user-op loop.

``tests/data/op_coverage.json`` pins run cycles, the full RunStats
digest and the three sequential-baseline counters of every
configuration in :mod:`tests.op_coverage`: every workload op kind, code
fetches with ``perfect_ifetch`` and the victim cache each on and off,
batch-boundary corner cases, and 16-node TSP in Figure 3's three
variants.  Matching them proves a change to the processor or the cache
hit path behaviour-preserving on the paths the protocol-equivalence
fixture never reaches.

Regenerate (only for *intentional* behaviour changes) with::

    python tools/gen_op_coverage_fixture.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.op_coverage import configurations, record

FIXTURE = Path(__file__).parent / "data" / "op_coverage.json"

with FIXTURE.open(encoding="utf-8") as fh:
    _PINNED = {entry.pop("id"): entry for entry in json.load(fh)["entries"]}

_CONFIGS = dict(configurations())


def test_fixture_covers_every_configuration():
    assert sorted(_PINNED) == sorted(_CONFIGS)


@pytest.mark.parametrize("config_id", sorted(_CONFIGS))
def test_matches_pinned_run(config_id):
    machine, stats = _CONFIGS[config_id]()
    assert record(machine, stats) == _PINNED[config_id]
