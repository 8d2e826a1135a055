"""Regenerate the op-coverage golden fixture.

The fixture (``tests/data/op_coverage.json``) pins ``run_cycles``, the
full :meth:`~repro.sim.stats.RunStats.digest` and the machine's
sequential-baseline counters (``seq_compute``, ``seq_mem_ops``,
``seq_ifetches``) of the configurations in ``tests/op_coverage.py``:
scripted streams mixing every workload op kind, with ``perfect_ifetch``
and the victim cache each on and off, and 16-node TSP in Figure 3's
three machine variants.  ``tests/test_op_coverage.py`` replays them and
requires identical values, so a rewrite of the processor's user-op loop
or the cache-hit check must preserve every event, cycle and counter.

Regenerate only when simulated behaviour changes *intentionally*, and
say so in the commit message::

    python tools/gen_op_coverage_fixture.py
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from tests.op_coverage import configurations, record  # noqa: E402

FIXTURE_PATH = os.path.join(ROOT, "tests", "data", "op_coverage.json")


def main() -> int:
    entries = []
    for config_id, run in configurations():
        machine, stats = run()
        entries.append({"id": config_id, **record(machine, stats)})
        print(f"{config_id:<45} {stats.run_cycles:>10,} cycles  "
              f"{entries[-1]['digest'][:12]}")
    with open(FIXTURE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"entries": entries}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE_PATH} ({len(entries)} configurations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
