"""Regenerate the committed cycle-attribution baseline.

The baseline (``baselines/worker16-attribution.json``) pins the full
bucket-by-bucket attribution of the 16-node WORKER stress test at the
default ``repro analyze`` configuration.  CI diffs every push against
it (``repro diff --baseline``), so a change that silently shifts stall
cycles between buckets — a slower handler, extra retries, a longer
network path — fails the build as an *attributed* regression instead
of unexplained drift.

Regenerate only when simulated behaviour changes *intentionally* (a
cost-model retune, a protocol fix), and say so in the commit message::

    PYTHONPATH=src python tools/gen_attribution_baseline.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.cli import DEFAULT_BASELINE, main  # noqa: E402


if __name__ == "__main__":
    os.makedirs(os.path.dirname(DEFAULT_BASELINE), exist_ok=True)
    # The baseline IS the default `repro analyze` artifact; going
    # through the CLI keeps the two from drifting apart.
    code = main(["analyze", "--out", DEFAULT_BASELINE])
    sys.exit(code)
