"""Dataflow analyses over Python ASTs (the ``repro check --flow`` layer).

The per-statement determinism linter sees one expression at a time.
This package follows values through each function instead:

- :mod:`repro.verify.flow.cfg` — control-flow graphs over function ASTs
  and the forward worklist solver that walks them,
- :mod:`repro.verify.flow.taint` — the dataflow upgrade of the
  per-statement determinism linter.

Passes emit :class:`repro.verify.report.Finding`s and aggregate into
one :class:`repro.verify.report.Report` via :func:`run_flow`.
"""

from __future__ import annotations

from repro.verify.report import Report

__all__ = ["run_flow"]


def run_flow() -> Report:
    """Run the taint determinism analysis; return its report."""
    from repro.verify.flow.taint import run_taint

    report = Report()
    report.extend(run_taint())
    return report
