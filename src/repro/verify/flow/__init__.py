"""Dataflow analyses over Python ASTs (the ``repro check --flow`` layer).

The runtime A/B gate (17-config compiled-vs-interpreted equivalence)
proves the configurations we happened to run.  This package makes the
same claims *statically and totally*:

- :mod:`repro.verify.flow.cfg` — control-flow graphs over function ASTs
  and the forward worklist solver that walks them,
- :mod:`repro.verify.flow.transval` — translation validation: every
  generated dispatch module is proven row-for-row equivalent to its
  source protocol table,
- :mod:`repro.verify.flow.taint` — the dataflow upgrade of the
  per-statement determinism linter.

All passes emit :class:`repro.verify.report.Finding`s and aggregate
into one :class:`repro.verify.report.Report` via :func:`run_flow`.
"""

from __future__ import annotations

from repro.verify.report import Report

__all__ = ["run_flow"]


def run_flow() -> Report:
    """Run translation validation and the taint determinism analysis;
    aggregate into one report."""
    from repro.verify.flow.taint import run_taint
    from repro.verify.flow.transval import run_transval

    report = Report()
    report.extend(run_transval())
    report.extend(run_taint())
    return report
