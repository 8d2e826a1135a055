"""Simulation job specs: the unit of work of the parallel runner.

A :class:`SimJob` is a *pure description* of one simulation — workload
class and constructor kwargs, protocol name, machine parameters, and
software implementation — with no live objects attached.  That buys
three things at once:

- **Planning**: experiment drivers enumerate their jobs up front, so a
  whole sweep is visible as a flat list and duplicate configurations
  (e.g. the full-map baseline that several figures share) coalesce
  before any simulation runs.
- **Parallelism**: a spec pickles cheaply, so jobs fan out over a
  :class:`~concurrent.futures.ProcessPoolExecutor` worker pool.
- **Caching**: a spec has a canonical JSON form and therefore a stable
  hash, which keys the on-disk result cache (:mod:`repro.exec.cache`).

:func:`execute_job` runs one spec on a fresh machine and returns only
its result.  Nothing about the run's host cost is measured here: the
runner calls it through :func:`repro.obs.fleet.run_timed`, which
times it from outside, so telemetry never attaches to the machine.

Because the simulator is deterministic, a job's spec fully determines
its :class:`~repro.sim.stats.RunStats`; two jobs with equal keys are the
*same* experiment.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Mapping, Optional, Tuple, Type

from repro.machine.params import MachineParams
from repro.sim.stats import RunStats
from repro.workloads.base import Workload


@dataclasses.dataclass(frozen=True)
class SimJob:
    """One simulation to run: ``workload_cls(**kwargs)`` on a machine.

    ``workload_kwargs`` is a sorted tuple of ``(name, value)`` pairs —
    not a dict — so the spec is hashable and its canonical form does not
    depend on keyword order at the call site.  Build jobs with
    :func:`make_job`, which normalises the kwargs and machine
    parameters.
    """

    workload_cls: Type[Workload]
    workload_kwargs: Tuple[Tuple[str, Any], ...]
    protocol: str
    params: MachineParams
    software: str = "flexible"
    track_worker_sets: bool = False
    #: Collect a cycle-attribution artifact (repro.obs.attribution)
    #: alongside the counters.  Part of the spec — an attributed result
    #: carries more data, so it caches under a different key — but the
    #: dimension is only *added* to the canonical form when enabled, so
    #: every pre-existing cache entry keeps its key.
    attribution: bool = False
    #: Write-invalidation strategy (see Machine: "parallel",
    #: "sequential", or "dynamic").  A spec dimension — it changes
    #: simulated cycle counts — added to the canonical form only when
    #: non-default, preserving every historical key, like attribution.
    invalidation_mode: str = "parallel"

    def build_workload(self) -> Workload:
        return self.workload_cls(**dict(self.workload_kwargs))


def make_job(
    workload_cls: Type[Workload],
    workload_kwargs: Optional[Mapping[str, Any]] = None,
    *,
    protocol: str,
    params: Optional[MachineParams] = None,
    n_nodes: int = 64,
    victim_cache: bool = True,
    perfect_ifetch: bool = False,
    software: str = "flexible",
    track_worker_sets: bool = False,
    attribution: bool = False,
    invalidation_mode: str = "parallel",
) -> SimJob:
    """Build a :class:`SimJob`, normalising kwargs and machine params.

    Either pass a full ``params`` or the common shorthand trio
    (``n_nodes`` / ``victim_cache`` / ``perfect_ifetch``), mirroring
    :func:`repro.analysis.experiments.run_one`.
    """
    if params is None:
        params = MachineParams(
            n_nodes=n_nodes,
            victim_cache_enabled=victim_cache,
            perfect_ifetch=perfect_ifetch,
        )
    normalized = tuple(sorted((workload_kwargs or {}).items()))
    return SimJob(
        workload_cls=workload_cls,
        workload_kwargs=normalized,
        protocol=protocol,
        params=params,
        software=software,
        track_worker_sets=track_worker_sets,
        attribution=attribution,
        invalidation_mode=invalidation_mode,
    )


# ----------------------------------------------------------------------
# Canonical form and keys
# ----------------------------------------------------------------------

def canonical_dict(job: SimJob) -> Dict[str, Any]:
    """The spec as a plain sorted-key-friendly dict.

    Workload classes are named by ``module:qualname`` (stable across
    processes); machine parameters expand to every field so *any*
    parameter change produces a different canonical form.
    """
    cls = job.workload_cls
    doc: Dict[str, Any] = {
        "workload": f"{cls.__module__}:{cls.__qualname__}",
        "workload_kwargs": dict(job.workload_kwargs),
        "protocol": job.protocol,
        # A shallow copy: every field is an int or a bool, so this equals
        # dataclasses.asdict without its recursive deep copy.
        "params": {field.name: getattr(job.params, field.name)
                   for field in dataclasses.fields(job.params)},
        "software": job.software,
        "track_worker_sets": job.track_worker_sets,
    }
    if job.attribution:
        # Added only when enabled: plain jobs keep their historical
        # canonical form, keys, and cache entries.
        doc["attribution"] = True
    if job.invalidation_mode != "parallel":
        # Same append-only rule: the default mode keeps its key.
        doc["invalidation_mode"] = job.invalidation_mode
    return doc


def canonical_json(job: SimJob) -> str:
    """Deterministic JSON encoding of :func:`canonical_dict`."""
    return json.dumps(canonical_dict(job), sort_keys=True,
                      separators=(",", ":"))


def job_key(job: SimJob) -> str:
    """Stable identifier of a job spec.

    Two call sites that describe the same experiment — regardless of
    keyword order or which driver built the spec — get the same key, so
    result maps deduplicate and cache lookups are exact.  The key is
    readable (workload and protocol up front) with a canonical-form
    digest for the rest.
    """
    digest = hashlib.sha256(canonical_json(job).encode("utf-8")).hexdigest()
    return (f"{job.workload_cls.__name__.lower()}"
            f":{job.protocol}:{digest[:16]}")


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

def execute_job(job: SimJob, check_invariants: bool = False) -> RunStats:
    """Run one job to completion on a fresh machine.

    Module-level (not a closure) so worker processes can unpickle and
    call it directly.  With ``check_invariants`` a continuous
    :class:`~repro.core.protocol.invariants.InvariantChecker` rides the
    run (observers never perturb cycle counts, so the statistics are
    identical either way) and any violation raises
    :class:`~repro.core.protocol.invariants.InvariantViolation`.

    ``check_invariants`` is an execution-mode knob, not part of the job
    spec, so it never changes a job's cache key.  The machine is closed
    (:meth:`~repro.machine.machine.Machine.close`) on the way out, also
    when the run raises, so reference counting frees it.  Fleet telemetry
    attaches nothing here: the runner times the call from outside
    (:func:`repro.obs.fleet.run_timed`), so a job runs the same
    machine with telemetry on or off.
    """
    from repro.machine.machine import Machine

    machine = Machine(
        job.params,
        protocol=job.protocol,
        software=job.software,
        track_worker_sets=job.track_worker_sets,
        invalidation_mode=job.invalidation_mode,
    )
    try:
        checker = None
        if check_invariants:
            from repro.core.protocol.invariants import InvariantChecker

            checker = InvariantChecker.attach(machine)
        report = None
        if job.attribution:
            from repro.obs.attribution import AttributionReport

            report = AttributionReport.attach(machine)
        stats = machine.run(job.build_workload())
        if checker is not None:
            checker.finish()
            checker.assert_clean()
        if report is not None:
            from repro.obs.attribution import attribution_dict

            stats.attribution = attribution_dict(
                report, config={"job": job_key(job)})
        return stats
    finally:
        machine.close()
