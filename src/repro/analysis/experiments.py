"""Experiment drivers: one function per table/figure of the paper.

Each driver works in two phases (the plan/collect shape):

- a ``*_plan()`` function enumerates the :class:`~repro.exec.jobs.SimJob`
  specs the table or figure needs — the whole sweep as a flat job list,
  with nothing simulated yet;
- the driver hands the plan to a :class:`~repro.exec.pool.JobRunner`
  (callers pass ``runner=`` to share one pool + result cache across
  drivers; the default is an in-process serial runner) and assembles its
  result structure from the returned ``{job_key: RunStats}`` map.

Because jobs are keyed by canonical spec, duplicate configurations —
the full-map baselines shared between figures, the WORKER runs shared
by Tables 1 and 2 — coalesce before any simulation runs, and the
assembled output is identical for any worker count.

The ``benchmarks/`` suite formats driver results into the paper's
tables and figures, and ``EXPERIMENTS.md`` records the outcomes.
Problem sizes are the calibrated defaults from the workload classes;
tests pass smaller sizes through the driver arguments.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)


from repro.exec.jobs import SimJob, job_key, make_job
from repro.exec.pool import JobRunner
from repro.machine.machine import Machine
from repro.machine.params import MachineParams
from repro.sim.stats import RunStats
from repro.workloads.aq import AdaptiveQuadrature
from repro.workloads.base import Workload
from repro.workloads.evolve import Evolve
from repro.workloads.mp3d import MP3D
from repro.workloads.smgrid import StaticMultigrid
from repro.workloads.tsp import TSP
from repro.workloads.water import Water
from repro.workloads.worker import WorkerBenchmark

#: Alewife's clock (Section 3.1), used to convert cycles to seconds.
CLOCK_HZ = 33_000_000

#: The protocols shown in the application figures (Figure 4 uses the
#: ,ACK variant for the one-pointer protocol).
FIGURE4_PROTOCOLS: Tuple[str, ...] = (
    "DirnH0SNB,ACK",
    "DirnH1SNB,ACK",
    "DirnH2SNB",
    "DirnH5SNB",
    "DirnHNBS-",
)

#: The protocols of the WORKER study (Figure 2).
FIGURE2_PROTOCOLS: Tuple[str, ...] = (
    "DirnH0SNB,ACK",
    "DirnH1SNB,ACK",
    "DirnH1SNB,LACK",
    "DirnH1SNB",
    "DirnH2SNB",
    "DirnH3SNB",
    "DirnH4SNB",
    "DirnH5SNB",
)

WorkloadFactory = Callable[[], Workload]

#: The six applications of Section 6, with calibrated 64-node sizes.
APPLICATIONS: "OrderedDict[str, WorkloadFactory]" = OrderedDict(
    (
        ("tsp", TSP),
        ("aq", AdaptiveQuadrature),
        ("smgrid", StaticMultigrid),
        ("evolve", Evolve),
        ("mp3d", MP3D),
        ("water", Water),
    )
)


def run_one(
    workload: Workload,
    protocol: str,
    n_nodes: Optional[int] = None,
    victim_cache: Optional[bool] = None,
    perfect_ifetch: Optional[bool] = None,
    software: str = "flexible",
    track_worker_sets: bool = False,
    params: Optional[MachineParams] = None,
) -> RunStats:
    """Run one workload on a fresh machine and return its statistics.

    Configure the machine either with an explicit ``params`` or with the
    shorthand trio ``n_nodes`` (default 64) / ``victim_cache`` (default
    True) / ``perfect_ifetch`` (default False) — not both.  Passing
    ``params`` together with any of the shorthands raises
    :class:`ValueError`: the shorthands used to be silently ignored,
    which made ``run_one(w, p, n_nodes=16, params=my_params)`` run on
    ``my_params.n_nodes`` nodes without a whisper.
    """
    if params is not None:
        conflicting = [
            name
            for name, value in (
                ("n_nodes", n_nodes),
                ("victim_cache", victim_cache),
                ("perfect_ifetch", perfect_ifetch),
            )
            if value is not None
        ]
        if conflicting:
            raise ValueError(
                f"run_one() got both params= and "
                f"{', '.join(conflicting)}; pass machine configuration "
                f"one way or the other"
            )
    else:
        params = MachineParams(
            n_nodes=64 if n_nodes is None else n_nodes,
            victim_cache_enabled=(True if victim_cache is None
                                  else victim_cache),
            perfect_ifetch=bool(perfect_ifetch),
        )
    machine = Machine(params, protocol=protocol, software=software,
                      track_worker_sets=track_worker_sets)
    try:
        return machine.run(workload)
    finally:
        machine.close()


def _run_jobs(plan: Sequence[SimJob],
              runner: Optional[JobRunner]) -> Dict[str, RunStats]:
    """Execute a driver's plan on ``runner`` (serial in-process when
    the caller did not supply one)."""
    if runner is None:
        runner = JobRunner(jobs=1)
    return runner.run(plan)


def protocol_sweep(
    factory: WorkloadFactory,
    protocols: Sequence[str],
    n_nodes: int = 64,
    victim_cache: bool = True,
    perfect_ifetch: bool = False,
    runner: Optional[JobRunner] = None,
) -> "OrderedDict[str, RunStats]":
    """Run the same workload configuration across several protocols."""
    jobs = [
        make_job(factory, protocol=protocol, n_nodes=n_nodes,
                 victim_cache=victim_cache, perfect_ifetch=perfect_ifetch)
        for protocol in protocols
    ]
    results = _run_jobs(jobs, runner)
    return OrderedDict(
        (protocol, results[job_key(job)])
        for protocol, job in zip(protocols, jobs)
    )


# ----------------------------------------------------------------------
# Table 1: software handler latencies, C vs assembly
# ----------------------------------------------------------------------

@dataclasses.dataclass
class Table1Row:
    readers: int
    c_read: float
    asm_read: float
    c_write: float
    asm_write: float


def _worker_job(size: int, protocol: str, n_nodes: int, iterations: int,
                software: str = "flexible") -> SimJob:
    """A WORKER run as the Section 4/5 studies configure it (no victim
    cache, so directory behaviour is isolated)."""
    return make_job(
        WorkerBenchmark,
        {"worker_set_size": size, "iterations": iterations},
        protocol=protocol, n_nodes=n_nodes, victim_cache=False,
        software=software,
    )


def table1_plan(
    readers: Sequence[int] = (8, 12, 16),
    n_nodes: int = 16,
    iterations: int = 3,
) -> List[SimJob]:
    """Jobs for Table 1: WORKER under both software implementations,
    one pair per reader count."""
    return [
        _worker_job(r, "DirnH5SNB", n_nodes, iterations, software)
        for r in readers
        for software in ("flexible", "optimized")
    ]


def table1_handler_latencies(
    readers: Sequence[int] = (8, 12, 16),
    n_nodes: int = 16,
    iterations: int = 3,
    runner: Optional[JobRunner] = None,
) -> List[Table1Row]:
    """Average DirnH5SNB handler latencies measured from WORKER runs."""
    results = _run_jobs(table1_plan(readers, n_nodes, iterations), runner)
    rows = []
    for r in readers:
        means: Dict[Tuple[str, str], float] = {}
        for software in ("flexible", "optimized"):
            stats = results[job_key(
                _worker_job(r, "DirnH5SNB", n_nodes, iterations, software))]
            means[("read", software)] = stats.mean_handler_latency(
                "read", software)
            means[("write", software)] = stats.mean_handler_latency(
                "write", software)
        rows.append(Table1Row(
            readers=r,
            c_read=means[("read", "flexible")],
            asm_read=means[("read", "optimized")],
            c_write=means[("write", "flexible")],
            asm_write=means[("write", "optimized")],
        ))
    return rows


# ----------------------------------------------------------------------
# Table 2: cycle breakdown of median handlers (8 readers, 1 writer)
# ----------------------------------------------------------------------

def table2_plan(n_nodes: int = 16, readers: int = 8,
                iterations: int = 3) -> List[SimJob]:
    """Jobs for Table 2 (shared with Table 1's when sizes align)."""
    return [
        _worker_job(readers, "DirnH5SNB", n_nodes, iterations, software)
        for software in ("flexible", "optimized")
    ]


def table2_breakdowns(n_nodes: int = 16, readers: int = 8,
                      iterations: int = 3,
                      runner: Optional[JobRunner] = None,
                      ) -> Dict[Tuple[str, str], Dict[str, int]]:
    """Median read/write handler activity breakdowns for both software
    implementations, keyed by (request, implementation).

    Shares its WORKER runs with Table 1 when both drivers use the same
    runner (the specs coalesce by job key).
    """
    results = _run_jobs(table2_plan(n_nodes, readers, iterations), runner)
    out: Dict[Tuple[str, str], Dict[str, int]] = {}
    for software in ("flexible", "optimized"):
        stats = results[job_key(
            _worker_job(readers, "DirnH5SNB", n_nodes, iterations,
                        software))]
        for request in ("read", "write"):
            sample = stats.median_handler_sample(request, software)
            if sample is not None:
                out[(request, software)] = dict(sample.breakdown)
    return out


# ----------------------------------------------------------------------
# Table 3: application characteristics
# ----------------------------------------------------------------------

@dataclasses.dataclass
class Table3Row:
    name: str
    language: str
    size: str
    sequential_seconds: float


#: Source language of each application in the paper.
APP_LANGUAGES = {
    "tsp": "Mul-T",
    "aq": "Semi-C",
    "smgrid": "Mul-T",
    "evolve": "Mul-T",
    "mp3d": "C",
    "water": "C",
}


def table3_plan(n_nodes: int = 64) -> List[SimJob]:
    """Jobs for Table 3: every application on the full-map machine."""
    return [
        make_job(factory, protocol="DirnHNBS-", n_nodes=n_nodes)
        for factory in APPLICATIONS.values()
    ]


def table3_applications(
    n_nodes: int = 64,
    runner: Optional[JobRunner] = None,
) -> List[Table3Row]:
    """Application characteristics with measured sequential times."""
    results = _run_jobs(table3_plan(n_nodes), runner)
    rows = []
    for name, factory in APPLICATIONS.items():
        stats = results[job_key(
            make_job(factory, protocol="DirnHNBS-", n_nodes=n_nodes))]
        size = _workload_size(factory())
        rows.append(Table3Row(
            name=name,
            language=APP_LANGUAGES[name],
            size=size,
            sequential_seconds=stats.sequential_cycles / CLOCK_HZ,
        ))
    return rows


def _workload_size(workload: Workload) -> str:
    if isinstance(workload, TSP):
        return f"{workload.n_cities} city tour"
    if isinstance(workload, AdaptiveQuadrature):
        return f"tol {workload.tolerance}"
    if isinstance(workload, StaticMultigrid):
        return f"{workload.n + 1} x {workload.n + 1}"
    if isinstance(workload, Evolve):
        return f"{workload.dimensions} dimensions"
    if isinstance(workload, MP3D):
        return f"{workload.n_particles} particles"
    if isinstance(workload, Water):
        return f"{workload.n_molecules} molecules"
    return "-"


# ----------------------------------------------------------------------
# Figure 2: WORKER run-time ratio to full-map vs worker-set size
# ----------------------------------------------------------------------

def fig2_plan(
    sizes: Sequence[int] = (1, 2, 4, 6, 8, 12, 16),
    protocols: Sequence[str] = FIGURE2_PROTOCOLS,
    n_nodes: int = 16,
    iterations: int = 4,
) -> List[SimJob]:
    """Jobs for Figure 2: the full-map baseline plus every protocol,
    per worker-set size."""
    jobs = []
    for size in sizes:
        jobs.append(_worker_job(size, "DirnHNBS-", n_nodes, iterations))
        for protocol in protocols:
            jobs.append(_worker_job(size, protocol, n_nodes, iterations))
    return jobs


def fig2_worker_ratios(
    sizes: Sequence[int] = (1, 2, 4, 6, 8, 12, 16),
    protocols: Sequence[str] = FIGURE2_PROTOCOLS,
    n_nodes: int = 16,
    iterations: int = 4,
    runner: Optional[JobRunner] = None,
) -> Dict[str, List[Tuple[int, float]]]:
    """Run-time of each protocol normalised to full-map, per worker-set
    size (the paper's Figure 2 curves)."""
    results = _run_jobs(fig2_plan(sizes, protocols, n_nodes, iterations),
                        runner)
    curves: Dict[str, List[Tuple[int, float]]] = {p: [] for p in protocols}
    for size in sizes:
        base = results[job_key(
            _worker_job(size, "DirnHNBS-", n_nodes, iterations))].run_cycles
        for protocol in protocols:
            cycles = results[job_key(
                _worker_job(size, protocol, n_nodes, iterations))].run_cycles
            curves[protocol].append((size, cycles / base))
    return curves


# ----------------------------------------------------------------------
# Figure 3: TSP detailed analysis (base / perfect ifetch / victim cache)
# ----------------------------------------------------------------------

#: The three machine configurations of Figure 3.
_FIG3_CONFIGS: Tuple[Tuple[str, Dict[str, bool]], ...] = (
    ("base", dict(victim_cache=False, perfect_ifetch=False)),
    ("perfect ifetch", dict(victim_cache=False, perfect_ifetch=True)),
    ("victim cache", dict(victim_cache=True, perfect_ifetch=False)),
)


def fig3_plan(
    protocols: Sequence[str] = FIGURE4_PROTOCOLS,
    n_nodes: int = 64,
) -> List[SimJob]:
    """Jobs for Figure 3: TSP under the three machine configurations."""
    return [
        make_job(TSP, protocol=protocol, n_nodes=n_nodes, **kwargs)
        for _label, kwargs in _FIG3_CONFIGS
        for protocol in protocols
    ]


def fig3_tsp_detail(
    protocols: Sequence[str] = FIGURE4_PROTOCOLS,
    n_nodes: int = 64,
    runner: Optional[JobRunner] = None,
) -> Dict[str, "OrderedDict[str, float]"]:
    """TSP speedups under the three Figure 3 configurations."""
    results = _run_jobs(fig3_plan(protocols, n_nodes), runner)
    out: Dict[str, "OrderedDict[str, float]"] = {}
    for label, kwargs in _FIG3_CONFIGS:
        column: "OrderedDict[str, float]" = OrderedDict()
        for protocol in protocols:
            stats = results[job_key(
                make_job(TSP, protocol=protocol, n_nodes=n_nodes,
                         **kwargs))]
            column[protocol] = stats.speedup
        out[label] = column
    return out


# ----------------------------------------------------------------------
# Figure 4: application speedups across the spectrum
# ----------------------------------------------------------------------

def fig4_plan(
    apps: Optional[Sequence[str]] = None,
    protocols: Sequence[str] = FIGURE4_PROTOCOLS,
    n_nodes: int = 64,
) -> List[SimJob]:
    """Jobs for Figure 4: each chosen application across the spectrum."""
    chosen = list(APPLICATIONS) if apps is None else list(apps)
    return [
        make_job(APPLICATIONS[name], protocol=protocol, n_nodes=n_nodes)
        for name in chosen
        for protocol in protocols
    ]


def fig4_application_speedups(
    apps: Optional[Sequence[str]] = None,
    protocols: Sequence[str] = FIGURE4_PROTOCOLS,
    n_nodes: int = 64,
    runner: Optional[JobRunner] = None,
) -> "OrderedDict[str, OrderedDict[str, float]]":
    """Speedup of each application per protocol (victim caching on, as
    the paper does for everything after the TSP study)."""
    results = _run_jobs(fig4_plan(apps, protocols, n_nodes), runner)
    chosen = list(APPLICATIONS) if apps is None else list(apps)
    out: "OrderedDict[str, OrderedDict[str, float]]" = OrderedDict()
    for name in chosen:
        column: "OrderedDict[str, float]" = OrderedDict()
        for protocol in protocols:
            stats = results[job_key(
                make_job(APPLICATIONS[name], protocol=protocol,
                         n_nodes=n_nodes))]
            column[protocol] = stats.speedup
        out[name] = column
    return out


# ----------------------------------------------------------------------
# Figure 5: TSP on 256 nodes
# ----------------------------------------------------------------------

def fig5_plan(
    protocols: Sequence[str] = FIGURE4_PROTOCOLS,
    n_nodes: int = 256,
) -> List[SimJob]:
    """Jobs for Figure 5: the scaled 256-node TSP per protocol."""
    return [
        make_job(TSP, {"n_cities": 13, "prefix_depth": 4},
                 protocol=protocol, n_nodes=n_nodes)
        for protocol in protocols
    ]


def fig5_tsp_256(
    protocols: Sequence[str] = FIGURE4_PROTOCOLS,
    n_nodes: int = 256,
    runner: Optional[JobRunner] = None,
) -> "OrderedDict[str, float]":
    """TSP speedups on a 256-node machine with victim caching.

    The paper runs the *same* problem on more nodes; our scaled problem
    grows one city (13 vs the 64-node runs' 12) so that 256 nodes have
    enough subtrees each for the start-up transient to amortise — the
    paper's billion-cycle run gets that for free.
    """
    jobs = fig5_plan(protocols, n_nodes)
    results = _run_jobs(jobs, runner)
    out: "OrderedDict[str, float]" = OrderedDict()
    for protocol, job in zip(protocols, jobs):
        out[protocol] = results[job_key(job)].speedup
    return out


# ----------------------------------------------------------------------
# Figure 6: EVOLVE worker-set histogram
# ----------------------------------------------------------------------

def fig6_plan(n_nodes: int = 64) -> List[SimJob]:
    """The single worker-set-tracking EVOLVE job of Figure 6."""
    return [
        make_job(Evolve, protocol="DirnHNBS-", n_nodes=n_nodes,
                 track_worker_sets=True)
    ]


def fig6_evolve_worker_sets(
    n_nodes: int = 64,
    runner: Optional[JobRunner] = None,
) -> Mapping[int, int]:
    """Histogram of worker-set sizes at the end of an EVOLVE run."""
    (job,) = fig6_plan(n_nodes)
    stats = _run_jobs([job], runner)[job_key(job)]
    assert stats.worker_set_histogram is not None
    return stats.worker_set_histogram


# ----------------------------------------------------------------------
# Convenience: relative performance summary (the 71%-100% headline)
# ----------------------------------------------------------------------

def relative_performance(
    speedups: Mapping[str, float],
    reference: str = "DirnHNBS-",
) -> Dict[str, float]:
    """Normalise a protocol->speedup map to the full-map entry."""
    base = speedups[reference]
    if base == 0:
        return {p: 0.0 for p in speedups}
    return {p: s / base for p, s in speedups.items()}
