#!/usr/bin/env python3
"""Benchmark the experiment pipeline; writes ``BENCH_experiments.json``.

Seeds the performance trajectory for the repository: each PR that
touches the engine or the runner can re-run this tool and compare
against the committed record.  Measured quantities:

- **engine**: raw event-loop throughput (events/sec) — a drain bench
  (pop + dispatch of pre-scheduled events) and a chain bench
  (schedule + pop + dispatch), plus wall-clock for a reference WORKER
  simulation;
- **drivers**: wall-clock of every experiment driver at the quick
  preset, three ways — serial (``--jobs 1``, cache off), parallel
  (``--jobs auto``, cache off), and a warm-cache replay.

Usage::

    python tools/bench_experiments.py [output.json] [--preset quick|full]

Wall-clock numbers vary with the host; the point of the record is the
*trajectory* (this machine, PR over PR) and the derived ratios
(parallel speedup, cache speedup, events/sec).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import sys
import tempfile
import time

from repro.analysis import reportgen
from repro.analysis.experiments import (
    fig2_plan,
    fig3_plan,
    fig4_plan,
    fig5_plan,
    fig6_plan,
    table1_plan,
    table2_plan,
    table3_plan,
)
from repro.exec import JobRunner, ResultCache
from repro.machine.machine import Machine
from repro.machine.params import MachineParams
from repro.sim.engine import Simulator
from repro.workloads.worker import WorkerBenchmark

PLANNERS = {
    "table1": table1_plan,
    "table2": table2_plan,
    "table3": table3_plan,
    "fig2": fig2_plan,
    "fig3": fig3_plan,
    "fig4": fig4_plan,
    "fig5": fig5_plan,
    "fig6": fig6_plan,
}


# ----------------------------------------------------------------------
# Engine microbenchmarks
# ----------------------------------------------------------------------

def bench_engine_drain(n_events: int = 300_000) -> dict:
    """Pop + dispatch throughput over a pre-scheduled heap."""
    sim = Simulator()
    noop = lambda: None  # noqa: E731 - the cheapest possible event body
    for t in range(n_events):
        sim.at(t, noop)
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    return {"events": n_events, "seconds": elapsed,
            "events_per_sec": n_events / elapsed}


def bench_engine_chain(n_events: int = 300_000) -> dict:
    """Schedule + pop + dispatch throughput: each event schedules the
    next, the simulator's steady-state shape."""
    sim = Simulator()
    remaining = [n_events]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.after(1, tick)

    sim.at(0, tick)
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    return {"events": n_events, "seconds": elapsed,
            "events_per_sec": n_events / elapsed}


#: Each timed quantity is repeated until it has accumulated at least
#: this much wall clock (sub-millisecond drivers would otherwise round
#: to a zero-second sample and an undefined rate).
MIN_BENCH_SECONDS = 0.25

#: Repetition ceiling, so trivially fast benchmarks still terminate.
MAX_BENCH_REPS = 50

#: The WORKER reference run is the PR-over-PR trajectory metric, so it
#: gets a larger budget: single runs on a busy host swing by +-10%,
#: and best-of-many is the stable estimator of the achievable rate.
WORKER_MIN_SECONDS = 2.5


def _worker_reference_once() -> "tuple[float, int]":
    """One timed WORKER reference run; (seconds, run_cycles)."""
    t0 = time.perf_counter()
    machine = Machine(MachineParams(n_nodes=16), protocol="DirnH5SNB")
    stats = machine.run(WorkerBenchmark(worker_set_size=8, iterations=4))
    return time.perf_counter() - t0, stats.run_cycles


def bench_worker_reference() -> dict:
    """Wall-clock of a reference software-heavy WORKER simulation.

    Repeats until :data:`WORKER_MIN_SECONDS` of wall clock has
    accumulated and reports the fastest repetition: best-of-many
    estimates the achievable rate on a busy host.
    """
    best = None
    total = 0.0
    cycles = 0
    reps = 0
    while total < WORKER_MIN_SECONDS and reps < MAX_BENCH_REPS:
        elapsed, cycles = _worker_reference_once()
        total += elapsed
        if best is None or elapsed < best:
            best = elapsed
        reps += 1
    return {
        "config": "WORKER ws=8 it=4, 16 nodes, DirnH5SNB",
        "reps": reps,
        "seconds": best,
        "run_cycles": cycles,
        "sim_cycles_per_sec": cycles / best,
    }


# ----------------------------------------------------------------------
# Driver benchmarks
# ----------------------------------------------------------------------

def _plans(preset: str) -> dict:
    sizes_of = reportgen.PRESETS[preset]
    return {name: planner(**sizes_of[name])
            for name, planner in PLANNERS.items()}


def _time_sweep(plans: dict, make_runner) -> "tuple[dict, dict]":
    """Wall seconds and summed simulated cycles per driver.

    ``make_runner`` is a zero-argument factory: the runner memoizes
    results in-process, so every timed repetition needs a fresh one.
    Each driver repeats until :data:`MIN_BENCH_SECONDS` of wall clock
    has accumulated (sub-millisecond drivers — e.g. table2, whose jobs
    all alias table1's — previously rounded to ``0.0`` seconds and a
    ``null`` rate) and reports the mean seconds per repetition.

    Cycles come from the result map (every planned job, executed or
    replayed), so ``cycles / seconds`` is the driver's effective
    sim-cycle throughput under this runner — the same quantity the
    fleet monitor reports live as ``sim_cycles_per_sec``.
    """
    timings = {}
    cycles = {}
    for name, plan in plans.items():
        total = 0.0
        reps = 0
        while total < MIN_BENCH_SECONDS and reps < MAX_BENCH_REPS:
            runner = make_runner()
            t0 = time.perf_counter()
            results = runner.run(plan)
            total += time.perf_counter() - t0
            reps += 1
        timings[name] = total / reps
        cycles[name] = sum(stats.run_cycles for stats in results.values())
    return timings, cycles


def bench_drivers(preset: str) -> dict:
    """Serial vs parallel vs warm-cache wall clock per driver."""
    plans = _plans(preset)

    serial, sim_cycles = _time_sweep(plans, lambda: JobRunner(jobs=1))

    parallel_runner = JobRunner(jobs="auto")
    parallel, _ = _time_sweep(plans, lambda: JobRunner(jobs="auto"))

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cache = ResultCache(tmp)
        JobRunner(jobs=1, cache=cache).run(
            [job for plan in plans.values() for job in plan])  # populate
        warm, _ = _time_sweep(plans, lambda: JobRunner(jobs=1, cache=cache))

    serial_total = round(sum(serial.values()), 3)
    parallel_total = round(sum(parallel.values()), 3)
    warm_total = round(sum(warm.values()), 3)
    return {
        "preset": preset,
        "parallel_workers": parallel_runner.n_workers,
        "per_driver": {
            name: {"serial_s": round(serial[name], 6),
                   "parallel_s": round(parallel[name], 6),
                   "warm_cache_s": round(warm[name], 6),
                   "sim_cycles": sim_cycles[name],
                   "sim_cycles_per_sec": round(
                       sim_cycles[name] / serial[name], 1)}
            for name in plans
        },
        "totals": {
            "serial_s": serial_total,
            "parallel_s": parallel_total,
            "warm_cache_s": warm_total,
            "parallel_speedup": round(
                serial_total / parallel_total, 2) if parallel_total else None,
            "cache_speedup": round(
                serial_total / warm_total, 1) if warm_total else None,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", nargs="?",
                        default="BENCH_experiments.json")
    parser.add_argument("--preset", choices=sorted(reportgen.PRESETS),
                        default="quick",
                        help="driver problem sizes (default quick)")
    args = parser.parse_args(argv)

    print("engine: drain bench...", flush=True)
    drain = bench_engine_drain()
    print(f"  {drain['events_per_sec']:,.0f} events/sec", flush=True)
    print("engine: chain bench...", flush=True)
    chain = bench_engine_chain()
    print(f"  {chain['events_per_sec']:,.0f} events/sec", flush=True)
    print("engine: WORKER reference...", flush=True)
    worker = bench_worker_reference()
    print(f"  {worker['sim_cycles_per_sec']:,.0f} sim cycles/sec",
          flush=True)
    print(f"drivers ({args.preset} preset): serial, parallel, "
          f"warm cache...", flush=True)
    drivers = bench_drivers(args.preset)
    totals = drivers["totals"]
    print(f"  serial {totals['serial_s']}s, parallel "
          f"{totals['parallel_s']}s ({drivers['parallel_workers']} "
          f"workers, {totals['parallel_speedup']}x), warm cache "
          f"{totals['warm_cache_s']}s ({totals['cache_speedup']}x)",
          flush=True)

    doc = {
        "schema": "repro-bench-experiments/1",
        "generated": datetime.date.today().isoformat(),
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "engine": {
            "drain": drain,
            "chain": chain,
            "worker_reference": worker,
        },
        "drivers": drivers,
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
