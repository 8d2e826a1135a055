#!/usr/bin/env python3
"""Run the repro benchmark.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace 0|1] [--out FILE]

Each workload runs in fresh processes, one at a time, with the source
tree's ``src/`` on their path and ``REPRO_DISPATCH``/``REPRO_SHARDS``
removed so every run measures the defaults.  ``S`` defaults to
``run_seconds`` of ``BENCHMARK.json``:

- one process that sets up and runs checked reps for ``S`` seconds;
- ``--trace 0``: also :data:`PROBES` processes that only set up.
  Reports the end-to-end metrics of ``BENCHMARK.json``.
- ``--trace 1``: also one process that runs a warm-up rep and then one
  rep under cProfile.  Reports the per-layer metrics.
- no ``--trace``: both.

Every metric is printed by name with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (names prefixed ``WORKLOAD/`` when more than
one workload runs).  ``--out`` writes the full record: samples, rep
quartiles, layer self times and the host.  Exits 1 if any rep failed
its output check, 2 if the source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Sequence

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Set-up-only processes per timed run.  With the timed process itself
#: they give nine set-up samples, whose median is ``setup_s``.
PROBES = 8

#: The farm's cold sweep simulates 59 jobs (about 26 s on one core).
SWEEP_TIMEOUT_S = 150


class ChildFailed(RuntimeError):
    """A workload process crashed or timed out."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for knob in ("REPRO_DISPATCH", "REPRO_SHARDS"):
        env.pop(knob, None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    # Fixed string hashing, so traced call counts repeat exactly.
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, mode: str, seed: int, seconds: float, tmp: str,
          timeout: float) -> Dict:
    """Run one workload process; its last stdout line, parsed."""
    cmd = [sys.executable, os.path.join(BENCH, "workloads.py"),
           "--workload", workload, "--mode", mode, "--seed", str(seed),
           "--seconds", repr(seconds), "--tmp", tmp]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=child_env(), cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} {mode}: no result in {timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} {mode}: exit {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values: Sequence[float]) -> List[float]:
    """[q1, median, q3], as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def tail(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """The highest whole percentile with at least ten samples above it,
    if that is above the median."""
    if len(values) < 20:
        return None
    cuts = statistics.quantiles(values, n=100)
    for pct in range(99, 49, -1):
        if sum(v > cuts[pct - 1] for v in values) >= 10:
            return {"percentile": pct, "value": cuts[pct - 1]}
    return None


def rep_summary(rep_s: Sequence[float]) -> Dict:
    q1, median, q3 = quartiles(rep_s)
    return {"n": len(rep_s), "median_s": median, "q1_s": q1, "q3_s": q3,
            "tail": tail(rep_s)}


def end_to_end(workload: str, seed: int, seconds: float, tmp: str,
               run: Dict) -> Dict[str, List[float]]:
    """Samples of each end-to-end metric: the timed ``run`` plus the
    set-up probes."""
    setups = [spawn(workload, "probe", seed, seconds, tmp, 60)["setup_s"]
              for _ in range(PROBES)]
    setups.append(run["setup_s"])
    return {"sim_cycles_per_s": run["rates"], "setup_s": setups,
            "peak_rss_mb": [run["peak_rss_kb"] / 1024]}


def per_layer_values(trace: Dict, untraced_median_s: float) -> Dict:
    """Per-layer metric values from a traced run's record."""
    values: Dict[str, float] = {}
    for layer, entry in trace["layers"].items():
        values[f"{layer}.share"] = entry["share"]
        values[f"{layer}.calls_in"] = entry["calls_in"]
    values.update(trace["counts"])
    values["sim.events_per_s"] = (trace["counts"]["sim.events"]
                                  / untraced_median_s)
    values["trace.total_s"] = trace["total_s"]
    values["trace.overhead"] = trace["traced_s"] / untraced_median_s
    return values


def trace_problems(trace: Dict) -> List[str]:
    """The reducer's own consistency checks."""
    total = trace["total_s"]
    charged = sum(entry["self_s"] for entry in trace["layers"].values())
    problems = []
    if abs(charged - total) > 0.01 * total:
        problems.append(f"layer self times sum to {charged}, not {total}")
    if trace["layers"]["runtime"]["share"] >= 0.01:
        problems.append("over 1% of traced time is unattributed")
    return problems


def traced(workload: str, seed: int, seconds: float, tmp: str,
           untraced_median_s: float) -> Dict:
    """One profiled rep: the per-layer metrics."""
    trace = spawn(workload, "trace", seed, seconds, tmp, 120)["trace"]
    problems = trace_problems(trace)
    for problem in problems:
        print(f"{workload}: {problem}", file=sys.stderr)
    return {
        "failed": trace["failed"] + bool(problems),
        "values": per_layer_values(trace, untraced_median_s),
        "layers": trace["layers"],
        "traced_s": trace["traced_s"],
    }


def host(seed: int, seconds: float) -> Dict:
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "python": platform.python_version(), "git_sha": sha,
            "seed": seed, "seconds": seconds}


def run_workload(name: str, spec: Dict, args, tmp: str) -> Dict:
    record: Dict = {"metrics": {}}
    if name == "quick_farm":
        record["sweep"] = spawn(name, "sweep", args.seed, args.seconds, tmp,
                                SWEEP_TIMEOUT_S)
    run = spawn(name, "measure", args.seed, args.seconds, tmp,
                args.seconds + 90)
    record["attempted"] = run["attempted"]
    record["failed"] = run["failed"]
    record["reps"] = rep_summary(run["rep_s"])
    record["calibration_s"] = statistics.median(run["cal_s"])
    if args.trace in (None, 0):
        samples = end_to_end(name, args.seed, args.seconds, tmp, run)
        for metric in spec["end_to_end"]:
            values = samples[metric["name"]]
            record["metrics"][metric["name"]] = {
                "value": statistics.median(values) if values else 0.0,
                "unit": metric["unit"], "samples": values}
    if args.trace in (None, 1):
        layered = traced(name, args.seed, args.seconds, tmp,
                         record["reps"]["median_s"])
        for metric in spec["per_layer"]:
            record["metrics"][metric["name"]] = {
                "value": layered["values"][metric["name"]],
                "unit": metric["unit"]}
        record["attempted"] += 1
        record["failed"] += layered["failed"]
        record["traced"] = {key: layered[key]
                            for key in ("layers", "traced_s")}
    record["correct"] = record["failed"] == 0
    return record


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"bench: no source tree at {SRC}", file=sys.stderr)
        return 2
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default every workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", help="write the full JSON record here")
    args = parser.parse_args(argv)
    workloads = args.workload or names

    tmp = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        records = {name: run_workload(name, spec, args, tmp)
                   for name in workloads}
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result = {"correct": all(r["correct"] for r in records.values()),
              "attempted": sum(r["attempted"] for r in records.values()),
              "failed": sum(r["failed"] for r in records.values()),
              "metrics": {}}
    for name, record in records.items():
        prefix = f"{name}/" if len(workloads) > 1 else ""
        for metric, entry in record["metrics"].items():
            print(f"{name:<20} {metric:<28} {entry['value']:>16.6g} "
                  f"{entry['unit']}")
            result["metrics"][prefix + metric] = {
                "value": entry["value"], "unit": entry["unit"]}
        print(f"{name:<20} {'reps':<28} {record['attempted']:>16} "
              f"attempted, {record['failed']} failed")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"schema": "repro-bench/1",
                       "host": host(args.seed, args.seconds),
                       "workloads": records}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # Unwind on SIGTERM too, so the temp dir goes and children are killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
