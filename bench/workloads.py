"""The benchmark's workloads, and the process that runs one of them.

:mod:`run` starts this file once per set-up probe, timed run and traced
run, so every workload is measured in a fresh interpreter::

    python bench/workloads.py --workload NAME --mode MODE --seed N \\
        --seconds S --tmp DIR

Modes:

- ``sweep`` (``quick_farm`` only): the cold quick-preset sweep that
  makes the farm's inputs; writes them to ``DIR/quick_farm.pickle``;
- ``probe``: set up, report the set-up time, exit;
- ``measure``: set up, one warm-up rep, then timed reps for ``S``
  seconds, each output checked;
- ``trace``: set up, one warm-up rep, then the same input once more
  under cProfile, folded into layers by :mod:`layers`.

The last line of standard output is one JSON object with the results.
Every rep's output is hashed and compared with the outputs pinned for
its input in ``bench/expected.json`` (:class:`Checker`); a rep that
raises or differs counts as failed.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import heapq
import itertools
import json
import os
import pickle
import pstats
import random
import resource
import shutil
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional, Tuple

import layers
from repro.analysis.reportgen import render_experiments_md
from repro.exec import JobRunner, ResultCache
from repro.exec.jobs import SimJob, execute_job, make_job
from repro.machine.machine import Machine
from repro.sim.stats import RunStats
from repro.workloads.tsp import TSP
from repro.workloads.worker import WorkerBenchmark

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")
INPUTS_NAME = "quick_farm.pickle"

#: Events of the calibration loop timed before every rep, and its median
#: CPU time on the host the bounds were measured on (2-core Xeon, Python
#: 3.11).
CAL_EVENTS = 12_000
CAL_NOMINAL_S = 0.0073

#: Every time the workload process reports is its own CPU time.  Other
#: processes time-sharing the host's cores stretch wall time (a rep by
#: 1.6x with one process too many on the 2-core host), but not CPU time.
clock = time.process_time


def digest(doc) -> str:
    """sha256 of ``doc`` as sorted-key JSON."""
    encoded = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


class _Cell:
    """An actor of the calibration loop."""

    __slots__ = ("state", "fired", "seen")

    def __init__(self, i: int) -> None:
        self.state = i % 3
        self.fired = 0
        self.seen: Dict[int, int] = {}

    def fire(self, now: int, queue: list, seq, cells: List["_Cell"]) -> None:
        self.fired += 1
        self.state = (self.state + now) % 3
        peer = cells[(now * 7 + self.fired) % len(cells)]
        self.seen[peer.fired % 16] = now
        heapq.heappush(queue, (now + 1 + self.state, next(seq), peer))


def calibrate() -> float:
    """CPU seconds a fixed event loop takes on this host right now.

    A shared host's speed drifts by up to 20% over minutes, in CPU time
    too: work on a sibling core slows this one.  This loop is a small
    discrete-event simulation (a heap of timed events, method calls on
    slotted objects, dict stores), so it slows with the host much as the
    simulator does; timed right before each rep, a rep's seconds times
    ``CAL_NOMINAL_S / calibrate()`` is its time at the host's nominal
    speed.  On the 2-core host this cut the spread of 20-s medians of
    WORKER rep wall seconds from 4.4% to 1.0% (quartile distance over
    median), where a plain arithmetic loop gave 1.4%.
    """
    start = clock()
    cells = [_Cell(i) for i in range(256)]
    queue = [(i, i, cell) for i, cell in enumerate(cells[:32])]
    seq = itertools.count(len(queue))
    for _ in range(CAL_EVENTS):
        now, _, cell = heapq.heappop(queue)
        cell.fire(now, queue, seq, cells)
    return clock() - start


class RelabelledTSP(TSP):
    """TSP's seed-7 instance with cities ``1..n-1`` renamed by a shuffle
    drawn from ``labelling``.

    A renaming that keeps city 0, where every tour starts, keeps every
    tour length and the optimal bound, so every labelling prunes to the
    same search tree.  Which node searches which subtree, and which node
    homes which distance row, change with the labelling: simulated
    traffic and cycles vary while the search work stays fixed.
    """

    def __init__(self, labelling: int, n_cities: int = 12) -> None:
        super().__init__(n_cities=n_cities, seed=7)
        names = list(range(1, n_cities))
        random.Random(labelling).shuffle(names)
        order = [0] + names
        self.dist = [[self.dist[a][b] for b in order] for a in order]
        self._min_out = [self._min_out[a] for a in order]


class SimWorkload:
    """Simulation jobs run start to finish by ``execute_job``.

    ``inputs`` pairs each job with the index of its pinned outputs; rep
    ``i`` runs input ``i`` modulo their number."""

    def __init__(self, inputs: List[Tuple[int, SimJob]]) -> None:
        self.inputs = inputs

    def setup(self) -> None:
        # The first Machine generates the compiled protocol dispatch, and
        # the first workload build runs TSP's Held-Karp bound; both are
        # memoised per process, so they are set-up, not rep, cost.
        job = self.inputs[0][1]
        Machine(job.params, protocol=job.protocol, software=job.software)
        job.build_workload()

    def rep(self, i: int) -> Tuple[int, RunStats]:
        index, job = self.inputs[i % len(self.inputs)]
        return index, execute_job(job)

    @staticmethod
    def cycles(stats: RunStats) -> int:
        return stats.run_cycles

    @staticmethod
    def outputs(stats: RunStats) -> Dict[str, object]:
        doc = stats.to_json_dict()
        attribution = doc.pop("attribution", None)
        outputs: Dict[str, object] = {"stats": digest(doc)}
        if attribution is not None:
            outputs["attribution"] = digest(attribution)
        return outputs

    def cleanup(self) -> None:
        """Nothing outlives a simulation rep."""


class QuickFarm:
    """Replay the quick preset's results through the farm layer: store
    each into an empty result cache, then render EXPERIMENTS.md from
    that cache alone.  No simulation runs."""

    def __init__(self, tmp: str, seed: int) -> None:
        self.tmp = tmp
        self.seed = seed
        self.results: List[Tuple[SimJob, RunStats]] = []
        self.cold_report = ""
        self._root = ""

    def setup(self) -> None:
        with open(os.path.join(self.tmp, INPUTS_NAME), "rb") as fh:
            inputs = pickle.load(fh)  # written by this file's sweep mode
        self.results = list(inputs["results"])
        self.cold_report = inputs["report"]
        # The seed orders the stores; the report may not depend on it.
        random.Random(self.seed).shuffle(self.results)

    def rep(self, _i: int) -> Tuple[int, Tuple[str, int]]:
        self._root = tempfile.mkdtemp(prefix="farm-", dir=self.tmp)
        cache = ResultCache(self._root)
        for job, stats in self.results:
            cache.put(job, stats)
        runner = JobRunner(jobs=1, cache=cache)
        return 0, (render_experiments_md(runner, preset="quick"),
                   runner.jobs_executed)

    def cycles(self, _result) -> int:
        """Simulated cycles of every replayed result."""
        return sum(stats.run_cycles for _, stats in self.results)

    def outputs(self, result: Tuple[str, int]) -> Dict[str, object]:
        report, executed = result
        same = report == self.cold_report
        return {"report": digest(report) if same else "differs from cold",
                "jobs_executed": executed}

    def cleanup(self) -> None:
        shutil.rmtree(self._root, ignore_errors=True)


def worker16_job(attribution: bool = False) -> SimJob:
    return make_job(WorkerBenchmark,
                    {"worker_set_size": 8, "iterations": 4},
                    protocol="DirnH5SNB", n_nodes=16,
                    attribution=attribution)


def tsp64_job(labelling: int) -> SimJob:
    return make_job(RelabelledTSP, {"labelling": labelling},
                    protocol="DirnH5SNB", n_nodes=64)


def load_pins() -> Dict[str, List[Dict[str, object]]]:
    """``expected.json``: per workload, the outputs each input must give;
    for ``tsp64`` also each input's labelling."""
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def build(name: str, seed: int, tmp: str, pins: Dict):
    """The workload called ``name`` with its inputs drawn from ``seed``:
    ``tsp64`` runs its pool of labellings in the order the seed shuffles
    them, and ``quick_farm`` stores its results in that order.  WORKER
    has no seeded input."""
    if name == "worker16":
        return SimWorkload([(0, worker16_job())])
    if name == "worker16_attributed":
        return SimWorkload([(0, worker16_job(attribution=True))])
    if name == "tsp64":
        order = list(range(len(pins["tsp64"])))
        random.Random(seed).shuffle(order)
        return SimWorkload([(k, tsp64_job(pins["tsp64"][k]["labelling"]))
                            for k in order])
    if name == "quick_farm":
        return QuickFarm(tmp, seed)
    raise SystemExit(f"unknown workload {name!r}")


def expected_outputs(name: str, pins: Dict) -> Dict[int, Dict[str, object]]:
    """The outputs each input of ``name`` must give, by index."""
    expected = {index: {key: value for key, value in entry.items()
                        if key != "labelling"}
                for index, entry in enumerate(pins[name])}
    if name == "worker16_attributed":
        # Observers may not perturb results: stripped of its attribution
        # artifact, the attributed result must hash like the plain one.
        expected[0]["stats"] = pins["worker16"][0]["stats"]
    return expected


class Checker:
    """Checks each rep's outputs against the pinned outputs of its input."""

    def __init__(self, workload, expected: Dict[int, Dict[str, object]]):
        self.workload = workload
        self.expected = expected

    def __call__(self, index: int, result) -> bool:
        outputs = self.workload.outputs(result)
        expected = self.expected.get(index)
        if outputs != expected:
            print(f"output mismatch on input {index}: {outputs} != "
                  f"{expected}", file=sys.stderr)
        return outputs == expected


def run_reps(workload, check: Checker, seconds: float) -> Dict[str, object]:
    """Timed, checked reps until ``seconds`` of wall time have passed (at
    least one).

    ``rates`` holds, for each rep that passed its check, its simulated
    cycles per CPU second at the host's nominal speed (:func:`calibrate`,
    timed right before the rep)."""
    rep_s: List[float] = []
    cal: List[float] = []
    rates: List[float] = []
    failed = 0
    start = time.perf_counter()
    while not rep_s or time.perf_counter() - start < seconds:
        cal.append(calibrate())
        t0 = clock()
        try:
            index, result = workload.rep(len(rep_s))
        except Exception:  # noqa: BLE001 - a raising rep is a failed rep
            traceback.print_exc()
            result = None
        rep_s.append(clock() - t0)
        workload.cleanup()
        if result is None or not check(index, result):
            failed += 1
        else:
            nominal_s = rep_s[-1] * CAL_NOMINAL_S / cal[-1]
            rates.append(workload.cycles(result) / nominal_s)
    return {"rep_s": rep_s, "cal_s": cal, "rates": rates,
            "attempted": len(rep_s), "failed": failed}


def traced_rep(workload, check: Checker) -> Dict[str, object]:
    """Input 0 once more under cProfile, folded into per-layer numbers."""
    profiler = cProfile.Profile()
    t0 = clock()
    profiler.enable()
    try:
        index, result = workload.rep(0)
    finally:
        profiler.disable()
    traced_s = clock() - t0
    ok = check(index, result)
    workload.cleanup()
    stats = pstats.Stats(profiler).stats
    reduction = layers.Reduction(stats, layers.repro_root())
    total = reduction.total_s
    return {
        "traced_s": traced_s,
        "total_s": total,
        "failed": int(not ok),
        "layers": {layer: {"self_s": reduction.self_s[layer],
                           "share": reduction.self_s[layer] / total,
                           "calls_in": reduction.calls_in[layer]}
                   for layer in layers.LAYERS},
        "counts": layers.counts(stats),
    }


def sweep(tmp: str) -> Dict[str, object]:
    """The cold quick-preset sweep; saves its results and report."""
    start = time.perf_counter()
    cache = ResultCache(os.path.join(tmp, "sweep-cache"))
    stored: List[SimJob] = []
    cache.on_event = lambda kind, job: stored.append(job) if kind == "put" \
        else None
    report = render_experiments_md(JobRunner(jobs=1, cache=cache),
                                   preset="quick")
    sweep_s = time.perf_counter() - start
    results = [(job, cache.get(job)) for job in stored]
    with open(os.path.join(tmp, INPUTS_NAME), "wb") as fh:
        pickle.dump({"results": results, "report": report}, fh)
    return {"sweep_s": sweep_s, "jobs": len(results),
            "cycles": sum(stats.run_cycles for _, stats in results)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", required=True,
                        choices=("sweep", "probe", "measure", "trace"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args(argv)

    if args.mode == "sweep":
        print(json.dumps(sweep(args.tmp)))
        return 0
    pins = load_pins()
    workload = build(args.workload, args.seed, args.tmp, pins)
    workload.setup()
    # The process clock starts with the process, so this is the CPU time
    # of interpreter start, imports and set-up, at nominal host speed.
    setup_s = clock()
    cal = sorted(calibrate() for _ in range(3))[1]
    result: Dict[str, object] = {"setup_s": setup_s * CAL_NOMINAL_S / cal}
    if args.mode != "probe":
        check = Checker(workload, expected_outputs(args.workload, pins))
        workload.rep(0)  # warm-up: first-call caches, lazy imports
        workload.cleanup()
        if args.mode == "measure":
            result.update(run_reps(workload, check, args.seconds))
        else:
            result["trace"] = traced_rep(workload, check)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
