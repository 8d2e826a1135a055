"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro info
    python -m repro run --app water --protocol DirnH5SNB --nodes 64
    python -m repro sweep --app tsp --nodes 64
    python -m repro worker --size 8 --nodes 16
    python -m repro cost --nodes 64
    python -m repro experiments --jobs auto
    python -m repro experiments --progress --fleet-log sweep.jsonl
    python -m repro status sweep.jsonl
    python -m repro status sweep.jsonl --follow
    python -m repro run --app water --check-invariants
    python -m repro cache prune --max-age 7d --dry-run

Every command is deterministic: running it twice prints identical
numbers — and for ``experiments``, identical output for any ``--jobs``
value.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, List, Optional, Sequence

from repro.analysis.cost import (
    cost_performance_points,
    full_map_scaling,
    pareto_frontier,
)
from repro.analysis.experiments import (
    APPLICATIONS,
    FIGURE2_PROTOCOLS,
    FIGURE4_PROTOCOLS,
    relative_performance,
    run_one,
)
from repro.analysis.report import format_table
from repro.analysis.reportgen import SECTIONS, write_experiments_md
from repro.core.protocol import InvariantChecker
from repro.exec import DEFAULT_CACHE_DIR, JobRunner, ResultCache
from repro.core.spec import PAPER_SPECTRUM, spec_of
from repro.common import CHECKOUT_ROOT
from repro.common.errors import ConfigurationError
from repro.machine.machine import Machine
from repro.machine.params import MachineParams
from repro.obs import (
    AttributionReport,
    FleetMonitor,
    IntervalSampler,
    LatencyRecorder,
    ProgressPrinter,
    RunProgress,
    StallSpan,
    TraceCollector,
    TransactionTrace,
    attribution_dict,
    chrome_trace,
    format_fleet_summary,
    format_trace,
    load_eta_hints,
    metrics_dict,
    read_fleet_log,
    summarize_fleet_log,
    write_json,
)
from repro.workloads.worker import WorkerBenchmark

#: The committed attribution baseline exercised by `repro diff --baseline`.
DEFAULT_BASELINE = os.path.join(CHECKOUT_ROOT, "baselines",
                                "worker16-attribution.json")


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return value


_DURATION_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400}


def _duration(text: str) -> float:
    """Parse a duration: plain seconds, or a d/h/m/s-suffixed number."""
    raw = text.strip().lower()
    scale = 1
    if raw and raw[-1] in _DURATION_UNITS:
        scale = _DURATION_UNITS[raw[-1]]
        raw = raw[:-1]
    try:
        value = float(raw) * scale
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a duration like 300, 12h or 7d, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"duration must be non-negative, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Software-extended coherent shared memory "
                    "(Chaiken & Agarwal, ISCA 1994) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="list protocols and applications")

    run = sub.add_parser("run", help="run one application")
    run.add_argument("--app", choices=sorted(APPLICATIONS), default="water")
    run.add_argument("--protocol", default="DirnH5SNB")
    run.add_argument("--nodes", type=int, default=64)
    run.add_argument("--software", choices=("flexible", "optimized"),
                     default="flexible")
    run.add_argument("--no-victim-cache", action="store_true")
    run.add_argument("--perfect-ifetch", action="store_true")
    run.add_argument("--invalidation-mode",
                     choices=("parallel", "sequential", "dynamic"),
                     default="parallel")
    run.add_argument("--trace-out", metavar="FILE",
                     help="write a Chrome trace-event JSON (Perfetto / "
                          "chrome://tracing) of the run")
    run.add_argument("--metrics-out", metavar="FILE",
                     help="write a deterministic JSON metrics dump")
    run.add_argument("--sample-every", type=_nonneg_int, default=10_000,
                     metavar="CYCLES",
                     help="interval of the metrics time-series sampler "
                          "(0 disables it)")
    run.add_argument("--check-invariants", action="store_true",
                     help="run under the continuous protocol invariant "
                          "checker; exit 1 on any violation")
    run.add_argument("--progress", action="store_true",
                     help="live progress line on stderr (sim-cycle "
                          "heartbeat; never changes results)")

    profile = sub.add_parser(
        "profile",
        help="run one application and print its interval time-series "
             "and latency histograms")
    profile.add_argument("--app", choices=sorted(APPLICATIONS),
                         default="water")
    profile.add_argument("--protocol", default="DirnH5SNB")
    profile.add_argument("--nodes", type=int, default=64)
    profile.add_argument("--software", choices=("flexible", "optimized"),
                         default="flexible")
    profile.add_argument("--no-victim-cache", action="store_true")
    profile.add_argument("--perfect-ifetch", action="store_true")
    profile.add_argument("--invalidation-mode",
                         choices=("parallel", "sequential", "dynamic"),
                         default="parallel")
    profile.add_argument("--sample-every", type=_positive_int, default=10_000,
                         metavar="CYCLES")

    sweep = sub.add_parser("sweep",
                           help="run one app across the protocol spectrum")
    sweep.add_argument("--app", choices=sorted(APPLICATIONS),
                       default="water")
    sweep.add_argument("--nodes", type=int, default=64)
    sweep.add_argument("--protocols", nargs="*",
                       default=list(FIGURE4_PROTOCOLS))

    worker = sub.add_parser("worker", help="run the WORKER stress test")
    worker.add_argument("--size", type=int, default=8,
                        help="worker-set size")
    worker.add_argument("--nodes", type=int, default=16)
    worker.add_argument("--iterations", type=int, default=4)
    worker.add_argument("--protocols", nargs="*",
                        default=list(FIGURE2_PROTOCOLS) + ["DirnHNBS-"])

    cost = sub.add_parser("cost", help="directory cost analysis")
    cost.add_argument("--nodes", type=int, default=64)

    experiments = sub.add_parser(
        "experiments",
        help="regenerate EXPERIMENTS.md (parallel runner + result cache)")
    experiments.add_argument("--out", "-o", default="EXPERIMENTS.md",
                             metavar="FILE",
                             help="output path (default EXPERIMENTS.md)")
    experiments.add_argument("--jobs", default="1", metavar="N",
                             help="worker processes: a count or 'auto' "
                                  "(default 1 = in-process serial)")
    experiments.add_argument("--quick", action="store_true",
                             help="CI-gate problem sizes (seconds, not "
                                  "minutes; not the reproduction record)")
    experiments.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                             metavar="DIR",
                             help="result cache directory "
                                  f"(default {DEFAULT_CACHE_DIR})")
    experiments.add_argument("--no-cache", action="store_true",
                             help="disable the on-disk result cache")
    experiments.add_argument("--check-invariants", action="store_true",
                             help="run every executed job under the "
                                  "continuous protocol invariant checker")
    experiments.add_argument("--attribution", action="store_true",
                             help="collect a cycle-attribution artifact "
                                  "per job and persist it through the "
                                  "result cache (attributed jobs cache "
                                  "under their own keys)")
    experiments.add_argument("--progress", action="store_true",
                             help="live fleet status line on stderr "
                                  "(jobs, throughput, cache hit rate, "
                                  "ETA; never changes the report)")
    experiments.add_argument("--fleet-log", metavar="FILE", default=None,
                             help="append every telemetry event to FILE "
                                  "as repro-fleetlog/1 JSONL (summarize "
                                  "later with 'repro status FILE')")

    analyze = sub.add_parser(
        "analyze",
        help="run one workload with transaction tracing and write a "
             "cycle-attribution artifact (deterministic JSON)")
    analyze.add_argument("--app",
                         choices=sorted(APPLICATIONS) + ["worker"],
                         default="worker",
                         help="application, or 'worker' for the WORKER "
                              "stress test (default)")
    analyze.add_argument("--protocol", default="DirnH5SNB")
    analyze.add_argument("--nodes", type=int, default=16)
    analyze.add_argument("--size", type=int, default=6,
                         help="worker-set size (worker only)")
    analyze.add_argument("--iterations", type=int, default=2,
                         help="WORKER iterations (worker only)")
    analyze.add_argument("--software", choices=("flexible", "optimized"),
                         default="flexible")
    analyze.add_argument("--no-victim-cache", action="store_true")
    analyze.add_argument("--perfect-ifetch", action="store_true")
    analyze.add_argument("--invalidation-mode",
                         choices=("parallel", "sequential", "dynamic"),
                         default="parallel")
    analyze.add_argument("--out", "-o", default="-", metavar="FILE",
                         help="artifact path ('-' = stdout, the default)")
    analyze.add_argument("--show-txn", type=int, default=None,
                         metavar="TXN",
                         help="also print the span tree of transaction "
                              "TXN (stderr)")

    diff = sub.add_parser(
        "diff",
        help="compare two attribution artifacts bucket-by-bucket; "
             "exit 1 when a bucket regressed past its threshold")
    diff.add_argument("artifacts", nargs="+", metavar="FILE",
                      help="attribution JSON files: OLD NEW, or just "
                           "NEW with --baseline")
    diff.add_argument("--baseline", nargs="?", const=DEFAULT_BASELINE,
                      default=None, metavar="FILE",
                      help="compare against a committed baseline "
                           "(default: baselines/worker16-attribution.json "
                           "in the checkout)")
    diff.add_argument("--threshold", type=float, default=None,
                      metavar="FRAC",
                      help="relative growth threshold per bucket "
                           "(default 0.05)")
    diff.add_argument("--abs-floor", type=int, default=None,
                      metavar="CYCLES",
                      help="ignore bucket growth below this many cycles "
                           "(default 200)")
    diff.add_argument("--bucket-threshold", action="append", default=[],
                      metavar="BUCKET=FRAC",
                      help="per-bucket relative threshold override "
                           "(repeatable)")
    diff.add_argument("--json", dest="json_out", default=None,
                      metavar="FILE",
                      help="also write the diff document to FILE")

    cache = sub.add_parser(
        "cache", help="manage the on-disk result cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    prune = cache_sub.add_parser(
        "prune",
        help="delete entries written by older cost-model/package "
             "versions (and, with --max-age, old entries)")
    prune.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       metavar="DIR",
                       help=f"cache directory (default {DEFAULT_CACHE_DIR})")
    prune.add_argument("--max-age", type=_duration, default=None,
                       metavar="AGE",
                       help="also delete entries older than AGE — a "
                            "number of seconds, or with a d/h/m/s "
                            "suffix (e.g. 7d, 12h)")
    prune.add_argument("--dry-run", action="store_true",
                       help="report what would be deleted without "
                            "deleting anything")

    status = sub.add_parser(
        "status",
        help="summarize a fleet log (repro-fleetlog/1 JSONL) written "
             "by 'repro experiments --fleet-log'")
    status.add_argument("logfile", metavar="LOGFILE",
                        help="the JSONL fleet log to summarize")
    status.add_argument("--json", dest="json_out", action="store_true",
                        help="print the summary as JSON instead of text")
    status.add_argument("--follow", action="store_true",
                        help="poll the log of a live sweep and "
                             "re-render its status line until "
                             "sweep_finished (tolerates the truncated "
                             "final line of an in-progress append)")
    status.add_argument("--interval", type=float, default=1.0,
                        metavar="SECONDS",
                        help="--follow poll interval (default 1.0)")

    check = sub.add_parser(
        "check",
        help="static verification: protocol model checker, "
             "determinism linter, and dataflow analyses")
    check.add_argument("--all", action="store_true",
                       help="run every analysis (default when no "
                            "analysis flag is given)")
    check.add_argument("--model", action="store_true",
                       help="model-check the protocol transition "
                            "tables")
    check.add_argument("--lint", action="store_true",
                       help="lint src/repro for nondeterminism "
                            "hazards")
    check.add_argument("--flow", action="store_true",
                       help="dataflow analysis: taint-based "
                            "determinism lint")
    check.add_argument("--quick", action="store_true",
                       help="model-check only the two-node "
                            "configurations (seconds instead of "
                            "a minute; skips sequential-invalidation "
                            "and three-node coverage)")
    check.add_argument("--max-states", type=int, default=None,
                       metavar="N",
                       help="per-configuration state ceiling "
                            "(exceeding it is a finding)")
    check.add_argument("--json", dest="json_out", default=None,
                       metavar="FILE",
                       help="write the machine-readable report to "
                            "FILE ('-' for stdout)")

    return parser


def _cmd_info(_args: argparse.Namespace) -> int:
    print("Protocols (paper Section 2.5 notation):")
    for name in list(PAPER_SPECTRUM) + ["Dir1H1SB,LACK"]:
        spec = spec_of(name)
        kind = ("full map" if spec.full_map
                else "software-only" if spec.is_software_only
                else "broadcast" if spec.sw_broadcast
                else "LimitLESS")
        print(f"  {name:<16} {kind}")
    print("\nApplications (paper Section 6):")
    for name in APPLICATIONS:
        print(f"  {name}")
    return 0


def _machine_from(args: argparse.Namespace) -> Machine:
    """Build the machine described by run/profile command options."""
    params = MachineParams(
        n_nodes=args.nodes,
        victim_cache_enabled=not args.no_victim_cache,
        perfect_ifetch=args.perfect_ifetch,
    )
    return Machine(params, protocol=args.protocol,
                   software=args.software,
                   invalidation_mode=args.invalidation_mode)


def _on_machine(command: Callable[[argparse.Namespace, Machine], int]
                ) -> Callable[[argparse.Namespace], int]:
    """Run ``command`` on the machine its options describe, and close
    the machine once the command has printed everything it prints."""
    def run(args: argparse.Namespace) -> int:
        try:
            machine = _machine_from(args)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            return command(args, machine)
        finally:
            machine.close()

    return run


@_on_machine
def _cmd_run(args: argparse.Namespace, machine: Machine) -> int:
    collector = sampler = recorder = checker = progress = None
    if args.trace_out:
        collector = TraceCollector.attach(machine)
    if args.metrics_out:
        if args.sample_every:
            sampler = IntervalSampler.attach(machine,
                                             every=args.sample_every)
        recorder = LatencyRecorder.attach(machine)
    if args.check_invariants:
        checker = InvariantChecker.attach(machine)
    if args.progress:
        progress = RunProgress.attach(
            machine, f"{args.app}:{args.protocol}:{args.nodes}")

    workload = APPLICATIONS[args.app]()
    try:
        stats = machine.run(workload)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if progress is not None:
        progress.finish(stats)
    print(f"{args.app.upper()} on {args.nodes} nodes, {args.protocol} "
          f"({args.software} software)")
    print(f"  run time        {stats.run_cycles:>12,} cycles")
    print(f"  speedup         {stats.speedup:>12.2f}")
    print(f"  utilization     {stats.processor_utilization:>12.1%}")
    print(f"  software traps  {stats.total_traps:>12,}")
    print(f"  handler cycles  {stats.total('handler_cycles'):>12,}")
    print(f"  invalidations   "
          f"{stats.total('invalidations_hw') + stats.total('invalidations_sw'):>12,}")
    print(f"  retries         {stats.total('retries'):>12,}")

    if collector is not None:
        write_json(args.trace_out,
                   chrome_trace(collector, n_nodes=args.nodes))
        print(f"  trace           {args.trace_out}")
    if recorder is not None:
        if sampler is not None:
            sampler.finish(stats.run_cycles)
        config = {
            "app": args.app,
            "protocol": args.protocol,
            "nodes": args.nodes,
            "software": args.software,
            "invalidation_mode": args.invalidation_mode,
        }
        write_json(args.metrics_out,
                   metrics_dict(stats, config=config,
                                sampler=sampler, recorder=recorder))
        print(f"  metrics         {args.metrics_out}")
    if checker is not None:
        checker.finish()
        print(f"  invariants      {checker.transitions_checked:>12,} "
              f"transitions, {checker.messages_checked:,} messages, "
              f"{len(checker.violations)} violation"
              f"{'' if len(checker.violations) == 1 else 's'}")
        if checker.violations:
            for violation in checker.violations[:20]:
                print(f"    {violation}", file=sys.stderr)
            return 1
    return 0


@_on_machine
def _cmd_profile(args: argparse.Namespace, machine: Machine) -> int:
    sampler = IntervalSampler.attach(machine, every=args.sample_every)
    recorder = LatencyRecorder.attach(machine)
    stats = machine.run(APPLICATIONS[args.app]())
    sampler.finish(stats.run_cycles)

    interval_rows = [
        (f"{row.start:,}", f"{row.end:,}",
         f"{row.utilization:.1%}", f"{row.miss_rate:.2%}",
         row.total("traps"), row.total("messages"),
         row.total("retries"), max(row.rx_backlog, default=0))
        for row in sampler.rows
    ]
    print(format_table(
        ["From", "To", "Util", "Miss rate", "Traps", "Msgs",
         "Retries", "Max RX queue"],
        interval_rows,
        title=f"{args.app.upper()} on {args.nodes} nodes, "
              f"{args.protocol}: interval time-series "
              f"(every {args.sample_every:,} cycles)"))

    def hist_rows(hist_set):
        return [
            (key, hist.count, f"{hist.mean:.0f}",
             hist.percentile(50), hist.percentile(90),
             hist.percentile(99), hist.max)
            for key, hist in hist_set.items()
        ]

    print()
    headers = ["Kind", "Count", "Mean", "p50", "p90", "p99", "Max"]
    if len(recorder.handlers):
        print(format_table(headers, hist_rows(recorder.handlers),
                           title="Handler latency (cycles)"))
        print()
    print(format_table(headers, hist_rows(recorder.stalls),
                       title="End-to-end stall latency (cycles)"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    speedups = {}
    for protocol in args.protocols:
        stats = run_one(APPLICATIONS[args.app](), protocol,
                        n_nodes=args.nodes)
        speedups[protocol] = stats.speedup
    rel = relative_performance(speedups) \
        if "DirnHNBS-" in speedups else {p: 0 for p in speedups}
    rows = [
        (p, f"{speedups[p]:.2f}",
         f"{rel[p] * 100:.0f}%" if rel.get(p) else "-")
        for p in args.protocols
    ]
    print(format_table(["Protocol", "Speedup", "vs full map"], rows,
                       title=f"{args.app.upper()} on {args.nodes} nodes"))
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    rows = []
    base: Optional[int] = None
    for protocol in args.protocols:
        machine = Machine(MachineParams(n_nodes=args.nodes),
                          protocol=protocol)
        try:
            stats = machine.run(WorkerBenchmark(
                worker_set_size=args.size, iterations=args.iterations))
        finally:
            machine.close()
        if protocol == "DirnHNBS-":
            base = stats.run_cycles
        rows.append((protocol, stats.run_cycles, stats.total_traps))
    table_rows: List[tuple] = []
    for protocol, cycles, traps in rows:
        ratio = f"{cycles / base:.2f}" if base else "-"
        table_rows.append((protocol, cycles, traps, ratio))
    print(format_table(
        ["Protocol", "Cycles", "Traps", "vs full map"], table_rows,
        title=f"WORKER, worker sets of {args.size}, {args.nodes} nodes"))
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    params = MachineParams(n_nodes=args.nodes)
    speedups = {}
    for protocol in FIGURE4_PROTOCOLS:
        stats = run_one(APPLICATIONS["water"](), protocol,
                        n_nodes=args.nodes)
        speedups[protocol] = stats.speedup
    points = cost_performance_points(speedups, params)
    frontier = {p.protocol for p in pareto_frontier(points)}
    rows = [
        (p.protocol, p.bits_per_block, f"{p.overhead:.2%}",
         f"{p.speedup:.1f}", "*" if p.protocol in frontier else "")
        for p in points
    ]
    print(format_table(
        ["Protocol", "Dir bits/block", "Overhead", "Speedup (WATER)",
         "Pareto"],
        rows, title=f"Cost vs performance at {args.nodes} nodes"))
    print()
    scaling = full_map_scaling((16, 64, 256, 1024))
    print(format_table(
        ["Nodes", "Full-map bits/block", "5-pointer bits/block"],
        scaling, title="Directory cost scaling with machine size"))
    return 0


@_on_machine
def _cmd_analyze(args: argparse.Namespace, machine: Machine) -> int:
    import json

    report = AttributionReport.attach(
        machine, transitions=args.show_txn is not None)
    shown: List[TransactionTrace] = []
    if args.show_txn is not None:
        def keep(stall: StallSpan,
                 trace: Optional[TransactionTrace]) -> None:
            if stall.txn == args.show_txn:
                shown.append(trace)

        report.collector.on_complete.append(keep)
        report.collector.keep(args.show_txn)
    if args.app == "worker":
        workload = WorkerBenchmark(worker_set_size=args.size,
                                   iterations=args.iterations)
    else:
        workload = APPLICATIONS[args.app]()
    try:
        stats = machine.run(workload)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = {
        "app": args.app,
        "protocol": args.protocol,
        "nodes": args.nodes,
        "software": args.software,
        "invalidation_mode": args.invalidation_mode,
    }
    if args.app == "worker":
        config["worker_set_size"] = args.size
        config["iterations"] = args.iterations
    doc = attribution_dict(report, config)
    doc["run"] = {
        "run_cycles": stats.run_cycles,
        "speedup": round(stats.speedup, 4),
    }

    if args.show_txn is not None:
        if not shown:
            print(f"no transaction {args.show_txn} "
                  f"({len(report.collector)} transactions; node k's "
                  f"i-th miss has id i*{args.nodes}+k+1)", file=sys.stderr)
        else:
            print(format_trace(shown[0]), file=sys.stderr)

    if args.out == "-":
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        write_json(args.out, doc)
        total = report.total_cycles
        print(f"{args.app} on {args.nodes} nodes, {args.protocol}: "
              f"{total:,} stall cycles over {report.n_transactions:,} "
              f"transactions")
        buckets = doc["buckets"]
        for name in sorted(buckets, key=lambda b: -buckets[b]):
            cycles = buckets[name]
            if cycles:
                share = cycles / total if total else 0.0
                print(f"  {name:<18} {cycles:>12,}  {share:>6.1%}")
        print(f"wrote {args.out}")
    return 0


def _parse_bucket_thresholds(pairs: List[str]) -> dict:
    out = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not name or not value:
            raise ValueError(
                f"--bucket-threshold expects BUCKET=FRAC, got {pair!r}")
        out[name] = float(value)
    return out


def _cmd_diff(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.regression import (
        DEFAULT_ABS_FLOOR,
        DEFAULT_REL_THRESHOLD,
        diff_attributions,
        format_diff,
    )

    if args.baseline is not None:
        if len(args.artifacts) != 1:
            print("error: with --baseline give exactly one artifact "
                  "(the new run)", file=sys.stderr)
            return 2
        old_path, new_path = args.baseline, args.artifacts[0]
    else:
        if len(args.artifacts) != 2:
            print("error: give OLD and NEW artifact paths "
                  "(or one path with --baseline)", file=sys.stderr)
            return 2
        old_path, new_path = args.artifacts
    try:
        with open(old_path, "r", encoding="utf-8") as fh:
            old = json.load(fh)
        with open(new_path, "r", encoding="utf-8") as fh:
            new = json.load(fh)
        doc = diff_attributions(
            old, new,
            rel_threshold=(args.threshold if args.threshold is not None
                           else DEFAULT_REL_THRESHOLD),
            abs_floor=(args.abs_floor if args.abs_floor is not None
                       else DEFAULT_ABS_FLOOR),
            bucket_thresholds=_parse_bucket_thresholds(
                args.bucket_threshold),
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"old: {old_path}")
    print(f"new: {new_path}")
    print(format_diff(doc))
    if args.json_out:
        write_json(args.json_out, doc)
        print(f"wrote {args.json_out}")
    return 0 if doc["ok"] else 1


def _cmd_experiments(args: argparse.Namespace) -> int:
    # Fleet telemetry is a pure side channel: the monitor, the progress
    # line, and the JSONL log observe the sweep; the rendered report
    # and every cache key are byte-identical with or without them
    # (CI-gated).
    monitor = printer = None
    if args.progress or args.fleet_log:
        if args.progress:
            printer = ProgressPrinter()
        monitor = FleetMonitor(
            log_path=args.fleet_log,
            on_line=printer,
            sections=[key for key, _ in SECTIONS],
            eta_hints=load_eta_hints(),
        )
    try:
        runner = JobRunner(
            jobs=args.jobs,
            cache=None if args.no_cache else ResultCache(args.cache_dir),
            check_invariants=args.check_invariants,
            attribution=args.attribution,
            telemetry=monitor,
        )
    except (ValueError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    preset = "quick" if args.quick else "full"
    print(f"regenerating {args.out} ({preset} preset, "
          f"{runner.n_workers} worker"
          f"{'' if runner.n_workers == 1 else 's'})", flush=True)

    label_to_key = {label: key for key, label in SECTIONS}

    def on_progress(line: str) -> None:
        if monitor is not None and line in label_to_key:
            monitor.section(label_to_key[line])
        if printer is not None:
            printer.done()
        print(line, flush=True)

    if monitor is not None:
        monitor.start(jobs=runner.n_workers)
    write_experiments_md(
        args.out, runner=runner, preset=preset, progress=on_progress,
    )
    if monitor is not None:
        monitor.finish(jobs_executed=runner.jobs_executed)
    if printer is not None:
        printer.done()
    cache = runner.cache
    if cache is None:
        cache_note = "cache off"
    else:
        lookups = cache.hits + cache.misses
        rate = f" ({cache.hits / lookups:.0%} hit rate)" if lookups else ""
        cache_note = (f"cache {cache.hits} hit"
                      f"{'' if cache.hits == 1 else 's'} / "
                      f"{cache.misses} miss"
                      f"{'' if cache.misses == 1 else 'es'} / "
                      f"{cache.stores} store"
                      f"{'' if cache.stores == 1 else 's'}{rate}")
    print(f"wrote {args.out}: {runner.jobs_executed} jobs run, "
          f"{runner.jobs_deduplicated + runner.memo_hits} deduplicated, "
          f"{cache_note}")
    return 0


def _follow_fleet_log(path: str, interval: float,
                      stream=None, max_polls: Optional[int] = None) -> int:
    """Poll ``path`` and re-render the live status line (status --follow).

    Each poll re-reads the log with ``tolerate_partial=True`` (the
    writer may be mid-append) and replays it through a fresh monitor,
    so the rendered line is exactly what the sweep's own ``--progress``
    line would show.  Returns when the log records ``sweep_finished``
    (printing the final summary) — or after ``max_polls`` polls, for
    tests and bounded watches.
    """
    from repro.obs.fleet import replay_fleet_log

    printer = ProgressPrinter(stream)
    polls = 0
    while True:
        try:
            events = read_fleet_log(path, tolerate_partial=True)
        except (OSError, ValueError) as exc:
            printer.done()
            print(f"error: {exc}", file=sys.stderr)
            return 2
        monitor = replay_fleet_log(events)
        printer(monitor.render_progress())
        if monitor.finished is not None:
            printer.done()
            print(format_fleet_summary(monitor.summary()))
            return 0
        polls += 1
        if max_polls is not None and polls >= max_polls:
            printer.done()
            return 0
        import time

        time.sleep(interval)


def _cmd_status(args: argparse.Namespace) -> int:
    import json

    if args.follow:
        return _follow_fleet_log(args.logfile, args.interval)
    try:
        events = read_fleet_log(args.logfile)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = summarize_fleet_log(events)
    if args.json_out:
        json.dump(summary, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(f"{args.logfile}: {summary['events']} events "
              f"({summary['schema']})")
        print(format_fleet_summary(summary))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    assert args.cache_command == "prune"
    cache = ResultCache(args.cache_dir)
    removed = cache.prune(max_age=args.max_age, dry_run=args.dry_run)
    verb = "would delete" if args.dry_run else "deleted"
    print(f"{verb} {removed} stale cache entr"
          f"{'y' if removed == 1 else 'ies'} under {cache.root}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.verify.flow import run_flow
    from repro.verify.lint import run_lint
    from repro.verify.modelcheck import (
        MAX_STATES,
        default_configs,
        run_model_check,
    )
    from repro.verify.report import EXIT_ERROR, Report, write_json

    explicit = args.model or args.lint or args.flow
    run_model = args.model or args.all or not explicit
    run_linter = args.lint or args.all or not explicit
    run_flow_passes = args.flow or args.all or not explicit
    report = Report()
    try:
        if run_model:
            configs = default_configs()
            if args.quick:
                configs = [c for c in configs if c.n_nodes <= 2]
            report.extend(run_model_check(
                configs,
                max_states=(args.max_states if args.max_states
                            else MAX_STATES),
                coverage=not args.quick))
        if run_linter:
            report.extend(run_lint())
        if run_flow_passes:
            report.extend(run_flow())
    except Exception as exc:
        print(f"repro check: internal error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    write_json(report, args.json_out)
    if args.json_out != "-":
        print(report.render_text(), end="")
    return report.exit_code


_COMMANDS = {
    "info": _cmd_info,
    "run": _cmd_run,
    "profile": _cmd_profile,
    "sweep": _cmd_sweep,
    "worker": _cmd_worker,
    "cost": _cmd_cost,
    "analyze": _cmd_analyze,
    "diff": _cmd_diff,
    "experiments": _cmd_experiments,
    "status": _cmd_status,
    "cache": _cmd_cache,
    "check": _cmd_check,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse ``argv`` and dispatch to a subcommand; returns exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
