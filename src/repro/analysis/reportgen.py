"""EXPERIMENTS.md generation: paper-vs-measured for every table/figure.

This module renders the repository's experiment record.  It used to live
inside ``tools/generate_experiments.py``; it moved into the package so
the ``repro experiments`` CLI subcommand, the tools wrapper, and the
benchmark harness all share one implementation.

Two properties matter for the parallel runner:

- **No wall-clock text in the output.**  The rendered document contains
  only simulation-derived numbers, so a serial run, an 8-worker run,
  and a cache-warm replay produce byte-identical files (the CI gate
  diffs them).
- **One runner for the whole sweep.**  Every driver receives the same
  :class:`~repro.exec.pool.JobRunner`, so configurations shared between
  sections (Table 1 and Table 2's WORKER runs, for instance) simulate
  once.

``preset="quick"`` shrinks every problem to CI-gate sizes (seconds, not
minutes); the quick document is a determinism probe, not a reproduction
artifact.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.analysis.experiments import (
    FIGURE2_PROTOCOLS,
    FIGURE4_PROTOCOLS,
    fig2_worker_ratios,
    fig3_tsp_detail,
    fig4_application_speedups,
    fig5_tsp_256,
    fig6_evolve_worker_sets,
    relative_performance,
    table1_handler_latencies,
    table2_breakdowns,
    table3_applications,
)
from repro.analysis.workersets import decay_slope, histogram_summary
from repro.core.software.costmodel import TABLE2_ACTIVITIES
from repro.exec.pool import JobRunner

PAPER_TABLE1 = {8: (436, 162, 726, 375), 12: (397, 141, 714, 393),
                16: (386, 138, 797, 420)}

PAPER_TABLE3 = {
    "tsp": ("Mul-T", "10 city tour", 1.1),
    "aq": ("Semi-C", "see text", 0.9),
    "smgrid": ("Mul-T", "129 x 129", 3.0),
    "evolve": ("Mul-T", "12 dimensions", 1.3),
    "mp3d": ("C", "10,000 particles", 0.6),
    "water": ("C", "64 molecules", 2.6),
}

#: Driver argument sets per preset.  ``full`` is the shipped
#: reproduction; ``quick`` is the CI parallel-determinism gate.
PRESETS: Dict[str, Dict[str, Dict[str, object]]] = {
    "full": {
        "table1": {},
        "table2": {},
        "table3": {},
        "fig2": {"sizes": (1, 2, 4, 8, 12, 16)},
        "fig3": {},
        "fig4": {},
        "fig5": {},
        "fig6": {},
    },
    "quick": {
        "table1": {"readers": (8,), "iterations": 1},
        "table2": {"iterations": 1},
        "table3": {"n_nodes": 16},
        "fig2": {"sizes": (1, 2, 4), "iterations": 1},
        "fig3": {"n_nodes": 16},
        "fig4": {"apps": ("tsp", "water"), "n_nodes": 16},
        "fig5": {"n_nodes": 64},
        "fig6": {"n_nodes": 16},
    },
}

#: (driver key, progress label) in render order.  The labels are what
#: ``progress`` receives; the keys match ``PRESETS``/``PLANNERS`` and
#: the per-driver timings in ``BENCH_experiments.json``, so the fleet
#: monitor can map a progress callback back to a driver for ETAs.
SECTIONS = (
    ("table1", "Table 1..."),
    ("table2", "Table 2..."),
    ("table3", "Table 3..."),
    ("fig2", "Figure 2..."),
    ("fig3", "Figure 3..."),
    ("fig4", "Figure 4..."),
    ("fig5", "Figure 5..."),
    ("fig6", "Figure 6..."),
)

_SECTION_LABELS = dict(SECTIONS)

Progress = Callable[[str], None]


def _silent(_message: str) -> None:
    """Default progress sink: discard."""


def render_experiments_md(
    runner: Optional[JobRunner] = None,
    preset: str = "full",
    progress: Progress = _silent,
) -> str:
    """Render the EXPERIMENTS.md document and return its text.

    ``runner`` is shared by every driver (``None`` = serial in-process);
    ``progress`` receives one human-readable line per section — keep it
    out of the document so output stays byte-identical across worker
    counts.
    """
    if preset not in PRESETS:
        raise ValueError(
            f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    sizes_of = PRESETS[preset]
    if runner is None:
        runner = JobRunner(jobs=1)

    lines: List[str] = []
    w = lines.append

    w("# EXPERIMENTS — paper vs. measured")
    w("")
    if preset == "quick":
        w("**Quick preset** (CI determinism gate): problem sizes are "
          "shrunk to run in")
        w("seconds, so the numbers below are *not* the reproduction "
          "record — regenerate")
        w("with the full preset for that.  Determinism still holds: "
          "identical output for")
        w("any `--jobs` value.")
        w("")
    w("Regenerated by `python tools/generate_experiments.py`; every "
      "number below is")
    w("deterministic (identical on every run and for any `--jobs` "
      "value).  'Paper'")
    w("values are from Chaiken & Agarwal (ISCA 1994); 'measured' values "
      "come from this")
    w("library's scaled problems, so *shapes and ratios* are the "
      "comparison targets,")
    w("not absolute magnitudes (see DESIGN.md for the substitution "
      "rationale).")
    w("")

    # ------------------------------------------------------------- T1
    progress(_SECTION_LABELS["table1"])
    rows = table1_handler_latencies(runner=runner, **sizes_of["table1"])
    w("## Table 1 — software handler latencies (cycles)")
    w("")
    w("| readers | C read (paper) | asm read (paper) | C write (paper) "
      "| asm write (paper) |")
    w("|---|---|---|---|---|")
    for row in rows:
        p = PAPER_TABLE1[row.readers]
        w(f"| {row.readers} | {row.c_read:.0f} ({p[0]}) "
          f"| {row.asm_read:.0f} ({p[1]}) | {row.c_write:.0f} ({p[2]}) "
          f"| {row.asm_write:.0f} ({p[3]}) |")
    w("")
    w("Matches: the ~2x gap between the flexible (C) and optimized "
      "(assembly) software;")
    w("write latency growing with readers.  Deviation: the paper's "
      "measured read")
    w("latencies decline slightly with readers (436→386); our read "
      "handler always")
    w("empties exactly five pointers, so the model holds them constant "
      "at the 8-reader")
    w("median.")
    w("")

    # ------------------------------------------------------------- T2
    progress(_SECTION_LABELS["table2"])
    breakdowns = table2_breakdowns(runner=runner, **sizes_of["table2"])
    w("## Table 2 — median handler cycle breakdown")
    w("")
    w("Reproduced **exactly by construction**: the cost model's "
      "per-activity cycles are")
    w("fitted so the 8-reader medians equal the paper's Table 2 "
      "(C read 480, asm read")
    w("193, C write 737, asm write 384).  Measured medians:")
    w("")
    w("| activity | C read | asm read | C write | asm write |")
    w("|---|---|---|---|---|")
    cols = [("read", "flexible"), ("read", "optimized"),
            ("write", "flexible"), ("write", "optimized")]
    for activity in TABLE2_ACTIVITIES:
        cells = []
        for key in cols:
            value = breakdowns.get(key, {}).get(activity)
            cells.append("N/A" if value is None else str(value))
        w(f"| {activity} | " + " | ".join(cells) + " |")
    totals = [str(sum(breakdowns.get(key, {}).values())) for key in cols]
    w("| **total** | " + " | ".join(totals) + " |")
    w("")

    # ------------------------------------------------------------- T3
    progress(_SECTION_LABELS["table3"])
    rows3 = table3_applications(runner=runner, **sizes_of["table3"])
    w("## Table 3 — application characteristics")
    w("")
    w("| app | language | size (paper size) | sequential "
      "(paper, seconds) |")
    w("|---|---|---|---|")
    for row in rows3:
        paper = PAPER_TABLE3[row.name]
        w(f"| {row.name.upper()} | {row.language} | {row.size} "
          f"({paper[1]}) | {row.sequential_seconds * 1e3:.1f} ms "
          f"({paper[2]} s) |")
    w("")
    w("Problem sizes are scaled ~100-1000x down for a pure-Python "
      "simulator; languages")
    w("match the paper's table.")
    w("")

    # ------------------------------------------------------------- F2
    progress(_SECTION_LABELS["fig2"])
    fig2_kwargs = dict(sizes_of["fig2"])
    sizes = tuple(fig2_kwargs.pop("sizes"))
    curves = fig2_worker_ratios(sizes=sizes, runner=runner, **fig2_kwargs)
    w("## Figure 2 — WORKER run time relative to full map (16 nodes)")
    w("")
    w("| protocol | " + " | ".join(f"ws={s}" for s in sizes) + " |")
    w("|---" * (len(sizes) + 1) + "|")
    for protocol in FIGURE2_PROTOCOLS:
        ratios = dict(curves[protocol])
        w(f"| {protocol} | "
          + " | ".join(f"{ratios[s]:.2f}" for s in sizes) + " |")
    w("")
    w("Shape claims that hold: more pointers help; `DirnH5SNB` equals "
      "full map while")
    w("worker sets fit in its pointers (sizes 1–4) and degrades beyond; "
      "the software-")
    w("only directory is the worst curve everywhere; the one-pointer "
      "variants order")
    w("ACK ≥ LACK ≥ hardware; `DirnH1SNB` tracks `DirnH2SNB`.  "
      "Deviation: WORKER is a")
    w("stress test and our scaled runs exaggerate the absolute ratios "
      "more than the")
    w("paper's (which are roughly 1.5–4x; ours reach ~6–11x for the "
      "software-only")
    w("directory).")
    w("")

    # ------------------------------------------------------------- F3
    progress(_SECTION_LABELS["fig3"])
    f3 = fig3_tsp_detail(runner=runner, **sizes_of["fig3"])
    w("## Figure 3 — TSP detailed 64-node analysis")
    w("")
    configs = list(f3)
    w("| protocol | " + " | ".join(configs) + " |")
    w("|---" * (len(configs) + 1) + "|")
    for protocol in FIGURE4_PROTOCOLS:
        w(f"| {protocol} | "
          + " | ".join(f"{f3[c][protocol]:.1f}" for c in configs) + " |")
    w("")
    base_ratio = f3["base"]["DirnHNBS-"] / f3["base"]["DirnH5SNB"]
    vic = f3["victim cache"]
    w(f"Measured: thrashing makes `DirnH5SNB` {base_ratio:.1f}x worse "
      f"than full map")
    w("(paper: 'more than 3 times'); perfect ifetch and victim caching "
      "both restore it")
    w(f"to ~{vic['DirnH5SNB'] / vic['DirnHNBS-']:.0%} of full map "
      f"(paper: 'about as well as full-map'); the software-only")
    w(f"directory with victim caching reaches "
      f"{vic['DirnH0SNB,ACK'] / vic['DirnHNBS-']:.0%} of full map "
      f"(paper: 'almost 70%').")
    w("")

    # ------------------------------------------------------------- F4
    progress(_SECTION_LABELS["fig4"])
    f4 = fig4_application_speedups(runner=runner, **sizes_of["fig4"])
    w("## Figure 4 — application speedups on 64 nodes")
    w("")
    w("| app | " + " | ".join(FIGURE4_PROTOCOLS) + " |")
    w("|---" * (len(FIGURE4_PROTOCOLS) + 1) + "|")
    for app, column in f4.items():
        w(f"| {app.upper()} | "
          + " | ".join(f"{column[p]:.1f}" for p in FIGURE4_PROTOCOLS)
          + " |")
    w("")
    w("Relative to full map (the paper's 71%–100% headline for "
      "`DirnH5SNB`):")
    w("")
    w("| app | " + " | ".join(FIGURE4_PROTOCOLS) + " |")
    w("|---" * (len(FIGURE4_PROTOCOLS) + 1) + "|")
    h5_band = []
    for app, column in f4.items():
        rel = relative_performance(column)
        h5_band.append(rel["DirnH5SNB"])
        w(f"| {app.upper()} | "
          + " | ".join(f"{rel[p] * 100:.0f}%" for p in FIGURE4_PROTOCOLS)
          + " |")
    w("")
    w(f"Measured `DirnH5SNB` band: {min(h5_band):.0%}–{max(h5_band):.0%} "
      f"(paper: 71%–100%).  EVOLVE and")
    w("MP3D are the hardest applications (paper: EVOLVE worst at 71%); "
      "AQ is protocol-")
    w("insensitive above zero pointers (paper: identical); MP3D's "
      "software-only run")
    if "mp3d" in f4:
        mp3d_h0 = relative_performance(f4["mp3d"])["DirnH0SNB,ACK"]
        w(f"collapses (measured {mp3d_h0:.0%}, paper 11%); WATER's "
          f"software-only run stays usable")
    else:
        w("collapses (paper 11%; not run in this preset); WATER's "
          "software-only run stays usable")
    if "water" in f4:
        water_h0 = relative_performance(f4["water"])["DirnH0SNB,ACK"]
        w(f"(paper: 'almost 70%', measured {water_h0:.0%}).")
    else:
        w("(paper: 'almost 70%'; not run in this preset).")
    w("")

    # ------------------------------------------------------------- F5
    progress(_SECTION_LABELS["fig5"])
    f5 = fig5_tsp_256(runner=runner, **sizes_of["fig5"])
    w("## Figure 5 — TSP on 256 nodes")
    w("")
    w("| protocol | speedup |")
    w("|---|---|")
    for protocol, speedup in f5.items():
        w(f"| {protocol} | {speedup:.1f} |")
    w("")
    rel5 = relative_performance(f5)
    w(f"`DirnH5SNB` reaches {rel5['DirnH5SNB']:.0%} of full map at 256 "
      f"nodes (paper: 94%, i.e. 134 vs")
    w("142), and the full-map speedup grows from 64 to 256 nodes, the "
      "paper's point that")
    w("the speedups 'remain remarkable'.  The residual gap is the "
      "start-up transient of")
    w("distributing data to 256 nodes — the same effect the paper "
      "blames for its own 6%.")
    w("")

    # ------------------------------------------------------------- F6
    progress(_SECTION_LABELS["fig6"])
    hist = fig6_evolve_worker_sets(runner=runner, **sizes_of["fig6"])
    summary = histogram_summary(hist)
    slope = decay_slope(hist)
    w("## Figure 6 — EVOLVE worker-set histogram (64 nodes)")
    w("")
    w("| size | count |")
    w("|---|---|")
    for size in sorted(hist):
        w(f"| {size} | {hist[size]} |")
    w("")
    w(f"{summary['blocks']} worker sets; size-1 sets dominate "
      f"({hist.get(1, 0)}), the histogram decays")
    w(f"log-linearly (slope {slope:.3f} per size) out to a cluster of "
      f"{hist.get(64, 0)} sets of size 64 —")
    w("the paper's shape (≈10,000 one-node sets down to 25 sets of "
      "size 64) at ~1/20")
    w("scale.")
    w("")

    w("## Ablations and enhancements (benchmarks/)")
    w("")
    w("- `test_ablation_local_bit` — the one-bit local pointer changes "
      "performance by")
    w("  only a few percent (paper: ~2%) while preventing local-node "
      "overflows.")
    w("- `test_ablation_victim_cache` — one victim buffer recovers most "
      "of the")
    w("  thrashing loss; returns diminish by ~6 buffers (Alewife's "
      "choice).")
    w("- `test_ablation_software_impl` — the hand-tuned handlers halve "
      "handler")
    w("  occupancy end-to-end (Section 4.2's factor of two).")
    w("- `test_ablation_smallset_opt` — the small-set memory "
      "optimization speeds up")
    w("  worker sets ≤ 4 (Section 5).")
    w("- `test_ablation_dir1sw` — Dir1SW never traps on reads but "
      "broadcasts on")
    w("  writes (Section 2.5's comparison).")
    w("- `test_ablation_inv_mode` — parallel invalidation beats "
      "sequential for")
    w("  widely-shared data (Section 7's dynamic selection).")
    w("- `test_enhancement_readonly` — profiling + per-block broadcast "
      "annotation of")
    w("  read-only data removes EVOLVE's read-overflow traps and closes "
      "most of its")
    w("  gap to full map (Section 7's profile/detect/optimize).")
    w("")

    return "\n".join(lines) + "\n"


def write_experiments_md(
    out_path: str = "EXPERIMENTS.md",
    runner: Optional[JobRunner] = None,
    preset: str = "full",
    progress: Progress = _silent,
) -> str:
    """Render and write the document; returns the text written."""
    text = render_experiments_md(runner=runner, preset=preset,
                                 progress=progress)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
