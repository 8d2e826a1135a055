"""Fleet telemetry: observability for the experiment runner.

PRs 1 and 5 made the *simulated machine* observable; this module makes
the *fleet that runs it* observable.  A sweep under
:class:`~repro.exec.pool.JobRunner` runs a deduplicated plan against a
result cache, serially or on a process pool, and without telemetry a
13-second figure-5 run emits nothing until it returns.

The parent process emits every event:

- **Jobs report their cost.**  Every job, serial or pooled, runs
  through :func:`run_timed`, which returns the job's
  :class:`~repro.sim.stats.RunStats` together with the pid of the
  process that ran it, its wall seconds and that process's peak RSS.
  The runner turns these into ``job_started`` / ``job_finished`` /
  ``job_failed`` events.  A serial job is announced before it runs; a
  pooled job's start and finish are both known only when its future
  completes, so only a serial sweep shows jobs "running".  Nothing is
  attached to the simulated machine, so a telemetry sweep runs the
  same engine loop as a silent one.
- **The parent aggregates.**  :class:`FleetMonitor` consumes the
  runner's job, plan and cache events, maintains a live sweep status
  (completed/running/queued jobs, aggregate sim throughput, cache hit
  rate, ETA from the per-driver timings in ``BENCH_experiments.json``),
  renders the opt-in ``--progress`` line and appends every event to an
  append-only JSONL run log (one ``repro-fleetlog/1`` event per line).
- **Logs replay.**  :func:`read_fleet_log` parses and validates a log;
  :func:`summarize_fleet_log` replays it through a fresh monitor, so
  ``repro status sweep.jsonl`` summarizes a finished (or crashed) run
  from the log alone.

``repro run --progress`` (:class:`RunProgress`) is the one in-run
view: a single interactive run whose ``advance`` subscriber feeds
``job_progress`` heartbeats into its own monitor.

The hard invariant, inherited from the rest of ``repro.obs`` and
CI-gated: **telemetry is a side channel.**  Result dicts, cache keys,
attribution artifacts, and the rendered report are byte-identical with
telemetry on or off, at any ``--jobs`` value.  Telemetry may read wall
clocks and RSS precisely *because* nothing it produces feeds back into
a deterministic artifact; every such call site carries a reasoned
``# repro: allow-nondet(...)`` for the determinism linter.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    List,
    Optional,
    Sequence,
    TYPE_CHECKING,
    Tuple,
)

from repro.common import CHECKOUT_ROOT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.machine import Machine
    from repro.sim.stats import RunStats

#: Schema tag of the JSONL run log; bump when event shapes change.
FLEETLOG_SCHEMA = "repro-fleetlog/1"

#: Default heartbeat interval in *simulated* cycles between the
#: ``job_progress`` events of ``repro run --progress``.  ~100k cycles is
#: a few heartbeats per second at the engine's measured throughput.
DEFAULT_HEARTBEAT = 100_000

#: Default location of the per-driver timing hints used for ETAs: the
#: committed record at the checkout root.
DEFAULT_ETA_HINTS = os.path.join(CHECKOUT_ROOT, "BENCH_experiments.json")

#: Required fields per event type (beyond the ``event``/``t``
#: envelope).  This *is* the repro-fleetlog/1 schema; the log's first
#: line is a ``fleet_log`` header naming it.
EVENT_FIELDS: Dict[str, Sequence[str]] = {
    "fleet_log": ("schema",),
    "sweep_started": ("jobs",),
    "section_started": ("section",),
    "plan_enqueued": ("planned", "unique", "pending"),
    "job_queued": ("key",),
    "memo_hit": ("key",),
    "cache_hit": ("key",),
    "cache_miss": ("key",),
    "cache_put": ("key",),
    "job_started": ("key", "pid"),
    # Written by ``repro run --progress``, and by sweeps of older
    # releases.  Optional extra fields are schema-legal (the schema is
    # append-only): some older logs carry a partition id on
    # job_progress, which readers ignore.
    "job_progress": ("key", "pid", "cycles"),
    "job_finished": ("key", "pid", "wall_s", "run_cycles",
                     "sim_cycles_per_sec"),
    "job_failed": ("key", "pid", "error"),
    "sweep_finished": ("wall_s", "jobs_executed"),
}


def _now() -> float:
    """Wall-clock timestamp for event envelopes."""
    return time.time()  # repro: allow-nondet(telemetry timestamps are wall-clock by definition; the fleet log is a side channel that never reaches results, reports, or cache keys)


def _peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in KiB, or ``None``."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-Unix platform
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is KiB on Linux, bytes on macOS.
    kb = usage.ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - not CI's platform
        kb //= 1024
    return int(kb)


def event(event_type: str, **fields: Any) -> Dict[str, Any]:
    """Build one fleet-log event: type + wall timestamp + ``fields``."""
    doc: Dict[str, Any] = {"event": event_type, "t": _now()}
    doc.update(fields)
    return doc


def validate_event(doc: Any) -> Dict[str, Any]:
    """Check ``doc`` against the repro-fleetlog/1 schema.

    Returns the event unchanged; raises :class:`ValueError` with a
    pinpointed message otherwise.  Unknown extra fields are allowed
    (the schema is append-only); unknown event *types* are not.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"event must be an object, got {type(doc).__name__}")
    kind = doc.get("event")
    if kind not in EVENT_FIELDS:
        raise ValueError(f"unknown event type {kind!r}")
    if not isinstance(doc.get("t"), (int, float)):
        raise ValueError(f"{kind}: missing numeric timestamp 't'")
    if "seq" in doc and (not isinstance(doc["seq"], int) or doc["seq"] < 0):
        raise ValueError(f"{kind}: 'seq' must be a non-negative integer")
    for field in EVENT_FIELDS[kind]:
        if field not in doc:
            raise ValueError(f"{kind}: missing required field {field!r}")
    if kind == "fleet_log" and doc["schema"] != FLEETLOG_SCHEMA:
        raise ValueError(f"unsupported fleet-log schema {doc['schema']!r} "
                         f"(expected {FLEETLOG_SCHEMA})")
    return doc


# ----------------------------------------------------------------------
# Job reports
# ----------------------------------------------------------------------

def _clock() -> float:
    """Host seconds for timing one job or run."""
    return time.perf_counter()  # repro: allow-nondet(wall-clock job timing is telemetry only; it is never mixed into simulation results)


def run_timed(run: Callable[..., "RunStats"], *args: Any,
              ) -> Tuple["RunStats", int, float, Optional[int]]:
    """Call ``run(*args)``; returns ``(stats, pid, wall_s, peak_rss_kb)``.

    ``stats`` is what ``run`` returned; the rest is what the call cost:
    the pid of the process that made it, its wall seconds and that
    process's peak RSS.  Module-level, so a pool worker can unpickle and
    call it.  :class:`~repro.exec.pool.JobRunner` runs every job through
    it, as ``run_timed(execute_job, job, check_invariants)``, with
    telemetry on or off, and the parent builds the job events from the
    returned values.
    """
    t0 = _clock()
    stats = run(*args)
    return stats, os.getpid(), _clock() - t0, _peak_rss_kb()


def job_finished_event(key: str, pid: int, run_cycles: int, wall_s: float,
                       peak_rss_kb: Optional[int]) -> Dict[str, Any]:
    """The ``job_finished`` event of a job that ran ``wall_s`` seconds."""
    rate = run_cycles / wall_s if wall_s > 0 else 0.0
    return event("job_finished", key=key, pid=pid, wall_s=round(wall_s, 6),
                 run_cycles=run_cycles, sim_cycles_per_sec=round(rate, 1),
                 peak_rss_kb=peak_rss_kb)


# ----------------------------------------------------------------------
# The JSONL run log
# ----------------------------------------------------------------------

class FleetLogWriter:
    """Append-only JSONL sink: one event per line, header line first.

    Each event is serialized to a single buffer (record plus trailing
    newline) and appended with one ``os.write`` on an ``O_APPEND``
    descriptor.  POSIX makes such appends atomic with respect to both
    concurrent appenders and readers, so a live tailer (``repro status
    --follow``) never observes a torn record, and two writers sharing a
    path interleave whole lines.  The descriptor is unbuffered, so every
    event is durable on return — no separate flush step exists to tear.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fd: Optional[int] = os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        self.write(event("fleet_log", schema=FLEETLOG_SCHEMA))

    def write(self, doc: Dict[str, Any]) -> None:
        if self._fd is None:
            return
        data = (json.dumps(doc, sort_keys=True,
                           separators=(",", ":")) + "\n").encode("utf-8")
        os.write(self._fd, data)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


def read_fleet_log(path: str,
                   tolerate_partial: bool = False) -> List[Dict[str, Any]]:
    """Parse and validate a fleet log; returns its events in order.

    Raises :class:`ValueError` on a malformed line, an invalid event,
    or a missing/mismatched ``fleet_log`` header.

    With ``tolerate_partial=True`` a truncated *final* line is dropped
    instead of raising, so a log can be read while a writer is still
    appending to it (live tail).  :class:`FleetLogWriter` emits each
    record and its newline in one atomic append, so a final line that
    fails to parse or lacks its newline is a record still in flight —
    never silently-lost data.  Corruption anywhere else still raises.
    """
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    complete = text.endswith("\n")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    last = len(lines) - 1
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        is_final = index == last
        if tolerate_partial and is_final and not complete:
            break
        try:
            doc = json.loads(line)
        except ValueError:
            if tolerate_partial and is_final:
                break
            raise ValueError(
                f"{path}:{index + 1}: not valid JSON") from None
        try:
            events.append(validate_event(doc))
        except ValueError as exc:
            if tolerate_partial and is_final:
                break
            raise ValueError(f"{path}:{index + 1}: {exc}") from None
    if not events or events[0]["event"] != "fleet_log":
        raise ValueError(f"{path}: missing fleet_log header line")
    return events


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

class FleetMonitor:
    """Aggregates fleet events into a live sweep status.

    One monitor serves a whole sweep: the runner feeds it plan, cache
    and job events, and the CLI feeds it section markers.  Every event
    arrives from the parent process's one thread.

    Parameters
    ----------
    log_path:
        Append every event (with a monotone ``seq``) to this JSONL
        file; ``None`` disables logging.
    on_line:
        Progress sink: called with the rendered status line whenever it
        changes (heartbeat updates are throttled to ``min_interval``
        wall seconds; lifecycle events always flush).
    sections:
        Planned section keys in run order (e.g. the driver names of
        ``repro experiments``), for the ETA estimate.
    eta_hints:
        ``{section: seconds}`` expected wall time per section, e.g.
        from :func:`load_eta_hints`.
    """

    def __init__(self, log_path: Optional[str] = None,
                 on_line: Optional[Callable[[str], None]] = None,
                 sections: Optional[Sequence[str]] = None,
                 eta_hints: Optional[Dict[str, float]] = None) -> None:
        self._log = FleetLogWriter(log_path) if log_path else None
        self._on_line = on_line
        self._seq = 0
        self.events_handled = 0

        self.workers: Optional[int] = None
        self.planned = 0
        self.unique = 0
        self.queued = 0
        self.completed = 0
        self.failed = 0
        self.running: Dict[str, int] = {}  # key -> latest heartbeat cycles
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_puts = 0
        self.memo_hits = 0
        self.sim_cycles_done = 0
        self.peak_rss_kb: Optional[int] = None
        self.job_rows: List[Dict[str, Any]] = []
        self.sections_seen: List[str] = []
        self.finished: Optional[Dict[str, Any]] = None

        self._pending_sections: List[str] = list(sections or [])
        self._eta_hints = dict(eta_hints) if eta_hints else None
        self._current_section: Optional[str] = None
        self._section_t0: Optional[float] = None
        self._t_first: Optional[float] = None
        self._t_last: Optional[float] = None
        self._last_line = ""
        self._last_flush = 0.0
        self.min_interval = 0.5

    # -- convenience emitters (parent-originated events) ---------------

    def start(self, jobs: int, **fields: Any) -> None:
        """Record the start of a sweep (``sweep_started``)."""
        self.handle(event("sweep_started", jobs=jobs, **fields))

    def section(self, key: str) -> None:
        """Record entry into a named sweep section."""
        self.handle(event("section_started", section=key))

    def finish(self, jobs_executed: Optional[int] = None) -> None:
        """Record ``sweep_finished`` and close the log."""
        wall = 0.0
        if self._t_first is not None and self._t_last is not None:
            wall = max(0.0, self._t_last - self._t_first)
        self.handle(event(
            "sweep_finished",
            wall_s=round(wall, 6),
            jobs_executed=(self.completed if jobs_executed is None
                           else jobs_executed),
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            cache_puts=self.cache_puts,
            sim_cycles=self.sim_cycles_done,
        ))
        self.close()

    def close(self) -> None:
        if self._log is not None:
            self._log.close()

    # -- ingestion ------------------------------------------------------

    def handle(self, doc: Dict[str, Any]) -> None:
        """Ingest one event: validate, sequence, log, aggregate."""
        validate_event(doc)
        doc = dict(doc)
        doc["seq"] = self._seq
        self._seq += 1
        self.events_handled += 1
        if self._log is not None:
            self._log.write(doc)
        self._apply(doc)
        self._maybe_render(doc["event"])

    def _apply(self, doc: Dict[str, Any]) -> None:
        kind = doc["event"]
        t = doc["t"]
        if self._t_first is None:
            self._t_first = t
        self._t_last = t
        if kind == "sweep_started":
            self.workers = doc["jobs"]
        elif kind == "section_started":
            section = doc["section"]
            self.sections_seen.append(section)
            if section in self._pending_sections:
                self._pending_sections.remove(section)
            self._section_t0 = t
            self._current_section = section
        elif kind == "plan_enqueued":
            self.planned += doc["planned"]
            self.unique += doc["unique"]
            self.queued += doc["pending"]
        elif kind == "memo_hit":
            self.memo_hits += 1
        elif kind == "cache_hit":
            self.cache_hits += 1
        elif kind == "cache_miss":
            self.cache_misses += 1
        elif kind == "cache_put":
            self.cache_puts += 1
        elif kind == "job_started":
            self.running.setdefault(doc["key"], 0)
        elif kind == "job_progress":
            self.running[doc["key"]] = doc["cycles"]
        elif kind == "job_finished":
            self.running.pop(doc["key"], None)
            self.completed += 1
            self.queued = max(0, self.queued - 1)
            self.sim_cycles_done += doc["run_cycles"]
            rss = doc.get("peak_rss_kb")
            if rss is not None:
                self.peak_rss_kb = max(self.peak_rss_kb or 0, rss)
            self.job_rows.append({
                "key": doc["key"],
                "wall_s": doc["wall_s"],
                "run_cycles": doc["run_cycles"],
                "sim_cycles_per_sec": doc["sim_cycles_per_sec"],
                "peak_rss_kb": rss,
            })
        elif kind == "job_failed":
            self.running.pop(doc["key"], None)
            self.failed += 1
            self.queued = max(0, self.queued - 1)
        elif kind == "sweep_finished":
            self.finished = doc

    # -- derived status -------------------------------------------------

    def elapsed_s(self) -> float:
        """Wall seconds spanned by the events seen so far."""
        if self._t_first is None or self._t_last is None:
            return 0.0
        return max(0.0, self._t_last - self._t_first)

    def throughput(self) -> float:
        """Aggregate simulated cycles per wall second, fleet-wide."""
        elapsed = self.elapsed_s()
        cycles = self.sim_cycles_done + sum(self.running.values())
        return cycles / elapsed if elapsed > 0 else 0.0

    def cache_hit_rate(self) -> Optional[float]:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else None

    def eta_seconds(self) -> Optional[float]:
        """Remaining wall time from the BENCH per-section hints."""
        if self._eta_hints is None:
            return None
        remaining = sum(self._eta_hints.get(s, 0.0)
                        for s in self._pending_sections)
        if self._current_section is not None \
                and self._section_t0 is not None \
                and self._t_last is not None:
            hint = self._eta_hints.get(self._current_section, 0.0)
            remaining += max(0.0, hint - (self._t_last - self._section_t0))
        return remaining

    def summary(self) -> Dict[str, Any]:
        """The whole status as one plain dict (see ``repro status``)."""
        return {
            "schema": FLEETLOG_SCHEMA,
            "events": self.events_handled,
            "workers": self.workers,
            "planned": self.planned,
            "unique": self.unique,
            "queued": self.queued,
            "running": len(self.running),
            "completed": self.completed,
            "failed": self.failed,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "puts": self.cache_puts,
                "memo_hits": self.memo_hits,
                "hit_rate": self.cache_hit_rate(),
            },
            "sim_cycles": self.sim_cycles_done,
            "wall_s": round(self.elapsed_s(), 6),
            "eta_s": (round(self.eta_seconds(), 3)
                      if self.eta_seconds() is not None
                      and self.finished is None else None),
            "sim_cycles_per_sec": round(self.throughput(), 1),
            "peak_rss_kb": self.peak_rss_kb,
            "sections": list(self.sections_seen),
            "jobs": sorted(self.job_rows,
                           key=lambda row: (-row["wall_s"], row["key"])),
        }

    # -- progress line --------------------------------------------------

    def render_progress(self) -> str:
        """One status line: jobs, throughput, cache, ETA."""
        parts = []
        if self._current_section is not None:
            parts.append(f"[{self._current_section}]")
        total = self.completed + self.failed + self.queued \
            + len(self.running)
        parts.append(f"{self.completed}/{total} jobs")
        if self.running:
            parts.append(f"{len(self.running)} running")
        if self.failed:
            parts.append(f"{self.failed} FAILED")
        rate = self.throughput()
        if rate:
            parts.append(f"{_fmt_rate(rate)} cyc/s")
        lookups = self.cache_hits + self.cache_misses
        if lookups:
            parts.append(f"cache {self.cache_hits}/{lookups}")
        eta = self.eta_seconds()
        if eta is not None and self.finished is None:
            parts.append(f"ETA ~{eta:.0f}s")
        return "  ".join(parts)

    def _maybe_render(self, event_type: str) -> None:
        if self._on_line is None:
            return
        line = self.render_progress()
        if line == self._last_line:
            return
        if event_type == "job_progress":
            now = time.monotonic()  # repro: allow-nondet(heartbeat render throttling is a display concern; the progress line is never part of a deterministic artifact)
            if now - self._last_flush < self.min_interval:
                return
            self._last_flush = now
        self._last_line = line
        try:
            self._on_line(line)
        except Exception:  # noqa: BLE001 - display must not kill the sweep
            pass


def _fmt_rate(rate: float) -> str:
    if rate >= 1e6:
        return f"{rate / 1e6:.1f}M"
    if rate >= 1e3:
        return f"{rate / 1e3:.0f}k"
    return f"{rate:.0f}"


class ProgressPrinter:
    """Progress sink that rewrites one terminal line (or appends).

    On a TTY the line is redrawn in place with ``\\r``; otherwise each
    update is its own line (CI logs stay readable).  Always writes to
    ``stream`` (default stderr) so stdout artifacts stay clean.
    """

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._width = 0

    def __call__(self, line: str) -> None:
        if self._tty:
            pad = max(0, self._width - len(line))
            self.stream.write("\r" + line + " " * pad)
            self._width = len(line)
        else:
            self.stream.write(line + "\n")
        self.stream.flush()

    def done(self) -> None:
        """Terminate the rewritten line before normal output resumes."""
        if self._tty and self._width:
            self.stream.write("\n")
            self.stream.flush()


# ----------------------------------------------------------------------
# Log replay and summaries
# ----------------------------------------------------------------------

def replay_fleet_log(events: Sequence[Dict[str, Any]]) -> FleetMonitor:
    """Replay logged ``events`` through a fresh monitor and return it.

    Elapsed time comes from the event timestamps, so replaying a log is
    itself deterministic given the log.  The returned monitor exposes
    the full live API — :meth:`FleetMonitor.summary`,
    :meth:`FleetMonitor.render_progress` — which is how ``repro status
    --follow`` re-renders the progress line of a sweep it is only
    watching through the log file.
    """
    monitor = FleetMonitor()
    for doc in events:
        if doc.get("event") == "fleet_log":
            continue
        doc = dict(doc)
        doc.pop("seq", None)
        monitor.handle(doc)
    return monitor


def summarize_fleet_log(events: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Replay ``events`` through a fresh monitor; returns its summary."""
    return replay_fleet_log(events).summary()


def format_fleet_summary(summary: Dict[str, Any],
                         max_jobs: int = 15) -> str:
    """Human-readable rendering of a summary (``repro status``)."""
    lines: List[str] = []
    workers = summary.get("workers")
    lines.append(
        f"jobs: {summary['completed']} completed"
        + (f", {summary['failed']} failed" if summary["failed"] else "")
        + (f", {summary['running']} running" if summary["running"] else "")
        + (f", {summary['queued']} queued" if summary["queued"] else "")
        + f" of {summary['planned']} planned"
        + f" ({summary['unique']} unique)"
        + (f", {workers} worker{'s' if workers != 1 else ''}"
           if workers else ""))
    cache = summary["cache"]
    rate = cache["hit_rate"]
    lines.append(
        f"cache: {cache['hits']} hits, {cache['misses']} misses, "
        f"{cache['puts']} puts, {cache['memo_hits']} memo hits"
        + (f" ({rate:.1%} hit rate)" if rate is not None else ""))
    lines.append(
        f"throughput: {summary['sim_cycles']:,} sim cycles in "
        f"{summary['wall_s']:.2f}s wall "
        f"({_fmt_rate(summary['sim_cycles_per_sec'])} cyc/s aggregate)")
    if summary.get("peak_rss_kb") is not None:
        lines.append(f"peak RSS: {summary['peak_rss_kb']:,} KiB")
    if summary["sections"]:
        lines.append("sections: " + ", ".join(summary["sections"]))
    jobs = summary["jobs"]
    if jobs:
        lines.append("slowest jobs:")
        for row in jobs[:max_jobs]:
            lines.append(
                f"  {row['wall_s']:>8.3f}s  "
                f"{row['run_cycles']:>12,} cyc  "
                f"{_fmt_rate(row['sim_cycles_per_sec']):>7} cyc/s  "
                f"{row['key']}")
        if len(jobs) > max_jobs:
            lines.append(f"  ... and {len(jobs) - max_jobs} more")
    return "\n".join(lines)


def load_eta_hints(path: str = DEFAULT_ETA_HINTS) -> Optional[Dict[str, float]]:
    """Per-driver expected serial seconds from ``BENCH_experiments.json``.

    Returns ``None`` when the record is missing or unreadable — ETAs
    are a nicety, never a requirement.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        per_driver = doc["drivers"]["per_driver"]
        return {name: float(timing["serial_s"])
                for name, timing in per_driver.items()}
    except (OSError, ValueError, KeyError, TypeError):
        return None


# ----------------------------------------------------------------------
# Single-run progress (repro run --progress)
# ----------------------------------------------------------------------

class RunProgress:
    """Live progress line for one in-process simulation.

    A :class:`FleetMonitor` feeding a :class:`ProgressPrinter`, with a
    ``job_progress`` heartbeat every ``every`` simulated cycles from the
    machine's ``advance`` probe.  Attach before ``machine.run``; call
    :meth:`finish` after.  Observers never perturb the run, so the
    printed numbers are free.
    """

    def __init__(self, machine: "Machine", label: str,
                 every: int = DEFAULT_HEARTBEAT,
                 stream: Optional[IO[str]] = None) -> None:
        self.printer = ProgressPrinter(stream)
        self.monitor = FleetMonitor(on_line=self.printer)
        self.label = label
        self.pid = os.getpid()
        self.monitor.handle(event("job_started", key=label, pid=self.pid))
        every = max(1, int(every))
        last = [0]

        def _tick(now_cycles: int) -> None:
            if now_cycles - last[0] >= every:
                last[0] = now_cycles - (now_cycles % every)
                self.monitor.handle(event("job_progress", key=label,
                                          pid=self.pid, cycles=now_cycles))

        machine.observe().on_advance.append(_tick)
        self._t0 = _clock()

    @classmethod
    def attach(cls, machine: "Machine", label: str,
               every: int = DEFAULT_HEARTBEAT,
               stream: Optional[IO[str]] = None) -> "RunProgress":
        return cls(machine, label, every=every, stream=stream)

    def finish(self, stats: "RunStats") -> None:
        self.monitor.handle(job_finished_event(
            self.label, self.pid, stats.run_cycles, _clock() - self._t0,
            _peak_rss_kb()))
        self.printer.done()
