"""Deterministic parallel job runner.

:class:`JobRunner` takes a flat plan of :class:`~repro.exec.jobs.SimJob`
specs and returns ``{job_key: RunStats}``.  The contract that makes
parallelism safe for a reproduction pipeline:

**The result map is a pure function of the plan.**  Jobs are
deduplicated by key before anything runs, results are keyed by spec (not
by completion order), and every simulation is itself deterministic — so
the map is identical whether it was computed serially, by eight worker
processes finishing in any order, or straight from the on-disk cache.
Drivers then assemble tables and figures by looking keys up in plan
order, which keeps rendered output byte-identical for any ``--jobs``
value.

``jobs=1`` runs everything in-process (no executor, no pickling) — the
debugging-friendly serial fallback.  ``jobs="auto"`` uses one worker per
CPU.

**Fleet telemetry** (:mod:`repro.obs.fleet`) rides the runner as a pure
side channel: pass ``telemetry=FleetMonitor(...)`` and the runner
streams plan/cache/memo events itself, wires the result cache's hook,
and — in pool mode — hands every worker process a ``multiprocessing``
manager queue (via the executor's initializer) whose events a drain
thread relays into the monitor.  Nothing telemetry produces feeds back
into job selection, execution order, or results, so the result map and
every cache key are byte-identical with telemetry on or off.
"""

from __future__ import annotations

import dataclasses
import os
from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exec.cache import ResultCache
from repro.exec.jobs import SimJob, execute_job, job_key
from repro.sim.stats import RunStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from concurrent.futures import Future

    from repro.obs.fleet import FleetMonitor

JobsSpec = Union[int, str]


def resolve_jobs(value: JobsSpec) -> int:
    """Normalise a ``--jobs`` value: ``"auto"`` -> CPU count, else int.

    Raises :class:`ValueError` for zero, negatives, and junk.
    """
    if isinstance(value, str):
        text = value.strip().lower()
        if text == "auto":
            return os.cpu_count() or 1
        try:
            value = int(text)
        except ValueError:
            raise ValueError(
                f"--jobs expects a positive integer or 'auto', got {text!r}"
            ) from None
    if value < 1:
        raise ValueError(f"--jobs must be >= 1, got {value}")
    return value


def plan_unique(
    plan: Sequence[SimJob], attribution: bool = False,
) -> "Tuple[OrderedDict[str, str], OrderedDict[str, SimJob], int]":
    """Deduplicate a plan by job key; returns (aliases, unique, dups).

    ``aliases`` maps each distinct key *as submitted* to the key *as
    executed* — the two differ only when ``attribution`` upgrades plain
    jobs to ``attribution=True`` (callers keep looking results up by
    the key they planned with).  ``unique`` maps executed key to the
    job to run, in first-appearance order; ``dups`` counts submissions
    coalesced away.
    """
    aliases: "OrderedDict[str, str]" = OrderedDict()
    unique: "OrderedDict[str, SimJob]" = OrderedDict()
    dups = 0
    for job in plan:
        submitted_key = job_key(job)
        if attribution and not job.attribution:
            job = dataclasses.replace(job, attribution=True)
            exec_key = job_key(job)
        else:
            exec_key = submitted_key
        if submitted_key in aliases:
            dups += 1
            continue
        aliases[submitted_key] = exec_key
        if exec_key in unique:
            dups += 1
        else:
            unique[exec_key] = job
    return aliases, unique, dups


class JobRunner:
    """Executes job plans with dedup, caching, and a process pool.

    Parameters
    ----------
    jobs:
        Worker count: an int, or ``"auto"`` for the CPU count.  ``1``
        (the default) runs jobs in-process.
    cache:
        A :class:`ResultCache`, or ``None`` to disable disk caching.
        Results are also memoised in-process for the runner's lifetime,
        so drivers sharing one runner never repeat a configuration even
        with the disk cache off.
    check_invariants:
        Run every *executed* job under the continuous protocol
        invariant checker
        (:class:`~repro.core.protocol.invariants.InvariantChecker`); a
        violation raises out of :meth:`run`.  Checking never changes
        results (observers are perturbation-free), so cached results
        remain valid and are returned unchecked.
    attribution:
        Rewrite every submitted job with ``attribution=True`` before
        executing, so each result carries its cycle-attribution
        artifact (:mod:`repro.obs.attribution`) and persists it through
        the result cache.  Unlike ``check_invariants``, this *is* a
        spec dimension — attributed and plain results *cache*
        separately (existing plain-job cache keys are untouched) — but
        the returned map is still keyed by the job as *submitted*, so
        drivers that planned plain jobs look results up unchanged.
    telemetry:
        A :class:`~repro.obs.fleet.FleetMonitor` that receives the
        sweep's event stream: plan/dedup/memo events from the runner,
        hit/miss/put events from the cache, and job lifecycle events
        (start, sim-cycle heartbeats, finish with wall time and peak
        RSS) from workers — in-process when serial, relayed over a
        manager queue when pooled.  Strictly a side channel: results
        and cache keys are byte-identical with or without it.
    heartbeat_every:
        Simulated cycles between worker ``job_progress`` heartbeats.
    """

    def __init__(self, jobs: JobsSpec = 1,
                 cache: Optional[ResultCache] = None,
                 check_invariants: bool = False,
                 attribution: bool = False,
                 telemetry: Optional["FleetMonitor"] = None,
                 heartbeat_every: Optional[int] = None) -> None:
        self.n_workers = resolve_jobs(jobs)
        self.cache = cache
        self.check_invariants = check_invariants
        self.attribution = attribution
        self.telemetry = telemetry
        if heartbeat_every is None:
            from repro.obs.fleet import DEFAULT_HEARTBEAT

            heartbeat_every = DEFAULT_HEARTBEAT
        self.heartbeat_every = heartbeat_every
        if telemetry is not None and cache is not None:
            cache.on_event = self._cache_event
        self._memo: Dict[str, RunStats] = {}
        self.jobs_executed = 0
        self.jobs_deduplicated = 0
        self.memo_hits = 0

    def _emit(self, event_type: str, **fields) -> None:
        if self.telemetry is not None:
            from repro.obs.fleet import event

            self.telemetry.handle(event(event_type, **fields))

    def _cache_event(self, kind: str, job: SimJob) -> None:
        self._emit("cache_" + kind, key=job_key(job))

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, plan: Sequence[SimJob]) -> Dict[str, RunStats]:
        """Run ``plan`` and return ``{job_key: RunStats}``.

        Duplicate specs run once; cached results (memo or disk) are not
        re-run.  The returned map covers every job in the plan.  If a
        job raises, every result that finished is still memoised and
        cached, and the first failure in plan order is raised (serially
        that is the first failure; later jobs do not run).
        """
        aliases, unique, dups = plan_unique(plan, self.attribution)
        self.jobs_deduplicated += dups

        results: Dict[str, RunStats] = {}
        pending: "OrderedDict[str, SimJob]" = OrderedDict()
        for key, job in unique.items():
            memoized = self._memo.get(key)
            if memoized is not None:
                self.memo_hits += 1
                self._emit("memo_hit", key=key)
                results[key] = memoized
                continue
            if self.cache is not None:
                cached = self.cache.get(job)
                if cached is not None:
                    self._memo[key] = cached
                    results[key] = cached
                    continue
            pending[key] = job

        self._emit("plan_enqueued", planned=len(plan), unique=len(unique),
                   pending=len(pending))
        for key in pending:
            self._emit("job_queued", key=key)

        if pending:
            def store(key: str, stats: RunStats) -> None:
                # Each result is kept the moment it finishes, so a
                # failing job costs a retry only itself.
                self._memo[key] = stats
                results[key] = stats
                if self.cache is not None:
                    self.cache.put(pending[key], stats)
                self.jobs_executed += 1

            if self.n_workers == 1 or len(pending) == 1:
                self._run_serial(pending, store)
            else:
                self._run_pool(pending, store)
        return {submitted: results[executed]
                for submitted, executed in aliases.items()}

    def _run_serial(self, pending: "OrderedDict[str, SimJob]",
                    store: Callable[[str, RunStats], None]) -> None:
        """Run ``pending`` in plan order; the first failure stops the
        run and raises."""
        worker_telemetry = None
        if self.telemetry is not None:
            from repro.obs.fleet import FleetTelemetry

            worker_telemetry = FleetTelemetry(
                self.telemetry.handle,
                heartbeat_every=self.heartbeat_every)
        for key, job in pending.items():
            store(key, execute_job(job,
                                   check_invariants=self.check_invariants,
                                   telemetry=worker_telemetry))

    def _run_pool(self, pending: "OrderedDict[str, SimJob]",
                  store: Callable[[str, RunStats], None]) -> None:
        """Run ``pending`` on a process pool, storing each result as it
        finishes; then raise the first failure in plan order."""
        from concurrent.futures import ProcessPoolExecutor

        workers = min(self.n_workers, len(pending))
        keys: List[str] = list(pending)

        if self.telemetry is None:
            with ProcessPoolExecutor(max_workers=workers) as executor:
                futures = {
                    executor.submit(execute_job, pending[key],
                                    self.check_invariants): key
                    for key in keys
                }
                _store_as_completed(futures, keys, store)
            return

        # Telemetry in pool mode: workers put events on a manager-queue
        # proxy (picklable, unlike a raw multiprocessing.Queue, so it
        # survives the trip through the executor's initargs) and a
        # daemon drain thread relays them into the monitor while the
        # futures run.  Results are keyed by spec, so the order they
        # are stored in is irrelevant and telemetry adds none of its own.
        import multiprocessing
        import threading

        with multiprocessing.Manager() as manager:
            queue = manager.Queue()

            def _drain() -> None:
                while True:
                    item = queue.get()
                    if item is None:
                        return
                    try:
                        self.telemetry.handle(item)
                    except Exception:  # noqa: BLE001 - side channel
                        pass

            drain = threading.Thread(target=_drain, daemon=True)
            drain.start()
            try:
                with ProcessPoolExecutor(
                        max_workers=workers,
                        initializer=_init_worker_telemetry,
                        initargs=(queue, self.heartbeat_every)) as executor:
                    futures = {
                        executor.submit(_execute_job_in_worker,
                                        pending[key],
                                        self.check_invariants): key
                        for key in keys
                    }
                    _store_as_completed(futures, keys, store)
            finally:
                queue.put(None)
                drain.join()


def _store_as_completed(futures: Dict["Future", str], keys: List[str],
                        store: Callable[[str, RunStats], None]) -> None:
    """``store`` every successful future as it completes, then raise
    the failure of the earliest key in plan order (``keys``), if any."""
    from concurrent.futures import as_completed

    failures: Dict[str, Exception] = {}
    for future in as_completed(futures):
        key = futures[future]
        try:
            stats = future.result()
        except Exception as exc:  # noqa: BLE001 - re-raised below
            failures[key] = exc
            continue
        store(key, stats)
    for key in keys:
        if key in failures:
            raise failures[key]


#: Per-worker-process telemetry queue, set by the pool initializer.
_WORKER_TELEMETRY_QUEUE = None
_WORKER_HEARTBEAT_EVERY = None


def _init_worker_telemetry(queue, heartbeat_every) -> None:
    """ProcessPoolExecutor initializer: stash the event queue."""
    global _WORKER_TELEMETRY_QUEUE, _WORKER_HEARTBEAT_EVERY
    _WORKER_TELEMETRY_QUEUE = queue
    _WORKER_HEARTBEAT_EVERY = heartbeat_every


def _execute_job_in_worker(job: SimJob, check_invariants: bool) -> RunStats:
    """Worker-process entry point: execute_job + telemetry, if wired."""
    telemetry = None
    if _WORKER_TELEMETRY_QUEUE is not None:
        from repro.obs.fleet import DEFAULT_HEARTBEAT, FleetTelemetry

        telemetry = FleetTelemetry(
            _WORKER_TELEMETRY_QUEUE.put,
            heartbeat_every=_WORKER_HEARTBEAT_EVERY or DEFAULT_HEARTBEAT)
    return execute_job(job, check_invariants=check_invariants,
                       telemetry=telemetry)
