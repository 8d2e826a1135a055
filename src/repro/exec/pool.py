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
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exec.cache import ResultCache
from repro.exec.jobs import SimJob, execute_job, job_key
from repro.sim.stats import RunStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
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
    coalesced away.  Shared by :class:`JobRunner` (one-shot sweeps) and
    :class:`FarmExecutor` (the long-running service), so both dedup a
    plan identically.
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
        re-run.  The returned map covers every job in the plan.
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
            if self.n_workers == 1 or len(pending) == 1:
                fresh = self._run_serial(pending)
            else:
                fresh = self._run_pool(pending)
            for key, stats in fresh.items():
                self._memo[key] = stats
                results[key] = stats
                if self.cache is not None:
                    self.cache.put(pending[key], stats)
            self.jobs_executed += len(fresh)
        return {submitted: results[executed]
                for submitted, executed in aliases.items()}

    def _run_serial(
        self, pending: "OrderedDict[str, SimJob]"
    ) -> Dict[str, RunStats]:
        worker_telemetry = None
        if self.telemetry is not None:
            from repro.obs.fleet import FleetTelemetry

            worker_telemetry = FleetTelemetry(
                self.telemetry.handle,
                heartbeat_every=self.heartbeat_every)
        return {
            key: execute_job(job, check_invariants=self.check_invariants,
                             telemetry=worker_telemetry)
            for key, job in pending.items()
        }

    def _run_pool(
        self, pending: "OrderedDict[str, SimJob]"
    ) -> Dict[str, RunStats]:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(self.n_workers, len(pending))
        keys: List[str] = list(pending)

        if self.telemetry is None:
            with ProcessPoolExecutor(max_workers=workers) as executor:
                futures = {
                    key: executor.submit(execute_job, pending[key],
                                         self.check_invariants)
                    for key in keys
                }
                # Collect in plan order; completion order is irrelevant
                # because results are keyed by spec.
                return {key: futures[key].result() for key in keys}

        # Telemetry in pool mode: workers put events on a manager-queue
        # proxy (picklable, unlike a raw multiprocessing.Queue, so it
        # survives the trip through the executor's initargs) and a
        # daemon drain thread relays them into the monitor while the
        # futures run.  Results still collect in plan order — the
        # telemetry path adds no ordering of its own.
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
                        key: executor.submit(_execute_job_in_worker,
                                             pending[key],
                                             self.check_invariants)
                        for key in keys
                    }
                    return {key: futures[key].result() for key in keys}
            finally:
                queue.put(None)
                drain.join()


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


def _execute_with_monitor(job: SimJob, monitor,
                          heartbeat_every: int) -> RunStats:
    """In-process execution with telemetry delivered straight to the
    monitor (thread-pool farms; mirrors JobRunner's serial path)."""
    from repro.obs.fleet import FleetTelemetry

    telemetry = FleetTelemetry(monitor.handle,
                               heartbeat_every=heartbeat_every)
    return execute_job(job, check_invariants=False, telemetry=telemetry)


class Submission(NamedTuple):
    """One :meth:`FarmExecutor.submit` outcome.

    ``future`` resolves to the job's :class:`RunStats`; ``source`` says
    how the submission was satisfied — ``"queued"`` (scheduled fresh),
    ``"inflight"`` (coalesced onto an execution already running),
    ``"memo"`` (in-process memo), or ``"cache"`` (on-disk result
    cache).  Every source but ``"queued"`` means no new execution.
    """

    key: str
    future: "object"
    source: str


class FarmExecutor:
    """Persistent, thread-safe job executor for long-running services.

    :class:`JobRunner` is built for one-shot sweeps: a single caller
    hands it a whole plan, it spins up a pool, drains it, and returns.
    A server needs the opposite shape — many callers submitting single
    jobs at arbitrary times against one long-lived worker pool — plus
    one guarantee JobRunner never needed: submissions of a key that is
    *currently executing* must coalesce onto that execution rather than
    run again.  :meth:`submit` resolves each job, in order, against the
    in-flight table, the in-process memo, and the on-disk cache, and
    only then schedules it; the returned future is shared by every
    caller of the same key.  All of it is lock-protected, so concurrent
    HTTP clients race safely.

    Dedup semantics, result keying, and telemetry events match
    JobRunner exactly (:func:`plan_unique` is shared), and the blocking
    :meth:`run` is plug-compatible with JobRunner's — which is how
    ``repro serve`` feeds the unmodified experiment drivers through the
    farm and gets byte-identical reports out.

    ``worker_pool`` selects the execution substrate: ``"process"``
    (default; real isolation, telemetry relayed over a manager queue by
    a drain thread) or ``"thread"`` (in-process, telemetry direct — the
    serial JobRunner path, one job at a time per worker thread).
    """

    def __init__(self, jobs: JobsSpec = 1,
                 cache: Optional[ResultCache] = None,
                 attribution: bool = False,
                 telemetry: Optional["FleetMonitor"] = None,
                 heartbeat_every: Optional[int] = None,
                 worker_pool: str = "process") -> None:
        import threading

        if worker_pool not in ("process", "thread"):
            raise ValueError(
                f"worker_pool must be 'process' or 'thread', "
                f"got {worker_pool!r}")
        self.n_workers = resolve_jobs(jobs)
        self.cache = cache
        self.attribution = attribution
        self.telemetry = telemetry
        self.worker_pool = worker_pool
        if heartbeat_every is None:
            from repro.obs.fleet import DEFAULT_HEARTBEAT

            heartbeat_every = DEFAULT_HEARTBEAT
        self.heartbeat_every = heartbeat_every
        if telemetry is not None and cache is not None:
            cache.on_event = self._cache_event
        self._lock = threading.Lock()
        self._memo: Dict[str, RunStats] = {}
        self._inflight: Dict[str, "object"] = {}
        self._pool = None
        self._manager = None
        self._queue = None
        self._drain = None
        self._closed = False
        self.jobs_executed = 0
        self.jobs_deduplicated = 0
        self.inflight_hits = 0
        self.memo_hits = 0

    # ------------------------------------------------------------------
    # Telemetry plumbing (mirrors JobRunner)
    # ------------------------------------------------------------------

    def _emit(self, event_type: str, **fields) -> None:
        if self.telemetry is not None:
            from repro.obs.fleet import event

            self.telemetry.handle(event(event_type, **fields))

    def _cache_event(self, kind: str, job: SimJob) -> None:
        self._emit("cache_" + kind, key=job_key(job))

    def _drain_loop(self) -> None:
        while True:
            try:
                item = self._queue.get()
            except (EOFError, OSError):  # manager torn down
                return
            if item is None:
                return
            try:
                self.telemetry.handle(item)
            except Exception:  # noqa: BLE001 - side channel
                pass

    def _ensure_pool(self):
        # Called under self._lock.  Lazy so a farm constructed for a
        # server costs nothing until the first job arrives.
        if self._pool is not None:
            return self._pool
        if self.worker_pool == "thread":
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(max_workers=self.n_workers)
            return self._pool
        from concurrent.futures import ProcessPoolExecutor

        if self.telemetry is None:
            self._pool = ProcessPoolExecutor(max_workers=self.n_workers)
            return self._pool
        import multiprocessing
        import threading

        self._manager = multiprocessing.Manager()
        self._queue = self._manager.Queue()
        self._drain = threading.Thread(target=self._drain_loop,
                                       daemon=True)
        self._drain.start()
        self._pool = ProcessPoolExecutor(
            max_workers=self.n_workers,
            initializer=_init_worker_telemetry,
            initargs=(self._queue, self.heartbeat_every))
        return self._pool

    def _schedule(self, job: SimJob):
        # Called under self._lock with the pool ensured.
        pool = self._ensure_pool()
        if self.worker_pool == "thread":
            if self.telemetry is not None:
                return pool.submit(_execute_with_monitor, job,
                                   self.telemetry, self.heartbeat_every)
            return pool.submit(execute_job, job)
        if self._queue is not None:
            return pool.submit(_execute_job_in_worker, job, False)
        return pool.submit(execute_job, job)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, job: SimJob) -> Submission:
        """Resolve one job; returns its (possibly shared) future.

        Resolution order: in-flight execution, in-process memo, on-disk
        cache, fresh schedule.  Emits the same telemetry events a
        JobRunner plan of one job would (``plan_enqueued`` /
        ``job_queued`` / ``memo_hit``; the cache emits its own
        hit/miss/put events through its hook).
        """
        if self.attribution and not job.attribution:
            job = dataclasses.replace(job, attribution=True)
        key = job_key(job)
        with self._lock:
            if self._closed:
                raise RuntimeError("FarmExecutor is closed")
            future = self._inflight.get(key)
            if future is not None:
                self.inflight_hits += 1
                self.jobs_deduplicated += 1
                self._emit("plan_enqueued", planned=1, unique=0, pending=0)
                return Submission(key, future, "inflight")
            memoized = self._memo.get(key)
            if memoized is not None:
                self.memo_hits += 1
                self._emit("plan_enqueued", planned=1, unique=1, pending=0)
                self._emit("memo_hit", key=key)
                return Submission(key, _resolved_future(memoized), "memo")
        # Disk lookup outside the lock: file IO must not serialize
        # unrelated submissions.
        if self.cache is not None:
            cached = self.cache.get(job)
            if cached is not None:
                with self._lock:
                    self._memo.setdefault(key, cached)
                self._emit("plan_enqueued", planned=1, unique=1, pending=0)
                return Submission(key, _resolved_future(cached), "cache")
        with self._lock:
            if self._closed:
                raise RuntimeError("FarmExecutor is closed")
            future = self._inflight.get(key)
            if future is not None:
                # A racer scheduled it while we were probing the disk.
                self.inflight_hits += 1
                self.jobs_deduplicated += 1
                self._emit("plan_enqueued", planned=1, unique=0, pending=0)
                return Submission(key, future, "inflight")
            self._emit("plan_enqueued", planned=1, unique=1, pending=1)
            self._emit("job_queued", key=key)
            future = self._schedule(job)
            self._inflight[key] = future
        future.add_done_callback(
            lambda f, key=key, job=job: self._settle(key, job, f))
        return Submission(key, future, "queued")

    def _settle(self, key: str, job: SimJob, future) -> None:
        failed = future.cancelled() or future.exception() is not None
        with self._lock:
            if not failed:
                # Memoize before clearing in-flight so no window exists
                # where a concurrent submit would re-schedule the key.
                self._memo[key] = future.result()
                self.jobs_executed += 1
            self._inflight.pop(key, None)
        if not failed and self.cache is not None:
            self.cache.put(job, future.result())

    # ------------------------------------------------------------------
    # JobRunner-compatible blocking interface
    # ------------------------------------------------------------------

    def run(self, plan: Sequence[SimJob],
            attribution: Optional[bool] = None) -> Dict[str, RunStats]:
        """Run a whole plan through the farm; blocks for all results.

        Same contract as :meth:`JobRunner.run` — the result map is keyed
        by the jobs as submitted and is a pure function of the plan —
        so experiment drivers accept a farm wherever they accept a
        runner.
        """
        if attribution is None:
            attribution = self.attribution
        aliases, unique, dups = plan_unique(plan, attribution)
        with self._lock:
            self.jobs_deduplicated += dups
        submissions = {key: self.submit(job)
                       for key, job in unique.items()}
        results = {key: sub.future.result()
                   for key, sub in submissions.items()}
        return {submitted: results[executed]
                for submitted, executed in aliases.items()}

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """Executor-level counters for status endpoints."""
        with self._lock:
            return {
                "jobs_executed": self.jobs_executed,
                "jobs_deduplicated": self.jobs_deduplicated,
                "inflight_hits": self.inflight_hits,
                "memo_hits": self.memo_hits,
                "inflight": len(self._inflight),
                "memoized": len(self._memo),
            }

    def close(self, wait: bool = True) -> None:
        """Shut the farm down; idempotent.

        Waits for in-flight jobs (unless ``wait=False``), then tears
        down the pool, the telemetry drain, and the manager.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
            queue, self._queue = self._queue, None
            drain, self._drain = self._drain, None
            manager, self._manager = self._manager, None
        if pool is not None:
            pool.shutdown(wait=wait)
        if queue is not None:
            try:
                queue.put(None)
            except (EOFError, OSError):
                pass
        if drain is not None:
            drain.join(timeout=5.0)
        if manager is not None:
            manager.shutdown()

    def __enter__(self) -> "FarmExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _resolved_future(stats: RunStats):
    from concurrent.futures import Future

    future: "Future[RunStats]" = Future()
    future.set_result(stats)
    return future


def run_jobs(
    plan: Sequence[SimJob],
    jobs: JobsSpec = 1,
    cache: Optional[ResultCache] = None,
) -> Dict[str, RunStats]:
    """One-shot convenience wrapper around :class:`JobRunner`."""
    return JobRunner(jobs=jobs, cache=cache).run(plan)
