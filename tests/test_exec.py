"""Tests for the parallel experiment runner (repro.exec).

Covers the determinism contract end to end: canonical job keys, the
RunStats JSON round trip, the on-disk cache (hit/miss, corruption,
version invalidation), worker-count resolution, dedup, and the
headline property — identical driver output at ``--jobs 1``,
``--jobs 2``, and from a warm cache.
"""

import json
import os

import pytest

from repro.analysis.experiments import fig2_worker_ratios, run_one
from repro.exec import JobRunner, ResultCache, make_job
from repro.exec.cache import cache_key
from repro.exec.jobs import canonical_json, execute_job, job_key
from repro.exec.pool import resolve_jobs
from repro.machine.params import MachineParams
from repro.workloads.worker import WorkerBenchmark

TINY = dict(worker_set_size=2, iterations=1)


def tiny_job(protocol="DirnH5SNB", n_nodes=16, **kwargs):
    merged = dict(TINY, **kwargs)
    return make_job(WorkerBenchmark, merged, protocol=protocol,
                    n_nodes=n_nodes)


# ----------------------------------------------------------------------
# Job keys
# ----------------------------------------------------------------------

class TestJobKeys:
    def test_kwarg_order_does_not_change_key(self):
        a = make_job(WorkerBenchmark,
                     {"worker_set_size": 2, "iterations": 1},
                     protocol="DirnH5SNB", n_nodes=16)
        b = make_job(WorkerBenchmark,
                     {"iterations": 1, "worker_set_size": 2},
                     protocol="DirnH5SNB", n_nodes=16)
        assert a == b
        assert job_key(a) == job_key(b)
        assert canonical_json(a) == canonical_json(b)

    def test_key_is_readable(self):
        key = job_key(tiny_job())
        assert key.startswith("workerbenchmark:DirnH5SNB:")

    def test_distinct_specs_get_distinct_keys(self):
        base = tiny_job()
        assert job_key(base) != job_key(tiny_job(protocol="DirnH2SNB"))
        assert job_key(base) != job_key(tiny_job(n_nodes=64))
        assert job_key(base) != job_key(tiny_job(iterations=2))

    def test_explicit_params_equal_shorthand(self):
        shorthand = tiny_job()
        explicit = make_job(
            WorkerBenchmark, dict(TINY), protocol="DirnH5SNB",
            params=MachineParams(n_nodes=16, victim_cache_enabled=True,
                                 perfect_ifetch=False))
        assert job_key(shorthand) == job_key(explicit)

    def test_any_machine_param_changes_key(self):
        base = MachineParams(n_nodes=16)
        tweaked = MachineParams(n_nodes=16, victim_cache_enabled=True)
        a = make_job(WorkerBenchmark, dict(TINY), protocol="DirnH5SNB",
                     params=base)
        b = make_job(WorkerBenchmark, dict(TINY), protocol="DirnH5SNB",
                     params=tweaked)
        assert job_key(a) != job_key(b)


# ----------------------------------------------------------------------
# RunStats JSON round trip
# ----------------------------------------------------------------------

def test_runstats_json_round_trip():
    stats = execute_job(tiny_job())
    encoded = json.dumps(stats.to_json_dict(), sort_keys=True)
    restored = type(stats).from_json_dict(json.loads(encoded))
    assert restored.run_cycles == stats.run_cycles
    assert restored.sequential_cycles == stats.sequential_cycles
    assert restored.n_nodes == stats.n_nodes
    assert restored.worker_set_histogram == stats.worker_set_histogram
    assert restored.per_node == stats.per_node
    assert restored.handler_samples == stats.handler_samples
    # And the round trip is a fixed point: re-encoding is identical.
    assert json.dumps(restored.to_json_dict(), sort_keys=True) == encoded


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------

class TestResultCache:
    def test_put_then_get(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = tiny_job()
        assert cache.get(job) is None
        stats = execute_job(job)
        path = cache.put(job, stats)
        assert os.path.isfile(path)
        got = cache.get(job)
        assert got is not None
        assert got.run_cycles == stats.run_cycles
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = tiny_job()
        cache.put(job, execute_job(job))
        with open(cache.path_for(job), "w", encoding="utf-8") as fh:
            fh.write("{truncated")
        assert cache.get(job) is None

    def test_machine_params_change_invalidates(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = tiny_job()
        cache.put(job, execute_job(job))
        tweaked = make_job(
            WorkerBenchmark, dict(TINY), protocol="DirnH5SNB",
            params=MachineParams(n_nodes=16, cache_bytes=32 * 1024))
        assert cache_key(job) != cache_key(tweaked)
        assert cache.get(tweaked) is None

    def test_cost_model_version_bump_invalidates(self, tmp_path,
                                                 monkeypatch):
        from repro.core.software import costmodel

        cache = ResultCache(str(tmp_path))
        job = tiny_job()
        cache.put(job, execute_job(job))
        assert cache.get(job) is not None
        monkeypatch.setattr(costmodel, "COST_MODEL_VERSION",
                            costmodel.COST_MODEL_VERSION + 1)
        assert cache.get(job) is None

    def test_prune_removes_stale_entries(self, tmp_path, monkeypatch):
        from repro.core.software import costmodel

        cache = ResultCache(str(tmp_path))
        job = tiny_job()
        stats = execute_job(job)
        cache.put(job, stats)
        monkeypatch.setattr(costmodel, "COST_MODEL_VERSION",
                            costmodel.COST_MODEL_VERSION + 1)
        cache.put(job, stats)  # current-version entry survives
        assert cache.prune() == 1
        assert cache.get(job) is not None


# ----------------------------------------------------------------------
# Worker-count resolution
# ----------------------------------------------------------------------

class TestResolveJobs:
    def test_ints_and_strings(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4
        assert resolve_jobs("2") == 2
        assert resolve_jobs(" 3 ") == 3

    def test_auto_is_at_least_one(self):
        assert resolve_jobs("auto") >= 1
        assert resolve_jobs("AUTO") >= 1

    def test_auto_on_one_cpu_host(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert resolve_jobs("auto") == 1

    def test_auto_when_cpu_count_unknown(self, monkeypatch):
        # os.cpu_count() may return None; "auto" must still be sane
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_jobs("auto") == 1

    def test_auto_uses_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_jobs(" Auto ") == 8

    @pytest.mark.parametrize("bad", [0, -1, "0", "-3", "junk", "1.5", ""])
    def test_rejects_junk(self, bad):
        with pytest.raises(ValueError):
            resolve_jobs(bad)


# ----------------------------------------------------------------------
# Runner: dedup, memo, parallel determinism
# ----------------------------------------------------------------------

class TestJobRunner:
    def test_duplicates_run_once(self):
        job = tiny_job()
        runner = JobRunner(jobs=1)
        results = runner.run([job, job, job])
        assert len(results) == 1
        assert runner.jobs_executed == 1
        assert runner.jobs_deduplicated == 2

    def test_memo_spans_plans(self):
        runner = JobRunner(jobs=1)
        runner.run([tiny_job()])
        runner.run([tiny_job()])
        assert runner.jobs_executed == 1
        assert runner.memo_hits == 1

    def test_parallel_matches_serial(self):
        plan = [tiny_job(), tiny_job(protocol="DirnH2SNB"),
                tiny_job(protocol="DirnHNBS-")]
        serial = JobRunner(jobs=1).run(plan)
        parallel = JobRunner(jobs=2).run(plan)
        assert serial.keys() == parallel.keys()
        for key in serial:
            assert serial[key].to_json_dict() == \
                parallel[key].to_json_dict()

    def test_cache_feeds_runner(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        plan = [tiny_job()]
        JobRunner(jobs=1, cache=cache).run(plan)
        warm = JobRunner(jobs=1, cache=cache)
        results = warm.run(plan)
        assert warm.jobs_executed == 0
        assert cache.hits == 1
        assert results[job_key(plan[0])].run_cycles > 0

    def test_memo_then_fresh_cache_replay_identical_results(self, tmp_path):
        plan = [tiny_job(),
                make_job(WorkerBenchmark, TINY, protocol="DirnH2SNB",
                         n_nodes=16, attribution=True)]
        first = JobRunner(jobs=1, cache=ResultCache(str(tmp_path)))
        fresh = first.run(plan)
        # the same runner serves a repeat from its memo, same objects
        again = first.run(plan)
        assert first.jobs_executed == 2
        assert first.memo_hits == 2
        for key in fresh:
            assert again[key] is fresh[key]
        # a new cache object: the runners share only the directory
        cache = ResultCache(str(tmp_path))
        warm = JobRunner(jobs=1, cache=cache)
        results = warm.run(plan)
        assert warm.jobs_executed == 0
        assert cache.hits == 2
        for key in fresh:
            assert results[key].to_json_dict() == fresh[key].to_json_dict()
        assert results[job_key(plan[1])].attribution is not None

    def test_failed_job_raises_and_is_not_memoized(self, tmp_path,
                                                   monkeypatch):
        import repro.exec.pool as pool_mod

        real_execute = pool_mod.execute_job
        blow_up = {"armed": True}

        def flaky_execute(job, *args, **kwargs):
            if blow_up["armed"]:
                blow_up["armed"] = False
                raise RuntimeError("transient failure")
            return real_execute(job, *args, **kwargs)

        monkeypatch.setattr(pool_mod, "execute_job", flaky_execute)
        cache = ResultCache(str(tmp_path))
        runner = JobRunner(jobs=1, cache=cache)
        with pytest.raises(RuntimeError, match="transient"):
            runner.run([tiny_job()])
        assert runner.jobs_executed == 0
        assert not os.path.exists(cache.path_for(tiny_job()))
        # the failure was neither memoized nor cached: a retry executes
        results = runner.run([tiny_job()])
        assert runner.jobs_executed == 1
        assert runner.memo_hits == 0
        assert results[job_key(tiny_job())].run_cycles > 0
        assert os.path.exists(cache.path_for(tiny_job()))

    @pytest.mark.parametrize("jobs,bogus_first", [(1, False), (2, True)])
    def test_finished_results_survive_a_failing_job(self, tmp_path, jobs,
                                                    bogus_first):
        good, bogus = tiny_job(n_nodes=4), tiny_job(n_nodes=4, bogus=1)
        plan = [bogus, good] if bogus_first else [good, bogus]
        runner = JobRunner(jobs=jobs, cache=ResultCache(str(tmp_path)))
        with pytest.raises(TypeError, match="bogus"):
            runner.run(plan)
        assert runner.jobs_executed == 1
        # memoised: the same runner replays the good job
        runner.run([good])
        assert runner.jobs_executed == 1
        assert runner.memo_hits == 1
        # cached: a fresh runner on the same directory executes nothing
        fresh = JobRunner(jobs=1, cache=ResultCache(str(tmp_path)))
        fresh.run([good])
        assert fresh.jobs_executed == 0


# ----------------------------------------------------------------------
# Attribution as a spec dimension
# ----------------------------------------------------------------------

class TestAttributionJobs:
    def test_flag_changes_the_key_only_when_enabled(self):
        plain = tiny_job()
        attributed = make_job(WorkerBenchmark, TINY,
                              protocol="DirnH5SNB", n_nodes=16,
                              attribution=True)
        assert job_key(plain) != job_key(attributed)
        # the canonical form of a plain job is untouched by the new
        # dimension — every historical cache key survives
        assert "attribution" not in canonical_json(plain)
        assert '"attribution":true' in canonical_json(attributed)

    def test_executed_job_carries_the_artifact(self):
        stats = execute_job(make_job(WorkerBenchmark, TINY,
                                     protocol="DirnH5SNB", n_nodes=16,
                                     attribution=True))
        doc = stats.attribution
        assert doc is not None
        assert doc["schema"] == "repro-attribution/1"
        assert doc["residual"] == 0
        assert sum(doc["buckets"].values()) == doc["stall_cycles"]

    def test_plain_job_has_no_artifact(self):
        stats = execute_job(tiny_job())
        assert stats.attribution is None
        assert "attribution" not in stats.to_json_dict()

    def test_attribution_does_not_change_the_numbers(self):
        plain = execute_job(tiny_job())
        attributed = execute_job(make_job(WorkerBenchmark, TINY,
                                          protocol="DirnH5SNB",
                                          n_nodes=16,
                                          attribution=True))
        assert plain.run_cycles == attributed.run_cycles
        assert plain.total("stall_cycles") == \
            attributed.total("stall_cycles")

    def test_runner_upgrade_keeps_submitted_keys(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        plan = [tiny_job(), tiny_job(protocol="DirnH2SNB")]
        runner = JobRunner(jobs=1, cache=cache, attribution=True)
        results = runner.run(plan)
        # callers look results up by the key they planned with ...
        assert set(results) == {job_key(job) for job in plan}
        for job in plan:
            assert results[job_key(job)].attribution is not None
        # ... while the cache holds the attributed spec, so a plain
        # runner does not see these entries
        plain_runner = JobRunner(jobs=1, cache=cache)
        plain_runner.run([tiny_job()])
        assert plain_runner.jobs_executed == 1

    def test_artifacts_identical_across_jobs_values(self):
        # txn ids are per-machine, so serial and fanned-out execution
        # produce byte-identical attribution artifacts
        plan = [make_job(WorkerBenchmark, TINY, protocol="DirnH5SNB",
                         n_nodes=16, attribution=True),
                make_job(WorkerBenchmark, TINY, protocol="DirnH2SNB",
                         n_nodes=16, attribution=True)]
        serial = JobRunner(jobs=1).run(plan)
        parallel = JobRunner(jobs="auto").run(plan)
        assert serial.keys() == parallel.keys()
        for key in serial:
            blob_serial = json.dumps(serial[key].attribution,
                                     sort_keys=True)
            blob_parallel = json.dumps(parallel[key].attribution,
                                       sort_keys=True)
            assert blob_serial == blob_parallel

    def test_artifact_round_trips_through_the_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        plan = [tiny_job()]
        runner = JobRunner(jobs=1, cache=cache, attribution=True)
        fresh = runner.run(plan)
        warm = JobRunner(jobs=1, cache=cache, attribution=True)
        replayed = warm.run(plan)
        assert warm.jobs_executed == 0
        key = job_key(plan[0])
        assert json.dumps(fresh[key].attribution, sort_keys=True) == \
            json.dumps(replayed[key].attribution, sort_keys=True)


# ----------------------------------------------------------------------
# Driver-level determinism: the headline property
# ----------------------------------------------------------------------

def test_fig2_identical_serial_parallel_and_cached(tmp_path):
    kwargs = dict(sizes=(1, 2), protocols=("DirnH5SNB",), n_nodes=16,
                  iterations=1)
    serial = fig2_worker_ratios(**kwargs, runner=JobRunner(jobs=1))
    parallel = fig2_worker_ratios(**kwargs, runner=JobRunner(jobs=2))
    cache = ResultCache(str(tmp_path))
    fig2_worker_ratios(**kwargs, runner=JobRunner(jobs=1, cache=cache))
    cached = fig2_worker_ratios(**kwargs,
                                runner=JobRunner(jobs=1, cache=cache))
    assert serial == parallel == cached
    assert cache.hits > 0


# ----------------------------------------------------------------------
# run_one params/shorthand conflict (bugfix)
# ----------------------------------------------------------------------

class TestRunOneConflict:
    def test_params_plus_shorthand_raises(self):
        workload = WorkerBenchmark(**TINY)
        params = MachineParams(n_nodes=16)
        with pytest.raises(ValueError, match="n_nodes"):
            run_one(workload, "DirnH5SNB", n_nodes=32, params=params)
        with pytest.raises(ValueError, match="victim_cache"):
            run_one(workload, "DirnH5SNB", victim_cache=False,
                    params=params)
        with pytest.raises(ValueError, match="perfect_ifetch"):
            run_one(workload, "DirnH5SNB", perfect_ifetch=True,
                    params=params)

    def test_params_alone_is_fine(self):
        stats = run_one(WorkerBenchmark(**TINY), "DirnH5SNB",
                        params=MachineParams(n_nodes=16))
        assert stats.n_nodes == 16


# ----------------------------------------------------------------------
# invalidation_mode as a spec dimension
# ----------------------------------------------------------------------

class TestInvalidationModeSpec:
    def test_default_mode_keeps_historical_canonical_form(self):
        job = tiny_job()
        assert "invalidation_mode" not in canonical_json(job)
        explicit = make_job(WorkerBenchmark, TINY, protocol="DirnH5SNB",
                            n_nodes=16, invalidation_mode="parallel")
        assert job_key(explicit) == job_key(job)

    def test_non_default_mode_changes_the_key(self):
        base = tiny_job()
        seq = make_job(WorkerBenchmark, TINY, protocol="DirnH5SNB",
                       n_nodes=16, invalidation_mode="sequential")
        assert job_key(seq) != job_key(base)
        assert '"invalidation_mode":"sequential"' in canonical_json(seq)

    def test_mode_reaches_the_machine(self):
        kwargs = dict(worker_set_size=4, iterations=1)
        par = make_job(WorkerBenchmark, kwargs, protocol="DirnH2SNB",
                       n_nodes=16)
        seq = make_job(WorkerBenchmark, kwargs, protocol="DirnH2SNB",
                       n_nodes=16, invalidation_mode="sequential")
        # Sequential invalidations serialize the fan-out, so the same
        # workload costs more cycles — proof the dimension is live.
        assert execute_job(seq).run_cycles > execute_job(par).run_cycles


# ----------------------------------------------------------------------
# plan_unique: JobRunner's dedup
# ----------------------------------------------------------------------

class TestPlanUnique:
    def test_coalesces_duplicates_in_first_appearance_order(self):
        from repro.exec.pool import plan_unique

        a, b = tiny_job(), tiny_job(protocol="full-map")
        aliases, unique, dups = plan_unique([a, b, a, a])
        assert dups == 2
        assert list(unique) == [job_key(a), job_key(b)]
        assert aliases == {job_key(a): job_key(a),
                           job_key(b): job_key(b)}

    def test_attribution_upgrade_aliases_plain_keys(self):
        import dataclasses

        from repro.exec.pool import plan_unique

        plain = tiny_job()
        attributed = dataclasses.replace(plain, attribution=True)
        aliases, unique, dups = plan_unique([plain], attribution=True)
        assert aliases == {job_key(plain): job_key(attributed)}
        assert list(unique) == [job_key(attributed)]
        assert unique[job_key(attributed)].attribution


# ----------------------------------------------------------------------
# Cache under racing writers
# ----------------------------------------------------------------------

class TestCacheRacingWriters:
    def test_many_writers_one_intact_entry(self, tmp_path):
        import threading

        cache = ResultCache(str(tmp_path / "cache"))
        job = tiny_job()
        stats = execute_job(job)
        barrier = threading.Barrier(8)

        def racer():
            barrier.wait(30)
            cache.put(job, stats)

        threads = [threading.Thread(target=racer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # whoever won, the entry is whole and round-trips
        path = cache.path_for(job)
        json.loads(open(path, encoding="utf-8").read())
        fresh = ResultCache(str(tmp_path / "cache"))
        assert fresh.get(job).to_json_dict() == stats.to_json_dict()

    def test_corrupt_existing_entry_is_replaced(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        job = tiny_job()
        stats = execute_job(job)
        cache.put(job, stats)
        path = cache.path_for(job)
        with open(path, "w") as fh:
            fh.write("{torn")
        cache.put(job, stats)  # CAS fallback: unreadable entry replaced
        assert ResultCache(str(tmp_path / "cache")).get(job) is not None

    def test_existing_good_entry_wins_the_race(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        job = tiny_job()
        stats = execute_job(job)
        cache.put(job, stats)
        before = open(cache.path_for(job), "rb").read()
        cache.put(job, stats)  # deterministic sim: same bytes either way
        assert open(cache.path_for(job), "rb").read() == before
