"""Tests for the command-line interface."""

import json
import shutil

import pytest

from repro.cli import DEFAULT_BASELINE, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestInfo:
    def test_lists_protocols_and_apps(self, capsys):
        code, out = run_cli(capsys, "info")
        assert code == 0
        assert "DirnH5SNB" in out
        assert "full map" in out
        assert "water" in out


class TestRun:
    def test_run_small_app(self, capsys):
        code, out = run_cli(capsys, "run", "--app", "aq",
                            "--protocol", "DirnH2SNB", "--nodes", "16")
        assert code == 0
        assert "AQ on 16 nodes" in out
        assert "speedup" in out

    def test_run_options(self, capsys):
        code, out = run_cli(capsys, "run", "--app", "aq", "--nodes", "16",
                            "--no-victim-cache", "--perfect-ifetch",
                            "--software", "optimized",
                            "--invalidation-mode", "dynamic")
        assert code == 0

    def test_bad_app_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--app", "doom"])

    def test_run_writes_trace_and_metrics(self, capsys, tmp_path):
        import json

        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        code, out = run_cli(capsys, "run", "--app", "aq",
                            "--nodes", "16",
                            "--trace-out", str(trace),
                            "--metrics-out", str(metrics))
        assert code == 0
        trace_doc = json.loads(trace.read_text())
        assert trace_doc["traceEvents"]
        metrics_doc = json.loads(metrics.read_text())
        assert metrics_doc["schema"] == "repro-metrics/1"
        assert metrics_doc["config"]["app"] == "aq"
        assert metrics_doc["run"]["n_nodes"] == 16
        assert metrics_doc["timeseries"]["rows"]

    def test_metrics_are_byte_identical_across_runs(self, capsys,
                                                    tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run_cli(capsys, "run", "--app", "aq", "--nodes", "16",
                    "--metrics-out", str(path))
        assert a.read_bytes() == b.read_bytes()


class TestProfile:
    def test_profile_prints_timeseries_and_percentiles(self, capsys):
        code, out = run_cli(capsys, "profile", "--app", "aq",
                            "--protocol", "DirnH2SNB", "--nodes", "16",
                            "--sample-every", "5000")
        assert code == 0
        assert "interval time-series" in out
        assert "p50" in out and "p90" in out and "p99" in out
        assert "stall latency" in out

    def test_profile_is_deterministic(self, capsys):
        args = ("profile", "--app", "aq", "--nodes", "16",
                "--sample-every", "5000")
        _code, first = run_cli(capsys, *args)
        _code, second = run_cli(capsys, *args)
        assert first == second


class TestWorker:
    def test_worker_table(self, capsys):
        code, out = run_cli(capsys, "worker", "--size", "4",
                            "--nodes", "16", "--iterations", "2",
                            "--protocols", "DirnH5SNB", "DirnHNBS-")
        assert code == 0
        assert "WORKER" in out
        assert "DirnH5SNB" in out
        assert "vs full map" in out

    def test_worker_is_deterministic(self, capsys):
        _code, first = run_cli(capsys, "worker", "--size", "4",
                               "--nodes", "16", "--iterations", "2",
                               "--protocols", "DirnH5SNB")
        _code, second = run_cli(capsys, "worker", "--size", "4",
                                "--nodes", "16", "--iterations", "2",
                                "--protocols", "DirnH5SNB")
        assert first == second


class TestCheckInvariants:
    def test_run_reports_zero_violations(self, capsys):
        code, out = run_cli(capsys, "run", "--app", "aq",
                            "--protocol", "DirnH2SNB", "--nodes", "16",
                            "--check-invariants")
        assert code == 0
        assert "invariants" in out
        assert "0 violations" in out

    def test_checking_does_not_change_the_numbers(self, capsys):
        args = ("run", "--app", "aq", "--nodes", "16")
        _code, plain = run_cli(capsys, *args)
        _code, checked = run_cli(capsys, *args, "--check-invariants")
        assert plain == checked[:len(plain)]

    def test_experiments_accepts_flag(self, capsys, tmp_path):
        out_md = tmp_path / "EXPERIMENTS.md"
        code, _out = run_cli(capsys, "experiments", "--quick",
                             "--check-invariants", "--no-cache",
                             "--out", str(out_md))
        assert code == 0
        assert out_md.exists()


class TestCachePrune:
    def _populate(self, cache_dir):
        from repro.exec import ResultCache
        from repro.exec.jobs import execute_job, make_job
        from repro.workloads.aq import AdaptiveQuadrature

        cache = ResultCache(str(cache_dir))
        job = make_job(AdaptiveQuadrature, protocol="DirnH2SNB",
                       n_nodes=16)
        return cache.put(job, execute_job(job))

    def test_prune_empty_cache(self, capsys, tmp_path):
        code, out = run_cli(capsys, "cache", "prune",
                            "--cache-dir", str(tmp_path / "none"))
        assert code == 0
        assert "deleted 0" in out

    def test_prune_keeps_current_entries(self, capsys, tmp_path):
        path = self._populate(tmp_path)
        code, out = run_cli(capsys, "cache", "prune",
                            "--cache-dir", str(tmp_path))
        assert code == 0
        assert "deleted 0" in out
        import os
        assert os.path.exists(path)

    def test_max_age_dry_run_counts_without_deleting(self, capsys,
                                                     tmp_path):
        import os

        path = self._populate(tmp_path)
        code, out = run_cli(capsys, "cache", "prune",
                            "--cache-dir", str(tmp_path),
                            "--max-age", "0s", "--dry-run")
        assert code == 0
        assert "would delete 1" in out
        assert os.path.exists(path)

    def test_max_age_deletes_old_entries(self, capsys, tmp_path):
        import os

        path = self._populate(tmp_path)
        code, out = run_cli(capsys, "cache", "prune",
                            "--cache-dir", str(tmp_path),
                            "--max-age", "0")
        assert code == 0
        assert "deleted 1" in out
        assert not os.path.exists(path)

    def test_max_age_units(self, capsys, tmp_path):
        self._populate(tmp_path)
        code, out = run_cli(capsys, "cache", "prune",
                            "--cache-dir", str(tmp_path),
                            "--max-age", "7d")
        assert code == 0
        assert "deleted 0" in out

    def test_bad_max_age_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "prune", "--max-age", "soon"])


class TestSweepAndCost:
    def test_sweep(self, capsys):
        code, out = run_cli(capsys, "sweep", "--app", "aq",
                            "--nodes", "16", "--protocols",
                            "DirnH2SNB", "DirnHNBS-")
        assert code == 0
        assert "AQ on 16 nodes" in out

    def test_cost_table(self, capsys):
        code, out = run_cli(capsys, "cost", "--nodes", "16")
        assert code == 0
        assert "Cost vs performance" in out
        assert "Directory cost scaling" in out


class TestAnalyze:
    ARGS = ("analyze", "--nodes", "16", "--size", "4",
            "--iterations", "1", "--protocol", "DirnH2SNB")

    def test_stdout_artifact(self, capsys):
        code, out = run_cli(capsys, *self.ARGS)
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "repro-attribution/1"
        assert doc["residual"] == 0
        assert sum(doc["buckets"].values()) == doc["stall_cycles"]
        assert doc["config"]["app"] == "worker"
        assert doc["config"]["nodes"] == 16

    def test_file_artifact_and_summary(self, capsys, tmp_path):
        path = tmp_path / "attr.json"
        code, out = run_cli(capsys, *self.ARGS, "--out", str(path))
        assert code == 0
        assert "stall cycles" in out
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro-attribution/1"

    def test_artifact_is_byte_identical_across_runs(self, capsys,
                                                    tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, *self.ARGS, "--out", str(a))
        run_cli(capsys, *self.ARGS, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_show_txn_prints_a_trace(self, capsys, tmp_path):
        shown, plain = tmp_path / "shown.json", tmp_path / "plain.json"
        code = main(list(self.ARGS) + ["--show-txn", "1",
                                       "--out", str(shown)])
        captured = capsys.readouterr()
        assert code == 0
        assert "txn 1:" in captured.err
        # the trace keeps its directory transitions
        assert "\n  dir  " in captured.err
        # and asking for it leaves the artifact as it is
        run_cli(capsys, *self.ARGS, "--out", str(plain))
        assert shown.read_bytes() == plain.read_bytes()

    def test_show_txn_keeps_transitions_after_the_stall(self, capsys,
                                                        tmp_path):
        # TSP's txn 578 (node 1's read miss, [39945..39985)) evicts a
        # dirty line homed at node 1 as it fills; the home applies the
        # write-back at cycle 39986, after the stall has ended.
        args = ["analyze", "--app", "tsp", "--no-victim-cache"]
        shown, plain = tmp_path / "shown.json", tmp_path / "plain.json"
        code = main(args + ["--show-txn", "578", "--out", str(shown)])
        captured = capsys.readouterr()
        assert code == 0
        assert "txn 578: node 1 read miss" in captured.err
        assert ("\n  dir  evict_wb   @home 1 read_write->absent "
                "(writeback_release) @39986" in captured.err)
        run_cli(capsys, *args, "--out", str(plain))
        assert shown.read_bytes() == plain.read_bytes()

    def test_show_txn_explains_a_missing_id(self, capsys):
        # ids are striped by node, so the count bounds none of them
        code = main(list(self.ARGS) + ["--show-txn", "1000000",
                                       "--out", "-"])
        captured = capsys.readouterr()
        assert code == 0
        assert "no transaction 1000000" in captured.err
        assert "i-th miss has id i*16+k+1" in captured.err

    def test_application_workloads_work_too(self, capsys):
        code, out = run_cli(capsys, "analyze", "--app", "aq",
                            "--nodes", "16", "--protocol", "DirnH2SNB")
        assert code == 0
        doc = json.loads(out)
        assert doc["residual"] == 0
        assert doc["config"]["app"] == "aq"


class TestDiff:
    def _artifact(self, capsys, tmp_path, name, protocol="DirnH2SNB"):
        path = tmp_path / name
        code, _out = run_cli(capsys, "analyze", "--nodes", "16",
                             "--size", "4", "--iterations", "1",
                             "--protocol", protocol,
                             "--out", str(path))
        assert code == 0
        return path

    def test_identical_artifacts_are_ok(self, capsys, tmp_path):
        a = self._artifact(capsys, tmp_path, "a.json")
        b = self._artifact(capsys, tmp_path, "b.json")
        code, out = run_cli(capsys, "diff", str(a), str(b))
        assert code == 0
        assert "OK" in out

    def test_regression_exits_nonzero(self, capsys, tmp_path):
        a = self._artifact(capsys, tmp_path, "a.json")
        worse_doc = json.loads(a.read_text())
        worse_doc["buckets"]["retry"] += 50_000
        worse_doc["stall_cycles"] += 50_000
        worse = tmp_path / "worse.json"
        worse.write_text(json.dumps(worse_doc))
        code, out = run_cli(capsys, "diff", str(a), str(worse))
        assert code == 1
        assert "REGRESSIONS: retry" in out

    def test_bucket_threshold_override(self, capsys, tmp_path):
        a = self._artifact(capsys, tmp_path, "a.json")
        worse_doc = json.loads(a.read_text())
        worse_doc["buckets"]["retry"] += 50_000
        worse = tmp_path / "worse.json"
        worse.write_text(json.dumps(worse_doc))
        code, _out = run_cli(capsys, "diff", str(a), str(worse),
                             "--bucket-threshold", "retry=1e9")
        assert code == 0

    def test_baseline_mode_needs_one_artifact(self, capsys, tmp_path):
        a = self._artifact(capsys, tmp_path, "a.json")
        b = self._artifact(capsys, tmp_path, "b.json")
        code = main(["diff", str(a), str(b),
                     "--baseline", str(a)])
        assert code == 2

    def test_baseline_mode(self, capsys, tmp_path):
        a = self._artifact(capsys, tmp_path, "a.json")
        b = self._artifact(capsys, tmp_path, "b.json")
        code, out = run_cli(capsys, "diff", str(b),
                            "--baseline", str(a))
        assert code == 0
        assert "OK" in out

    def test_default_baseline_from_any_directory(self, capsys, tmp_path,
                                                 monkeypatch):
        # The default baseline resolves against the checkout; the
        # artifact path, given relative, against the working directory.
        shutil.copy(DEFAULT_BASELINE, tmp_path / "x.json")
        monkeypatch.chdir(tmp_path)
        code, out = run_cli(capsys, "diff", "x.json", "--baseline")
        assert code == 0
        assert "OK" in out

    def test_missing_file_is_a_usage_error(self, capsys, tmp_path):
        a = self._artifact(capsys, tmp_path, "a.json")
        code = main(["diff", str(a), str(tmp_path / "nope.json")])
        assert code == 2

    def test_wrong_schema_is_a_usage_error(self, capsys, tmp_path):
        a = self._artifact(capsys, tmp_path, "a.json")
        junk = tmp_path / "junk.json"
        junk.write_text('{"schema": "repro-metrics/1"}')
        code = main(["diff", str(a), str(junk)])
        assert code == 2

    def test_json_output(self, capsys, tmp_path):
        a = self._artifact(capsys, tmp_path, "a.json")
        b = self._artifact(capsys, tmp_path, "b.json")
        out_doc = tmp_path / "diff.json"
        code, _out = run_cli(capsys, "diff", str(a), str(b),
                             "--json", str(out_doc))
        assert code == 0
        doc = json.loads(out_doc.read_text())
        assert doc["schema"] == "repro-attribution-diff/1"
        assert doc["ok"]


class TestRunProgressFlag:
    def test_progress_does_not_change_output(self, capsys):
        code_plain, out_plain = run_cli(capsys, "run", "--app", "aq",
                                        "--nodes", "16")
        code_live, out_live = run_cli(capsys, "run", "--app", "aq",
                                      "--nodes", "16", "--progress")
        assert code_plain == code_live == 0
        assert out_plain == out_live  # progress goes to stderr only


class TestStatus:
    def _write_log(self, tmp_path):
        from repro.obs.fleet import FLEETLOG_SCHEMA, FleetLogWriter, event

        path = tmp_path / "fleet.jsonl"
        writer = FleetLogWriter(str(path))
        writer.write(event("sweep_started", jobs=2, seq=0))
        writer.write(event("plan_enqueued", planned=2, unique=2,
                           pending=1, seq=1))
        writer.write(event("cache_hit", key="a", seq=2))
        writer.write(event("job_started", key="b", pid=7, seq=3))
        writer.write(event("job_finished", key="b", pid=7, wall_s=0.5,
                           run_cycles=1000, sim_cycles_per_sec=2000.0,
                           seq=4))
        writer.write(event("sweep_finished", wall_s=0.5,
                           jobs_executed=1, seq=5))
        writer.close()
        return path

    def test_summarizes_log(self, capsys, tmp_path):
        log = self._write_log(tmp_path)
        code, out = run_cli(capsys, "status", str(log))
        assert code == 0
        assert "jobs: 1 completed" in out
        assert "cache: 1 hits" in out
        assert "repro-fleetlog/1" in out

    def test_json_output(self, capsys, tmp_path):
        log = self._write_log(tmp_path)
        code, out = run_cli(capsys, "status", str(log), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["completed"] == 1
        assert doc["cache"]["hits"] == 1

    def test_bad_log_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        code, out = run_cli(capsys, "status", str(bad))
        assert code == 2

    def test_missing_log_exits_2(self, capsys, tmp_path):
        code, _out = run_cli(capsys, "status",
                             str(tmp_path / "missing.jsonl"))
        assert code == 2


class TestExperimentsFleetTelemetry:
    def test_fleet_log(self, capsys, tmp_path):
        from repro.obs.fleet import read_fleet_log

        out_md = tmp_path / "EXPERIMENTS.md"
        log = tmp_path / "sweep.jsonl"
        code, out = run_cli(capsys, "experiments", "--quick",
                            "--no-cache",
                            "--fleet-log", str(log),
                            "--out", str(out_md))
        assert code == 0
        events = read_fleet_log(str(log))  # validates every event
        kinds = [e["event"] for e in events]
        assert kinds[-1] == "sweep_finished"
        assert "section_started" in kinds
        assert kinds.count("job_started") == kinds.count("job_finished")
        assert "job_progress" not in kinds
        for doc in events:
            if doc["event"] == "job_finished":
                assert "wall_s" in doc and "peak_rss_kb" in doc
        # end-of-run summary reports cache counters (satellite: cache
        # stats surface in the summary line)
        assert "cache off" in out


class TestExperimentsAttribution:
    def test_flag_persists_artifacts_through_the_cache(self, capsys,
                                                       tmp_path):
        out_md = tmp_path / "EXPERIMENTS.md"
        cache_dir = tmp_path / "cache"
        code, _out = run_cli(capsys, "experiments", "--quick",
                             "--attribution",
                             "--cache-dir", str(cache_dir),
                             "--out", str(out_md))
        assert code == 0
        entries = list(cache_dir.rglob("*.json"))
        assert entries
        for entry in entries:
            doc = json.loads(entry.read_text())
            stats = doc.get("stats", doc)
            assert "attribution" in stats


class TestStatusFollow:
    def _finished_log(self, tmp_path):
        from repro.obs.fleet import FleetLogWriter, event

        path = tmp_path / "sweep.jsonl"
        writer = FleetLogWriter(str(path))
        writer.write(event("sweep_started", jobs=1, seq=1))
        writer.write(event("job_queued", key="k", seq=2))
        writer.write(event("job_started", key="k", pid=1, seq=3))
        writer.write(event("job_finished", key="k", pid=1, wall_s=0.5,
                           run_cycles=1000, sim_cycles_per_sec=2000.0,
                           seq=4))
        writer.write(event("sweep_finished", wall_s=0.5,
                           jobs_executed=1, seq=5))
        writer.close()
        return path

    def test_follow_exits_when_sweep_finishes(self, capsys, tmp_path):
        log = self._finished_log(tmp_path)
        code, out = run_cli(capsys, "status", str(log), "--follow",
                            "--interval", "0.01")
        assert code == 0
        assert "jobs: 1 completed" in out

    def test_follow_tolerates_a_torn_tail(self, tmp_path):
        from repro.cli import _follow_fleet_log
        from repro.obs.fleet import FleetLogWriter, event

        path = tmp_path / "sweep.jsonl"
        writer = FleetLogWriter(str(path))
        writer.write(event("sweep_started", jobs=1, seq=1))
        writer.close()
        with open(path, "a") as fh:
            fh.write('{"event":"job_st')  # writer mid-append
        out = (tmp_path / "lines.txt").open("w")
        code = _follow_fleet_log(str(path), interval=0.01,
                                 stream=out, max_polls=2)
        out.close()
        assert code == 0
        assert "0/0 jobs" in (tmp_path / "lines.txt").read_text()

    def test_follow_missing_file_exits_2(self, capsys, tmp_path):
        code, _out = run_cli(capsys, "status",
                             str(tmp_path / "nope.jsonl"), "--follow")
        assert code == 2
