"""Tests for fleet telemetry (repro.obs.fleet).

The contract under test is two-sided:

- the telemetry *works*: the parent emits the events of serial and
  pooled jobs (the latter with the worker's pid), the JSONL log
  round-trips through the schema validator, and the monitor's
  aggregates and the ``repro status`` summary are right;
- the telemetry *changes nothing*: result maps and cache keys are
  byte-identical with telemetry on or off, at any worker count — the
  side-channel invariant the CI gate enforces on the full report — and
  a telemetry sweep neither observes the machine nor starts a
  ``multiprocessing`` manager.
"""

import json
import multiprocessing
import os

import pytest

from repro.exec import JobRunner, ResultCache, make_job
from repro.machine.machine import Machine
from repro.machine.params import MachineParams
from repro.obs.fleet import (
    DEFAULT_ETA_HINTS,
    FLEETLOG_SCHEMA,
    FleetLogWriter,
    FleetMonitor,
    ProgressPrinter,
    RunProgress,
    event,
    format_fleet_summary,
    load_eta_hints,
    read_fleet_log,
    replay_fleet_log,
    summarize_fleet_log,
    validate_event,
)
from repro.workloads.worker import WorkerBenchmark

TINY = dict(worker_set_size=2, iterations=1)


def tiny_job(protocol="DirnH5SNB", n_nodes=4, **kwargs):
    merged = dict(TINY, **kwargs)
    return make_job(WorkerBenchmark, merged, protocol=protocol,
                    n_nodes=n_nodes)


def tiny_plan():
    return [tiny_job(),
            tiny_job(protocol="full-map"),
            tiny_job(protocol="Dir5H5SB")]


def bad_job():
    """Bogus workload kwargs: the job builds, the run raises."""
    return make_job(WorkerBenchmark, {"worker_set_size": 2, "bogus": 1},
                    protocol="DirnH5SNB", n_nodes=4)


def results_doc(results):
    return json.dumps({k: v.to_json_dict() for k, v in results.items()},
                      sort_keys=True)


# ----------------------------------------------------------------------
# Event schema
# ----------------------------------------------------------------------

class TestValidateEvent:
    def test_accepts_every_emitted_shape(self):
        validate_event(event("sweep_started", jobs=2))
        validate_event(event("job_started", key="k", pid=1))
        validate_event(event("job_progress", key="k", pid=1, cycles=100))
        validate_event(event("job_finished", key="k", pid=1, wall_s=0.1,
                             run_cycles=100, sim_cycles_per_sec=1000.0))
        validate_event(event("fleet_log", schema=FLEETLOG_SCHEMA))

    def test_extra_fields_allowed(self):
        validate_event(event("job_started", key="k", pid=1,
                             workload="Worker", protocol="full-map"))

    def test_rejects_unknown_type(self):
        with pytest.raises(ValueError, match="unknown event type"):
            validate_event(event("job_telemetry", key="k"))

    def test_rejects_missing_required_field(self):
        with pytest.raises(ValueError, match="missing required field"):
            validate_event(event("job_progress", key="k", pid=1))

    def test_rejects_missing_timestamp(self):
        with pytest.raises(ValueError, match="timestamp"):
            validate_event({"event": "sweep_started", "jobs": 1})

    def test_rejects_bad_seq(self):
        doc = event("sweep_started", jobs=1)
        doc["seq"] = -1
        with pytest.raises(ValueError, match="seq"):
            validate_event(doc)

    def test_rejects_wrong_schema_tag(self):
        with pytest.raises(ValueError, match="schema"):
            validate_event(event("fleet_log", schema="repro-fleetlog/999"))

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="object"):
            validate_event(["sweep_started"])


# ----------------------------------------------------------------------
# The JSONL log
# ----------------------------------------------------------------------

class TestFleetLog:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "fleet.jsonl")
        writer = FleetLogWriter(path)
        writer.write(event("sweep_started", jobs=2, seq=1))
        writer.write(event("job_queued", key="k", seq=2))
        writer.close()
        events = read_fleet_log(path)
        assert [e["event"] for e in events] == [
            "fleet_log", "sweep_started", "job_queued"]
        assert events[0]["schema"] == FLEETLOG_SCHEMA

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "fleet.jsonl"
        doc = event("sweep_started", jobs=1)
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(ValueError, match="header"):
            read_fleet_log(str(path))

    def test_malformed_line_pinpointed(self, tmp_path):
        path = tmp_path / "fleet.jsonl"
        header = json.dumps(event("fleet_log", schema=FLEETLOG_SCHEMA))
        path.write_text(header + "\n{not json\n")
        with pytest.raises(ValueError, match="fleet.jsonl:2"):
            read_fleet_log(str(path))

    def test_invalid_event_pinpointed(self, tmp_path):
        path = tmp_path / "fleet.jsonl"
        header = json.dumps(event("fleet_log", schema=FLEETLOG_SCHEMA))
        bad = json.dumps(event("job_queued"))  # missing key
        path.write_text(header + "\n" + bad + "\n")
        with pytest.raises(ValueError, match="fleet.jsonl:2"):
            read_fleet_log(str(path))


# ----------------------------------------------------------------------
# Serial runner telemetry
# ----------------------------------------------------------------------

class TestSerialTelemetry:
    def test_lifecycle_events_logged(self, tmp_path):
        log = str(tmp_path / "fleet.jsonl")
        cache = ResultCache(str(tmp_path / "cache"))
        monitor = FleetMonitor(log_path=log)
        runner = JobRunner(jobs=1, cache=cache, telemetry=monitor)
        monitor.start(jobs=runner.n_workers)
        runner.run(tiny_plan())
        monitor.finish(jobs_executed=runner.jobs_executed)

        events = read_fleet_log(log)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "fleet_log"
        assert kinds[1] == "sweep_started"
        assert kinds[-1] == "sweep_finished"
        assert kinds.count("job_started") == 3
        assert kinds.count("job_finished") == 3
        assert kinds.count("cache_miss") == 3
        assert kinds.count("cache_put") == 3
        assert "job_progress" not in kinds  # sweeps send no heartbeats
        # serial jobs run in this process, one at a time, each announced
        # before it runs
        jobs = [(e["event"], e["key"], e["pid"]) for e in events
                if e["event"] in ("job_started", "job_finished")]
        keys = [key for _, key, _ in jobs[::2]]
        assert jobs == [(kind, key, os.getpid()) for key in keys
                        for kind in ("job_started", "job_finished")]
        for doc in events:
            if doc["event"] == "job_finished":
                assert doc["wall_s"] > 0
                assert doc["peak_rss_kb"] > 0
        # every monitor-sequenced event is monotone (the header line
        # is written by the log writer itself and carries no seq)
        seqs = [e["seq"] for e in events[1:]]
        assert seqs == list(range(len(events) - 1))

    def test_cache_hits_and_memo_hits_stream(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        JobRunner(jobs=1, cache=cache).run(tiny_plan())  # populate

        monitor = FleetMonitor()
        runner = JobRunner(jobs=1, cache=cache, telemetry=monitor)
        runner.run(tiny_plan())  # disk hits
        runner.run(tiny_plan())  # memo hits
        assert monitor.cache_hits == 3
        assert monitor.memo_hits == 3
        assert monitor.cache_hit_rate() == 1.0

    def test_job_failed_event(self):
        monitor = FleetMonitor()
        with pytest.raises(TypeError):
            JobRunner(jobs=1, telemetry=monitor).run([bad_job()])
        assert monitor.failed == 1
        assert not monitor.running

    def test_monitor_aggregates(self):
        monitor = FleetMonitor()
        runner = JobRunner(jobs=1, telemetry=monitor)
        monitor.start(jobs=1)
        results = runner.run(tiny_plan())
        monitor.finish()
        total = sum(stats.run_cycles for stats in results.values())
        assert monitor.completed == 3
        assert monitor.sim_cycles_done == total
        assert monitor.planned == 3
        assert monitor.unique == 3
        assert monitor.queued == 0
        assert not monitor.running
        assert monitor.finished is not None
        assert monitor.finished["jobs_executed"] == 3


# ----------------------------------------------------------------------
# Pool runner telemetry
# ----------------------------------------------------------------------

class TestPoolTelemetry:
    def test_events_relay_from_worker_processes(self, tmp_path):
        log = str(tmp_path / "fleet.jsonl")
        monitor = FleetMonitor(log_path=log)
        runner = JobRunner(jobs=2, telemetry=monitor)
        monitor.start(jobs=runner.n_workers)
        runner.run(tiny_plan())
        monitor.finish(jobs_executed=runner.jobs_executed)

        events = read_fleet_log(log)
        kinds = [e["event"] for e in events]
        assert kinds.count("job_started") == 3
        assert kinds.count("job_finished") == 3
        assert "job_progress" not in kinds
        pids = {e["pid"] for e in events if "pid" in e}
        assert pids and os.getpid() not in pids  # the workers' pids
        for doc in events:
            if doc["event"] == "job_finished":
                assert doc["wall_s"] > 0
                assert doc["peak_rss_kb"] > 0

    def test_failed_pool_job_reported_and_raised(self):
        monitor = FleetMonitor()
        runner = JobRunner(jobs=2, telemetry=monitor)
        with pytest.raises(TypeError):
            runner.run([tiny_job(), bad_job()])
        assert monitor.completed == 1
        assert monitor.failed == 1
        assert not monitor.running
        assert runner.jobs_executed == 1

    def test_pool_results_identical_with_and_without_telemetry(self):
        silent = JobRunner(jobs=2).run(tiny_plan())
        observed = JobRunner(jobs=2, telemetry=FleetMonitor()).run(
            tiny_plan())
        serial = JobRunner(jobs=1).run(tiny_plan())
        assert results_doc(silent) == results_doc(observed) \
            == results_doc(serial)

    def test_telemetry_sweep_starts_no_manager(self, monkeypatch):
        def no_manager(*args, **kwargs):
            raise AssertionError("telemetry started a multiprocessing "
                                 "manager")

        monkeypatch.setattr(multiprocessing, "Manager", no_manager)
        silent = JobRunner(jobs=2).run(tiny_plan())
        observed = JobRunner(jobs=2, telemetry=FleetMonitor()).run(
            tiny_plan())
        assert results_doc(observed) == results_doc(silent)

    def test_telemetry_never_observes_the_machine(self, monkeypatch):
        calls = []

        def observe(machine):
            calls.append(machine)
            raise AssertionError("telemetry attached to the machine")

        monkeypatch.setattr(Machine, "observe", observe)
        monitor = FleetMonitor()
        JobRunner(jobs=1, telemetry=monitor).run([tiny_job()])
        assert calls == []
        assert monitor.completed == 1

    def test_cache_dirs_identical_with_and_without_telemetry(self, tmp_path):
        def listing(root):
            paths = []
            for dirpath, dirnames, filenames in os.walk(root):
                dirnames.sort()
                paths.extend(sorted(
                    os.path.relpath(os.path.join(dirpath, name), root)
                    for name in filenames))
            return paths

        silent_dir = str(tmp_path / "silent")
        observed_dir = str(tmp_path / "observed")
        JobRunner(jobs=1, cache=ResultCache(silent_dir)).run(tiny_plan())
        JobRunner(jobs=1, cache=ResultCache(observed_dir),
                  telemetry=FleetMonitor()).run(tiny_plan())
        assert listing(silent_dir) == listing(observed_dir)


# ----------------------------------------------------------------------
# Replay and summary
# ----------------------------------------------------------------------

def sample_log(tmp_path):
    log = str(tmp_path / "fleet.jsonl")
    monitor = FleetMonitor(log_path=log)
    runner = JobRunner(jobs=1, telemetry=monitor)
    monitor.start(jobs=runner.n_workers)
    monitor.section("fig2")
    runner.run(tiny_plan())
    monitor.finish(jobs_executed=runner.jobs_executed)
    return log


class TestSummarize:
    def test_replay_matches_live_monitor(self, tmp_path):
        log = sample_log(tmp_path)
        summary = summarize_fleet_log(read_fleet_log(log))
        assert summary["schema"] == FLEETLOG_SCHEMA
        assert summary["completed"] == 3
        assert summary["failed"] == 0
        assert summary["sections"] == ["fig2"]
        assert summary["cache"]["hits"] == 0
        assert len(summary["jobs"]) == 3
        # slowest-first ordering
        walls = [row["wall_s"] for row in summary["jobs"]]
        assert walls == sorted(walls, reverse=True)

    def test_replay_is_deterministic(self, tmp_path):
        log = sample_log(tmp_path)
        events = read_fleet_log(log)
        assert summarize_fleet_log(events) == summarize_fleet_log(events)

    def test_format_summary(self, tmp_path):
        log = sample_log(tmp_path)
        text = format_fleet_summary(summarize_fleet_log(read_fleet_log(log)))
        assert "jobs: 3 completed" in text
        assert "slowest jobs:" in text
        assert "sections: fig2" in text


# ----------------------------------------------------------------------
# ETA hints
# ----------------------------------------------------------------------

class TestEtaHints:
    def test_load_from_committed_bench_record(self):
        hints = load_eta_hints(
            os.path.join(os.path.dirname(__file__), os.pardir,
                         DEFAULT_ETA_HINTS))
        assert hints is not None
        assert "fig5" in hints
        assert all(v >= 0 for v in hints.values())

    def test_default_record_from_any_directory(self, tmp_path,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        hints = load_eta_hints()
        assert hints is not None
        assert "fig5" in hints

    def test_missing_record_is_none(self, tmp_path):
        assert load_eta_hints(str(tmp_path / "nope.json")) is None

    def test_eta_counts_down_pending_sections(self):
        monitor = FleetMonitor(sections=["a", "b"],
                               eta_hints={"a": 10.0, "b": 5.0})
        assert monitor.eta_seconds() == 15.0
        monitor.section("a")
        # section a just started: its full hint remains, plus b's
        assert monitor.eta_seconds() == pytest.approx(15.0, abs=1.0)
        monitor.section("b")
        assert monitor.eta_seconds() == pytest.approx(5.0, abs=1.0)

    def test_no_hints_no_eta(self):
        assert FleetMonitor().eta_seconds() is None


# ----------------------------------------------------------------------
# Progress rendering
# ----------------------------------------------------------------------

class _Sink:
    def __init__(self):
        self.lines = []

    def __call__(self, line):
        self.lines.append(line)


class TestProgressLine:
    def test_lifecycle_renders(self):
        sink = _Sink()
        monitor = FleetMonitor(on_line=sink)
        runner = JobRunner(jobs=1, telemetry=monitor)
        monitor.start(jobs=1)
        runner.run([tiny_job()])
        monitor.finish()
        assert sink.lines
        assert any("1/1 jobs" in line for line in sink.lines)

    def test_render_shows_failures_and_section(self):
        monitor = FleetMonitor()
        monitor.section("fig5")
        monitor.handle(event("plan_enqueued", planned=2, unique=2,
                             pending=2))
        monitor.handle(event("job_started", key="k1", pid=1))
        monitor.handle(event("job_failed", key="k1", pid=1, error="boom"))
        line = monitor.render_progress()
        assert "[fig5]" in line
        assert "1 FAILED" in line

    def test_printer_non_tty_appends_lines(self, tmp_path):
        out = (tmp_path / "progress.txt").open("w")
        printer = ProgressPrinter(stream=out)
        printer("one")
        printer("two")
        printer.done()
        out.close()
        assert (tmp_path / "progress.txt").read_text() == "one\ntwo\n"


# ----------------------------------------------------------------------
# RunProgress (repro run --progress) never perturbs the run
# ----------------------------------------------------------------------

class TestRunProgress:
    def test_observed_run_cycles_unchanged(self, tmp_path):
        def run(progress):
            machine = Machine(MachineParams(n_nodes=4),
                              protocol="DirnH5SNB")
            rp = None
            if progress:
                rp = RunProgress.attach(
                    machine, "test", every=200,
                    stream=(tmp_path / "p.txt").open("w"))
            stats = machine.run(WorkerBenchmark(**TINY))
            if rp is not None:
                rp.finish(stats)
            return stats.run_cycles

        assert run(progress=False) == run(progress=True)


# ----------------------------------------------------------------------
# Live tail: torn-record tolerance and atomic appends
# ----------------------------------------------------------------------

class TestLiveTail:
    def _started_log(self, tmp_path):
        path = str(tmp_path / "fleet.jsonl")
        writer = FleetLogWriter(path)
        writer.write(event("sweep_started", jobs=1, seq=1))
        writer.close()
        return path

    def test_truncated_final_line_dropped_when_tolerant(self, tmp_path):
        path = self._started_log(tmp_path)
        with open(path, "a") as fh:
            fh.write('{"event":"job_queu')  # append torn mid-record
        events = read_fleet_log(path, tolerate_partial=True)
        assert [e["event"] for e in events] == ["fleet_log",
                                                "sweep_started"]

    def test_truncated_final_line_raises_by_default(self, tmp_path):
        path = self._started_log(tmp_path)
        with open(path, "a") as fh:
            fh.write('{"event":"job_queu')
        with pytest.raises(ValueError, match="not valid JSON"):
            read_fleet_log(path)

    def test_invalid_final_line_dropped_when_tolerant(self, tmp_path):
        path = self._started_log(tmp_path)
        with open(path, "a") as fh:
            fh.write(json.dumps(event("job_queued")) + "\n")  # no key
        events = read_fleet_log(path, tolerate_partial=True)
        assert [e["event"] for e in events] == ["fleet_log",
                                                "sweep_started"]

    def test_mid_file_corruption_still_raises_when_tolerant(self,
                                                            tmp_path):
        path = tmp_path / "fleet.jsonl"
        header = json.dumps(event("fleet_log", schema=FLEETLOG_SCHEMA))
        good = json.dumps(event("sweep_started", jobs=1))
        path.write_text(header + "\n{not json\n" + good + "\n")
        with pytest.raises(ValueError, match="fleet.jsonl:2"):
            read_fleet_log(str(path), tolerate_partial=True)

    def test_every_event_is_one_atomic_append(self, tmp_path,
                                              monkeypatch):
        writes = []
        real_write = os.write

        def spying_write(fd, data):
            writes.append(bytes(data))
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", spying_write)
        writer = FleetLogWriter(str(tmp_path / "fleet.jsonl"))
        writer.write(event("job_progress", key="k" * 4000, pid=1,
                           cycles=5, seq=1))
        writer.close()
        # header + one event: each record (payload and its newline)
        # left in exactly one os.write call — the atomicity unit.
        assert len(writes) == 2
        for data in writes:
            assert data.endswith(b"\n")
            assert data.count(b"\n") == 1
            json.loads(data.decode("utf-8"))

    def test_concurrent_writers_interleave_whole_lines(self, tmp_path):
        import threading

        path = str(tmp_path / "fleet.jsonl")
        first = FleetLogWriter(path)  # owns the header line
        n_each = 200

        def pound(writer, tag):
            for i in range(n_each):
                writer.write(event("job_progress", key=tag, pid=i,
                                   cycles=i, seq=i))

        second = FleetLogWriter(path)
        threads = [threading.Thread(target=pound, args=(first, "a")),
                   threading.Thread(target=pound, args=(second, "b"))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        first.close()
        second.close()
        events = read_fleet_log(path)  # every line parses + validates
        progress = [e for e in events if e["event"] == "job_progress"]
        assert len(progress) == 2 * n_each
        assert sorted(e["key"] for e in progress) == \
            ["a"] * n_each + ["b"] * n_each


# ----------------------------------------------------------------------
# Logs written by older releases (the schema is append-only)
# ----------------------------------------------------------------------

def sharded_run_events():
    """One job's lifecycle as the removed parallel-in-time engine
    logged it: every ``job_progress`` heartbeat carries a ``shard``."""
    return [
        event("sweep_started", jobs=1, seq=1),
        event("job_started", key="k", pid=7, seq=2),
        event("job_progress", key="k", pid=7, cycles=50_000, shard=0,
              seq=3),
        event("job_progress", key="k", pid=7, cycles=50_000, shard=1,
              seq=4),
        event("job_progress", key="k", pid=7, cycles=100_000, shard=0,
              seq=5),
        event("job_finished", key="k", pid=7, wall_s=0.5,
              run_cycles=120_000, sim_cycles_per_sec=240_000.0, seq=6),
        event("sweep_finished", wall_s=0.6, jobs_executed=1, seq=7),
    ]


def write_log(path, events):
    writer = FleetLogWriter(str(path))
    for doc in events:
        writer.write(doc)
    writer.close()
    return str(path)


class TestShardTaggedLogs:
    def test_validates_and_summarizes_like_an_untagged_log(self,
                                                             tmp_path):
        tagged = sharded_run_events()
        plain = [{k: v for k, v in doc.items() if k != "shard"}
                 for doc in tagged]
        tagged_log = write_log(tmp_path / "tagged.jsonl", tagged)
        plain_log = write_log(tmp_path / "plain.jsonl", plain)
        summary = summarize_fleet_log(read_fleet_log(tagged_log))
        assert summary["completed"] == 1
        assert summary["sim_cycles"] == 120_000
        assert summary == summarize_fleet_log(read_fleet_log(plain_log))
        assert "jobs: 1 completed" in format_fleet_summary(summary)

    def test_tails_mid_run_and_after_finish(self, tmp_path):
        events = sharded_run_events()
        path = write_log(tmp_path / "fleet.jsonl", events[:5])
        with open(path, "a") as fh:
            fh.write('{"event":"job_fini')  # a record still in flight
        monitor = replay_fleet_log(read_fleet_log(path,
                                                  tolerate_partial=True))
        assert monitor.running == {"k": 100_000}
        assert monitor.completed == 0
        line = monitor.render_progress()
        assert "1 running" in line and "shard" not in line

        path = write_log(tmp_path / "done.jsonl", events)
        monitor = replay_fleet_log(read_fleet_log(path,
                                                  tolerate_partial=True))
        assert monitor.running == {}
        assert monitor.completed == 1
        assert monitor.summary()["sim_cycles"] == 120_000


# ----------------------------------------------------------------------
# ETA surfaces in the summary document
# ----------------------------------------------------------------------

class TestSummaryEta:
    def test_eta_none_without_hints(self):
        assert FleetMonitor().summary()["eta_s"] is None

    def test_eta_present_mid_sweep_and_cleared_when_finished(self):
        monitor = FleetMonitor(sections=["a", "b"],
                               eta_hints={"a": 10.0, "b": 5.0})
        assert monitor.summary()["eta_s"] == pytest.approx(15.0, abs=1.0)
        monitor.handle(event("sweep_finished", wall_s=1.0,
                             jobs_executed=0))
        assert monitor.summary()["eta_s"] is None
