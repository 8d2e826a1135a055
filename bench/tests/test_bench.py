"""Tests of the benchmark harness: python -m pytest bench/tests -q"""

import json
import os
import re

import pytest

import compare
import layers
import run
import workloads
from repro.exec.jobs import make_job
from repro.machine.machine import Machine
from repro.machine.params import MachineParams
from repro.workloads.tsp import TSP
from repro.workloads.worker import WorkerBenchmark

REPRO_DIR = os.path.join(run.SRC, "repro")


def load_spec():
    with open(run.SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def small_workload():
    workload = workloads.SimWorkload([(0, make_job(
        WorkerBenchmark, {"worker_set_size": 2, "iterations": 1},
        protocol="DirnH5SNB", n_nodes=4))])
    workload.setup()
    return workload


def first_outputs(workload):
    index, result = workload.rep(0)
    return {index: workload.outputs(result)}


def repro_modules():
    for dirpath, dirnames, filenames in os.walk(REPRO_DIR):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.relpath(os.path.join(dirpath, name), REPRO_DIR)
                yield path[:-3].replace(os.sep, "/")


def test_every_module_maps_to_exactly_one_layer():
    modules = list(repro_modules())
    assert "sim/engine" in modules
    for module in modules:
        assert len(layers.matching_rules(module)) <= 1, module
        assert layers.module_layer(module) in layers.LAYERS
    for layer, prefixes in layers.RULES:
        for prefix in prefixes:
            assert any(layer in layers.matching_rules(m) and
                       (m == prefix or m.startswith(prefix))
                       for m in modules), f"{layer}: {prefix} names nothing"


def test_metric_names_and_caps():
    spec = load_spec()
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_traced_counts_repeat_exactly():
    workload = small_workload()
    check = workloads.Checker(workload, first_outputs(workload))
    first = workloads.traced_rep(workload, check)
    second = workloads.traced_rep(workload, check)
    assert first["failed"] == second["failed"] == 0
    assert ({layer: entry["calls_in"] for layer, entry in first["layers"].items()}
            == {layer: entry["calls_in"]
                for layer, entry in second["layers"].items()})
    assert first["counts"] == second["counts"]
    assert first["counts"]["sim.events"] > 0
    assert run.trace_problems(first) == []
    names = set(run.per_layer_values(first, 1.0))
    assert names == {m["name"] for m in load_spec()["per_layer"]}


def test_tampered_digest_counts_as_failed_rep():
    workload = small_workload()
    good = first_outputs(workload)
    result = workloads.run_reps(workload, workloads.Checker(workload, good), 0)
    assert result["failed"] == 0 and len(result["rates"]) == 1
    tampered = {0: dict(good[0], stats="0" * 64)}
    result = workloads.run_reps(workload,
                                workloads.Checker(workload, tampered), 0)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["rates"] == []


def test_raising_rep_counts_as_failed():
    class Broken:
        def rep(self, i):
            raise RuntimeError("boom")

        def cleanup(self):
            pass

    result = workloads.run_reps(Broken(), workloads.Checker(Broken(), {}), 0)
    assert result["attempted"] == result["failed"] == 1


def test_tsp_labellings_search_the_same_tree():
    params = MachineParams(n_nodes=4, victim_cache_enabled=True)
    expansions, digests = set(), set()
    for tsp in (TSP(n_cities=8, seed=7),
                workloads.RelabelledTSP(1, n_cities=8),
                workloads.RelabelledTSP(2, n_cities=8)):
        stats = Machine(params, protocol="DirnH5SNB").run(tsp)
        expansions.add(tsp.expansions)
        digests.add(workloads.digest(stats.to_json_dict()))
    assert len(expansions) == 1
    assert len(digests) == 3


def test_tsp64_inputs_follow_the_seed():
    pins = workloads.load_pins()

    def inputs(seed):
        workload = workloads.build("tsp64", seed, "", pins)
        return [(index, dict(job.workload_kwargs)["labelling"])
                for index, job in workload.inputs]

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)
    assert sorted(inputs(7)) == [(index, entry["labelling"])
                                 for index, entry in enumerate(pins["tsp64"])]
    assert set(workloads.expected_outputs("tsp64", pins)[0]) == {"stats"}


def test_recursive_stdlib_frames_charge_their_repro_caller():
    root = os.path.join(os.sep, "src", "repro")
    put = (os.path.join(root, "exec", "cache.py"), 1, "put")
    dump = ("/lib/json/__init__.py", 1, "dump")
    encode = ("/lib/json/encoder.py", 1, "_iterencode")
    encode_dict = ("/lib/json/encoder.py", 2, "_iterencode_dict")
    stats = {
        put: (1, 1, 0.1, 1.0, {}),
        dump: (1, 1, 0.1, 0.9, {put: (1, 1, 0.1, 0.9)}),
        encode: (10, 10, 0.3, 0.8, {dump: (5, 5, 0.2, 0.8),
                                    encode_dict: (5, 5, 0.1, 0.3)}),
        encode_dict: (10, 20, 0.4, 0.5, {encode: (10, 10, 0.3, 0.4),
                                         encode_dict: (10, 10, 0.1, 0.2)}),
    }
    reduction = layers.Reduction(stats, root)
    assert reduction.self_s["exec"] == pytest.approx(0.9)
    assert reduction.self_s["runtime"] == 0
    assert reduction.calls_in["exec"] == 1


def test_compare_verdicts(tmp_path):
    assert compare.verdict([100] * 4, [104] * 4, "higher", 0.1)[0] \
        == "within bound"
    assert compare.verdict([100] * 4, [80] * 4, "higher", 0.1)[0] == "worse"
    assert compare.verdict([100] * 4, [120] * 4, "higher", 0.1)[0] == "better"
    assert compare.verdict([1.0] * 4, [1.2] * 4, "lower", 0.1)[0] == "worse"
    # Noise wider than the bound reads unresolved, not worse, unless the
    # two sides separate completely.
    assert compare.verdict([60, 100, 100, 140], [98, 100, 102, 104],
                           "higher", 0.1)[0] == "unresolved"
    assert compare.verdict([60, 100, 100, 140], [40, 70, 90, 130],
                           "higher", 0.1)[0] == "unresolved"
    assert compare.verdict([60, 100, 100, 140], [150, 160, 170, 180],
                           "higher", 0.1)[0] == "better"
    assert compare.verdict([150, 160, 170, 180], [60, 100, 100, 140],
                           "higher", 0.1)[0] == "worse"
    # Every rep failed on one side: nothing to compare, and no crash.
    assert compare.verdict([], [100] * 4, "higher", 0.1)[0] == "unresolved"
    assert compare.verdict([0.0] * 4, [1.0] * 4, "lower", 0.1)[0] \
        == "unresolved"

    def record(rate, seed=7, failed=0):
        return {"host": {"seed": seed, "seconds": 15},
                "workloads": {"worker16": {"failed": failed, "metrics": {
                    "sim_cycles_per_s": {"value": rate}}}}}

    paths = {}
    for name, doc in (("a", record(100.0)), ("a2", record(101.0)),
                      ("b", record(100.0)), ("b2", record(99.0)),
                      ("c", record(50.0)), ("other_seed", record(100.0, 8)),
                      ("failed", record(0.0, failed=3))):
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    assert compare.main([paths["a"], paths["b"]]) == 0
    assert compare.main([paths["a"], paths["c"]]) == 1
    assert compare.main([paths["a"], paths["a2"], "--",
                         paths["b"], paths["b2"], paths["c"]]) == 0
    assert compare.main([paths["a"], paths["other_seed"]]) == 2
    # A run with failed reps gives no sample, so its side is unresolved.
    assert compare.main([paths["a"], paths["failed"]]) == 0
    assert compare.main([paths["a"]]) == 2


def test_missing_source_tree_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "worker16"]) == 2
    assert capsys.readouterr().out == ""


def test_run_reports_every_metric(tmp_path, capsys):
    out = tmp_path / "record.json"
    assert run.main(["--workload", "worker16", "--seconds", "0.3",
                     "--out", str(out)]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 2
    spec = load_spec()
    assert set(last["metrics"]) == {
        m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    with open(out, encoding="utf-8") as fh:
        record = json.load(fh)
    assert record["host"]["nproc"] >= 1
    assert len(record["workloads"]["worker16"]["metrics"]["setup_s"]
               ["samples"]) == run.PROBES + 1
