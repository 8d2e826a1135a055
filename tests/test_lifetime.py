"""A finished machine is freed by reference counting.

:meth:`~repro.machine.machine.Machine.close` drops every back-reference
of a run whose results have been read, and :func:`execute_job` calls it
on the way out, also when the run raises.  These tests run with the
garbage collector disabled: a machine that only the collector could
free stays alive, and ``gc.collect()`` then finds it.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.common.errors import (
    ConfigurationError,
    DeadlockError,
    WorkloadError,
)
from repro.core.spec import PAPER_SPECTRUM
from repro.exec.jobs import execute_job, make_job
from repro.machine.machine import Machine
from repro.machine.params import MachineParams
from repro.workloads.base import Workload
from repro.workloads.tsp import TSP
from repro.workloads.worker import WorkerBenchmark

from tests.op_coverage import OpMix


class MalformedOp(Workload):
    """Node 1 computes, then yields an op with no operand."""

    name = "malformed"

    def setup(self, machine) -> None:  # noqa: D102 - no shared data
        pass

    def thread(self, machine, node_id):
        yield ("compute", 5)
        if node_id == 1:
            yield ("read",)


class UnbalancedBarrier(Workload):
    """Only node 0 enters the barrier, so the run ends in deadlock."""

    name = "unbalanced"

    def setup(self, machine) -> None:  # noqa: D102 - no shared data
        pass

    def thread(self, machine, node_id):
        if node_id == 0:
            yield ("barrier",)
        else:
            yield ("compute", 5)


@pytest.fixture
def machines(monkeypatch):
    """Weak references to every machine that runs in the test."""
    refs = []
    run = Machine.run

    def tracked(self, *args, **kwargs):
        refs.append(weakref.ref(self))
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Machine, "run", tracked)
    return refs


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def worker16(**kwargs):
    return make_job(WorkerBenchmark,
                    {"worker_set_size": 8, "iterations": 4},
                    protocol="DirnH5SNB", n_nodes=16, **kwargs)


@pytest.mark.usefixtures("collector_off")
@pytest.mark.parametrize("job,check_invariants", [
    (worker16(), False),
    (worker16(attribution=True), False),
    (worker16(), True),
    (make_job(TSP, protocol="DirnH5SNB", n_nodes=16), False),
], ids=["worker16", "attributed", "invariants", "tsp16"])
def test_finished_job_leaves_no_cyclic_garbage(job, check_invariants,
                                               machines):
    stats = execute_job(job, check_invariants=check_invariants)
    assert [ref() for ref in machines] == [None]
    assert gc.collect() == 0
    assert stats.run_cycles > 0
    assert (stats.attribution is not None) == job.attribution


@pytest.mark.usefixtures("collector_off")
@pytest.mark.parametrize("workload_cls,error", [
    (MalformedOp, WorkloadError),
    (UnbalancedBarrier, DeadlockError),
], ids=["WorkloadError", "DeadlockError"])
def test_failed_job_frees_its_machine(workload_cls, error, machines):
    job = make_job(workload_cls, protocol="DirnH5SNB", n_nodes=4)
    try:
        execute_job(job)
    except error:
        pass
    else:
        pytest.fail(f"{workload_cls.__name__} did not raise")
    assert [ref() for ref in machines] == [None]
    assert gc.collect() == 0


@pytest.mark.usefixtures("collector_off")
def test_rejected_configuration_leaves_no_cyclic_garbage():
    """A software variant the protocol lacks is rejected before any
    component is built, since a half-built machine cannot be closed."""
    try:
        Machine(MachineParams(n_nodes=4), protocol="DirnH1SNB",
                software="optimized")
    except ConfigurationError:
        pass
    else:
        pytest.fail("optimized software accepted for DirnH1SNB")
    assert gc.collect() == 0


def _spectrum_jobs():
    for protocol in PAPER_SPECTRUM:
        yield protocol, make_job(WorkerBenchmark,
                                 {"worker_set_size": 3, "iterations": 2},
                                 protocol=protocol, n_nodes=4)
    yield "opmix", make_job(OpMix, {"rounds": 2}, protocol="DirnH5SNB",
                            n_nodes=4)
    yield "tsp", make_job(TSP, {"n_cities": 7}, protocol="DirnH2SNB",
                          n_nodes=4)


@pytest.mark.usefixtures("collector_off")
@pytest.mark.parametrize("job", [job for _, job in _spectrum_jobs()],
                         ids=[name for name, _ in _spectrum_jobs()])
def test_no_cycle_across_the_spectrum(job, machines):
    execute_job(job)
    assert [ref() for ref in machines] == [None]
    assert gc.collect() == 0


@pytest.mark.usefixtures("collector_off")
def test_closed_links_machine_leaves_no_cyclic_garbage(machines):
    """``SimJob`` has no network-model dimension, so the per-link
    fabric is driven through the machine itself."""
    machine = Machine(MachineParams(n_nodes=4), protocol="DirnH2SNB",
                      network_model="links")
    machine.run(WorkerBenchmark(worker_set_size=3, iterations=2))
    machine.close()
    del machine
    assert [ref() for ref in machines] == [None]
    assert gc.collect() == 0


def test_close_keeps_the_results_and_is_idempotent():
    machine = Machine(MachineParams(n_nodes=4), protocol="DirnH1SNB")
    stats = machine.run(WorkerBenchmark(worker_set_size=3, iterations=2))
    before = stats.digest()
    samples = list(stats.handler_samples)
    assert samples
    machine.close()
    machine.close()
    assert stats.digest() == before
    assert stats.handler_samples == samples
    assert stats.per_node == [node.stats for node in machine.nodes]
