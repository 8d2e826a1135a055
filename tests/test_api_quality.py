"""API quality gates: every public item is documented, exports resolve,
and the package presents a coherent surface."""

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = [
    "repro",
    "repro.analysis",
    "repro.analysis.cost",
    "repro.analysis.experiments",
    "repro.analysis.model",
    "repro.analysis.profiling",
    "repro.analysis.regression",
    "repro.analysis.report",
    "repro.analysis.reportgen",
    "repro.analysis.verify",
    "repro.analysis.workersets",
    "repro.cache",
    "repro.cache.cache",
    "repro.cli",
    "repro.common",
    "repro.common.errors",
    "repro.common.types",
    "repro.core",
    "repro.core.cache_ctrl",
    "repro.core.directory",
    "repro.core.home",
    "repro.core.messages",
    "repro.core.protocol",
    "repro.core.protocol.backends",
    "repro.core.protocol.engine",
    "repro.core.protocol.invariants",
    "repro.core.protocol.render",
    "repro.core.protocol.table",
    "repro.core.software",
    "repro.core.software.costmodel",
    "repro.core.software.extdir",
    "repro.core.software.handlers",
    "repro.core.software.interface",
    "repro.core.spec",
    "repro.exec",
    "repro.exec.cache",
    "repro.exec.jobs",
    "repro.exec.pool",
    "repro.machine",
    "repro.machine.barrier",
    "repro.machine.heap",
    "repro.machine.machine",
    "repro.machine.node",
    "repro.machine.params",
    "repro.machine.processor",
    "repro.machine.sync",
    "repro.network",
    "repro.network.detailed",
    "repro.network.fabric",
    "repro.network.topology",
    "repro.obs",
    "repro.obs.attribution",
    "repro.obs.events",
    "repro.obs.export",
    "repro.obs.fleet",
    "repro.obs.hist",
    "repro.obs.spans",
    "repro.obs.timeseries",
    "repro.sim",
    "repro.sim.engine",
    "repro.sim.shard",
    "repro.sim.stats",
    "repro.sim.trace",
    "repro.sim.windows",
    "repro.verify",
    "repro.verify.abstract",
    "repro.verify.flow",
    "repro.verify.flow.cfg",
    "repro.verify.flow.taint",
    "repro.verify.lint",
    "repro.verify.modelcheck",
    "repro.verify.report",
    "repro.workloads",
    "repro.workloads.aq",
    "repro.workloads.base",
    "repro.workloads.evolve",
    "repro.workloads.mp3d",
    "repro.workloads.smgrid",
    "repro.workloads.synthetic",
    "repro.workloads.tsp",
    "repro.workloads.water",
    "repro.workloads.worker",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_importable_and_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", MODULES)
def test_public_classes_and_functions_documented(name):
    module = importlib.import_module(name)
    for attr_name in dir(module):
        if attr_name.startswith("_"):
            continue
        attr = getattr(module, attr_name)
        if getattr(attr, "__module__", None) != name:
            continue  # re-export; documented at its home
        if inspect.isclass(attr) or inspect.isfunction(attr):
            assert attr.__doc__, f"{name}.{attr_name} lacks a docstring"


def test_all_exports_resolve():
    for name in MODULES:
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", []):
            assert hasattr(module, export), f"{name}.__all__: {export}"


def test_no_module_missing_from_quality_list():
    found = set()
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if "__main__" in info.name:
            continue
        found.add(info.name)
    missing = found - set(MODULES)
    assert not missing, f"add to MODULES: {sorted(missing)}"


def test_version_is_semver():
    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(part.isdigit() for part in parts)
