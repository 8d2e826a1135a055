"""TSP's incremental search against the search it replaced.

``TSP.thread`` carries each stack entry's visited set, lower bound and
cost forward from its parent.  ``reference_tsp_thread`` below is the
search as first written, rebuilding all three from the path on every
expansion; the two must yield the same ops in the same order and leave
the same ``expansions`` and ``best_found``.
"""

from __future__ import annotations

import functools
from typing import Iterator, List, Tuple

import pytest

from repro.machine.machine import Machine
from repro.workloads.base import Op
from repro.workloads.tsp import EXPAND_CYCLES, TSP

from tests.helpers import tiny_machine
from tests.test_attribution import RelabelledTSP

NODE_COUNTS = (1, 4, 16, 64, 256)


def reference_tsp_thread(tsp: TSP, machine: Machine,
                         node_id: int) -> Iterator[Op]:
    """``TSP.thread`` as it was before the search went incremental."""
    n_nodes = machine.params.n_nodes
    code = tsp._code
    runtime_code = tsp._runtime_code
    best = tsp.optimal  # the seeded bound
    local_best = None
    local_expansions = 0

    yield ("read", tsp.best_addr)
    yield ("read", tsp.count_addr)
    yield ("barrier",)

    all_cities = frozenset(range(tsp.n_cities))
    for index, prefix in enumerate(tsp._prefixes):
        if index % n_nodes != node_id:
            continue
        stack = [(prefix, sum(tsp.dist[a][b]
                              for a, b in zip(prefix, prefix[1:])))]
        while stack:
            path, cost = stack.pop()
            tsp.expansions += 1
            local_expansions += 1
            if local_expansions % tsp.runtime_period == 0:
                yield ("compute", 24, runtime_code)
            yield ("compute", EXPAND_CYCLES, code)
            yield ("read", tsp.count_addr)
            yield ("read", tsp.best_addr)
            yield ("read", tsp.dist_rows[path[-1]])
            remaining = all_cities.difference(path)
            if not remaining:
                total = cost + tsp.dist[path[-1]][0]
                yield ("write", tsp._scratch[node_id])
                if total <= best:
                    best = total
                    local_best = total
                continue
            if cost + sum(tsp._min_out[c] for c in remaining) > best:
                continue  # pruned
            for child in sorted(remaining, reverse=True):
                stack.append((path + (child,),
                              cost + tsp.dist[path[-1]][child]))

    yield ("compute", 10, code)
    yield ("write", tsp.result_addrs[node_id])
    if local_best is not None:
        tsp.best_found = (min(tsp.best_found, local_best)
                          if tsp.best_found else local_best)
    yield ("barrier",)
    if node_id == 0:
        for addr in tsp.result_addrs:
            yield ("read", addr)
        yield ("compute", 20, code)
        yield ("write", tsp.best_addr)
    yield ("barrier",)


def run_threads(tsp: TSP, machine: Machine, thread) -> Tuple[
        List[List[Op]], int, int]:
    """Every node's whole op list, then ``expansions`` and
    ``best_found``, drawing each thread to its end in node order."""
    tsp.expansions = 0
    tsp.best_found = 0
    ops = [list(thread(machine, node))
           for node in range(machine.params.n_nodes)]
    return ops, tsp.expansions, tsp.best_found


@functools.lru_cache(maxsize=None)
def shared_machine(n_nodes: int) -> Machine:
    """One machine per size: the threads are drawn by hand, never run,
    so each set-up only allocates more of its heap."""
    return tiny_machine(n_nodes)


def assert_same_search(tsp: TSP, n_nodes: int, label: str) -> None:
    machine = shared_machine(n_nodes)
    tsp.setup(machine)
    want = run_threads(tsp, machine,
                       lambda m, node: reference_tsp_thread(tsp, m, node))
    got = run_threads(tsp, machine, tsp.thread)
    assert got[1:] == want[1:], label
    for node, (mine, theirs) in enumerate(zip(got[0], want[0])):
        assert mine == theirs, f"{label}: node {node}'s ops differ"
    assert want[2] == tsp.optimal, label


def _configs(cities):
    for n_cities in cities:
        for depth in range(1, min(4, n_cities - 2) + 1):
            yield n_cities, depth


@pytest.mark.parametrize("n_cities,depth", list(_configs(range(5, 9))))
def test_same_ops_small(n_cities, depth):
    """Every period, layout and node count on the cheap instances."""
    for period in (1, 8):
        for thrash in (True, False):
            for n_nodes in NODE_COUNTS:
                tsp = TSP(n_cities=n_cities, prefix_depth=depth,
                          thrash_layout=thrash, runtime_period=period)
                assert_same_search(
                    tsp, n_nodes,
                    f"n={n_cities} depth={depth} period={period} "
                    f"thrash={thrash} nodes={n_nodes}")


def _large_configs():
    for n_cities, depth in _configs(range(9, 14)):
        # A 13-city search is the slowest by far: one period each.
        periods = (1, 8) if n_cities < 13 else ((1, 8)[depth % 2],)
        for period in periods:
            yield n_cities, depth, period


@pytest.mark.parametrize("n_cities,depth,period", list(_large_configs()))
def test_same_ops_large(n_cities, depth, period):
    """The larger instances, with the layout and node count rotated so
    that each of their values is covered."""
    thrash = (n_cities + depth + period) % 2 == 1
    n_nodes = NODE_COUNTS[(n_cities + depth + period) % len(NODE_COUNTS)]
    tsp = TSP(n_cities=n_cities, prefix_depth=depth,
              thrash_layout=thrash, runtime_period=period)
    assert_same_search(tsp, n_nodes,
                       f"n={n_cities} depth={depth} period={period} "
                       f"thrash={thrash} nodes={n_nodes}")


@pytest.mark.parametrize("n_cities,labelling,n_nodes", [
    (12, 0, 64), (12, 1, 64), (12, 2, 16), (9, 3, 256), (7, 4, 4),
])
def test_same_ops_relabelled(n_cities, labelling, n_nodes):
    """Tables replaced after ``__init__`` feed the incremental search."""
    tsp = RelabelledTSP(labelling, n_cities=n_cities)
    assert_same_search(tsp, n_nodes,
                       f"n={n_cities} labelling={labelling} "
                       f"nodes={n_nodes}")
