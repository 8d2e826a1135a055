"""Module -> layer map and the reducer that turns a cProfile run into
per-layer host time.

The simulator itself is never instrumented: the traced run wraps one
rep in :class:`cProfile.Profile` and this module folds the resulting
``pstats`` table into layers.  Three rules make the fold exact:

- a ``repro`` frame belongs to the layer of its module (:data:`RULES`;
  any module no rule names is ``common``);
- a builtin, stdlib or generated ``<string>`` frame has no layer of its
  own, so its self time is charged to the ``repro`` frames that called
  it, split by the profiler's per-edge times and followed up through
  other non-``repro`` callers; frames that call each other in a cycle
  (json's recursive encoder, for one) are resolved together, from the
  calls that enter the cycle from outside;
- time that reaches no ``repro`` frame at all (the harness, the
  profiler's own ``disable``) is ``runtime``.

So layer self times sum to the profiler's total, and ``calls_in`` — calls
into a layer from a frame of another layer — is an exact, repeatable
count.
"""

from __future__ import annotations

import importlib
import os
from typing import Dict, FrozenSet, List, Optional, Tuple

#: (layer, module prefixes relative to the ``repro`` package).  A prefix
#: ending in ``/`` names a whole subpackage; any other names one module.
RULES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("sim", ("sim/engine", "sim/shard", "sim/windows", "sim/trace")),
    ("stats", ("sim/stats",)),
    ("network", ("network/",)),
    ("machine", ("machine/",)),
    ("cache", ("cache/", "core/cache_ctrl")),
    ("protocol", ("core/protocol/", "core/directory", "core/messages",
                  "core/home", "core/spec")),
    ("software", ("core/software/",)),
    ("obs", ("obs/",)),
    ("exec", ("exec/",)),
    ("analysis", ("analysis/",)),
    ("workloads", ("workloads/",)),
)

#: Every layer, in report order.  ``common`` is every other ``repro``
#: module; ``runtime`` is time no ``repro`` frame is responsible for.
LAYERS: Tuple[str, ...] = tuple(layer for layer, _ in RULES) + (
    "common", "runtime")

#: Compiled protocol dispatch runs from generated source whose
#: pseudo-filename starts with this (repro.core.protocol.compile).
GENERATED_PROTOCOL_PREFIX = "<repro.core.protocol.compile:"

#: Named counts: metric -> the functions whose calls it counts.
COUNTED: Dict[str, Tuple[str, ...]] = {
    "sim.events": ("repro.sim.engine:Simulator.at",
                   "repro.sim.engine:Simulator.post"),
    "network.messages": ("repro.network.fabric:Fabric.send",
                         "repro.network.detailed:DetailedFabric.send"),
    "cache.accesses": ("repro.core.cache_ctrl:CacheController.try_hit",),
    "software.handlers": (
        "repro.core.software.interface:CoherenceInterface.run_handler",),
    "exec.puts": ("repro.exec.cache:ResultCache.put",),
    "exec.gets": ("repro.exec.cache:ResultCache.get",),
}

Func = Tuple[str, int, str]  # pstats key: (filename, first line, name)


def matching_rules(module: str) -> List[str]:
    """Layers whose rules name ``module`` (a path like ``sim/engine``)."""
    return [layer for layer, prefixes in RULES
            if any(module.startswith(p) if p.endswith("/") else module == p
                   for p in prefixes)]


def module_layer(module: str) -> str:
    """Layer of the ``repro`` module at relative path ``module``."""
    matched = matching_rules(module)
    return matched[0] if matched else "common"


def repro_root() -> str:
    """Directory of the imported ``repro`` package."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def frame_layer(func: Func, root: str) -> Optional[str]:
    """Layer of a profiled frame, or ``None`` if it is not ``repro``'s."""
    filename = func[0]
    if filename.startswith(GENERATED_PROTOCOL_PREFIX):
        return "protocol"
    if not filename.startswith(root + os.sep) or not filename.endswith(".py"):
        return None
    module = os.path.relpath(filename, root)[:-3].replace(os.sep, "/")
    return module_layer(module)


def code_key(qualified: str) -> Func:
    """pstats key of the function named ``module:Class.method``."""
    module, _, attr = qualified.partition(":")
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    code = obj.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


class Reduction:
    """Per-layer self time and ``calls_in`` of one profiled region."""

    def __init__(self, stats: Dict, root: str) -> None:
        #: func -> (cc, nc, tt, ct, callers{caller: (cc, nc, tt, ct)})
        self.stats = stats
        self.layer = {func: frame_layer(func, root) for func in stats}
        self._resolve()
        self.total_s = sum(entry[2] for entry in stats.values())
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls_in = {layer: 0 for layer in LAYERS}
        for func, (_cc, nc, tt, _ct, callers) in stats.items():
            layer = self.layer[func]
            if layer is None:
                for owner, share in self._self_owners(func).items():
                    self.self_s[owner] += tt * share
                continue
            self.self_s[layer] += tt
            if not callers:  # entered from outside the profile
                self.calls_in[layer] += nc
            for caller, edge in callers.items():
                if layer not in self._reaching(caller):
                    self.calls_in[layer] += edge[1]

    def _callers(self, func: Func) -> Dict:
        entry = self.stats.get(func)
        return entry[4] if entry is not None else {}

    def _resolve(self) -> None:
        """Owners and reaching layers of every non-``repro`` frame.

        Non-``repro`` frames that call each other in a cycle (json's
        encoder recursing through nested dicts and lists) form one
        strongly connected component and share one answer, built from
        the calls that enter the component from outside.  Components
        are resolved callers-first, so each answer is final when made.
        """
        self._component: Dict[Func, int] = {}
        self._owners: List[Dict[str, float]] = []
        self._reach: List[FrozenSet[str]] = []
        for members in self._components():
            index = len(self._owners)
            inside = set(members)
            entries = [(caller, edge) for func in members
                       for caller, edge in self._callers(func).items()
                       if caller not in inside]
            weights = [edge[3] for _, edge in entries]
            if sum(weights) <= 0:
                weights = [edge[1] for _, edge in entries]
            self._owners.append(self._mix(
                [(self._owner(caller), weight)
                 for (caller, _), weight in zip(entries, weights)]))
            self._reach.append(frozenset().union(
                *(self._reaching(caller) for caller, _ in entries))
                or frozenset(("runtime",)))
            for func in members:
                self._component[func] = index

    def _components(self) -> List[List[Func]]:
        """Tarjan's strongly connected components of the non-``repro``
        frames, walking from each frame to its non-``repro`` callers;
        every component comes after the components of its callers."""
        def up(func: Func):
            return iter([c for c in self._callers(func)
                         if self.layer.get(c) is None])

        index: Dict[Func, int] = {}
        low: Dict[Func, int] = {}
        stack: List[Func] = []
        on_stack = set()
        order: List[List[Func]] = []
        for start in self.stats:
            if self.layer[start] is not None or start in index:
                continue
            index[start] = low[start] = len(index)
            stack.append(start)
            on_stack.add(start)
            work = [(start, up(start))]
            while work:
                func, callers = work[-1]
                for caller in callers:
                    if caller not in index:
                        index[caller] = low[caller] = len(index)
                        stack.append(caller)
                        on_stack.add(caller)
                        work.append((caller, up(caller)))
                        break
                    if caller in on_stack:
                        low[func] = min(low[func], index[caller])
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[func])
                    if low[func] == index[func]:
                        members = []
                        while True:
                            member = stack.pop()
                            on_stack.discard(member)
                            members.append(member)
                            if member == func:
                                break
                        order.append(members)
        return order

    @staticmethod
    def _mix(parts) -> Dict[str, float]:
        """Weighted sum of owner shares; ``runtime`` when weightless."""
        total = sum(weight for _, weight in parts)
        if total <= 0:
            return {"runtime": 1.0}
        shares: Dict[str, float] = {}
        for owners, weight in parts:
            for layer, share in owners.items():
                shares[layer] = shares.get(layer, 0.0) + weight / total * share
        return shares

    def _owner(self, func: Func) -> Dict[str, float]:
        """Layers that own calls made by ``func``, by cumulative time."""
        layer = self.layer.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func not in self._component:  # a caller the profile never saw
            return {"runtime": 1.0}
        return self._owners[self._component[func]]

    def _self_owners(self, func: Func) -> Dict[str, float]:
        """How a non-``repro`` frame's self time splits across layers:
        by the self time each caller edge recorded."""
        mine = self._owners[self._component[func]]
        parts = [(mine if self._component.get(caller) ==
                  self._component[func] else self._owner(caller), edge[2])
                 for caller, edge in self._callers(func).items()]
        if sum(weight for _, weight in parts) <= 0:
            return mine
        return self._mix(parts)

    def _reaching(self, func: Func) -> FrozenSet[str]:
        """Layers a call from ``func`` comes from: its own, or — for a
        non-``repro`` frame — every layer that reaches it through
        non-``repro`` frames.  A pure graph walk, so counts repeat."""
        layer = self.layer.get(func)
        if layer is not None:
            return frozenset((layer,))
        if func not in self._component:
            return frozenset(("runtime",))
        return self._reach[self._component[func]]


def counts(stats: Dict) -> Dict[str, int]:
    """The named counts of :data:`COUNTED` from a pstats table."""
    return {name: sum(stats[key][1] for key in map(code_key, funcs)
                      if key in stats)
            for name, funcs in COUNTED.items()}

