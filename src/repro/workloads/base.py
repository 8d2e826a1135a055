"""Workload API.

A workload is an SPMD program: :meth:`Workload.setup` allocates shared
structures on the machine's heap, then :meth:`Workload.thread` returns a
generator of architectural operations for each node:

- ``("compute", cycles)`` / ``("compute", cycles, code_ref)``, with
  ``cycles`` a non-negative ``int``;
- ``("read", addr)`` / ``("write", addr)``;
- ``("barrier",)``;
- ``("lock", id)`` / ``("unlock", id)``, ``("reduce", id, value)`` and
  ``("checkin", addr)`` (see :mod:`repro.machine.processor`).

An op of an unknown kind, with the wrong number of operands, or with a
compute count that is not a non-negative ``int`` raises
:class:`~repro.common.errors.WorkloadError` naming the op and the node.

Workloads compute *real* results (a tour length, an integral, a relaxed
grid) so tests can check correctness, and they must be deterministic:
given the same machine parameters, two runs produce identical traces.
Any randomness must come from :func:`det_rand`, a deterministic hash
mixer — never from :mod:`random` global state.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Iterator, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.machine import Machine

Op = Tuple


class Workload(abc.ABC):
    """Base class for all benchmarks and applications."""

    #: short identifier used in reports
    name: str = "workload"

    #: Whether every thread's op stream depends only on the machine
    #: parameters and its own ``node_id``.  Python-side *aggregates*
    #: (result reductions, statistics counters) may couple threads
    #: freely — they never reach RunStats — but a thread whose
    #: *yielded ops* depend on state mutated by other nodes' threads
    #: must set this False: the sharded runtime
    #: (:mod:`repro.sim.shard`) runs each node's generator in the
    #: process that owns it, so such streams would silently diverge
    #: from the serial interleaving.  ``Machine.run`` falls back to
    #: the (byte-identical) serial engine when this is False.
    shard_safe: bool = True

    @abc.abstractmethod
    def setup(self, machine: "Machine") -> None:
        """Allocate shared data on ``machine`` before threads start."""

    @abc.abstractmethod
    def thread(self, machine: "Machine", node_id: int) -> Iterator[Op]:
        """The operation stream executed by ``node_id``."""


def det_rand(*keys: int) -> int:
    """Deterministic 64-bit hash mixer (splitmix64-style) over ``keys``.

    Used for reproducible pseudo-random workload data; unlike
    :mod:`random`, the result depends only on the arguments.
    """
    x = 0x9E3779B97F4A7C15
    for key in keys:
        x ^= (key + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 31
    return x


def det_uniform(lo: float, hi: float, *keys: int) -> float:
    """Deterministic float in ``[lo, hi)`` derived from ``keys``."""
    return lo + (hi - lo) * (det_rand(*keys) / 2.0 ** 64)
