"""Latency histograms with percentile queries.

The paper reports handler latencies as means and medians (Tables 1–2);
tail behaviour — the p99 handler occupancy that actually determines
WORKER's livelock sensitivity — was invisible.  :class:`Histogram`
keeps exact integer-valued counts (latencies here are small bounded
integers, so the distinct-value footprint is tiny compared to sample
count) and answers any percentile exactly and deterministically.

:class:`LatencyRecorder` is the standard observer: it subscribes to the
``handler`` and ``stall`` channels of a machine's event bus and keys
histograms by handler kind and by stall kind, replacing the mean-only
``RunStats.mean_handler_latency`` view with a full distribution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.machine import Machine
    from repro.obs.events import HandlerSpan, StallSpan

#: Percentiles reported by default summaries.
DEFAULT_PERCENTILES = (50, 90, 99)


class Histogram:
    """Exact histogram over non-negative integer values."""

    __slots__ = ("_counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def add(self, value: int, weight: int = 1) -> None:
        if value < 0:
            raise ValueError(f"negative latency {value}")
        self._counts[value] = self._counts.get(value, 0) + weight
        self.count += weight
        self.total += value * weight
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> None:
        for value, weight in other._counts.items():
            self.add(value, weight)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> int:
        """Smallest recorded value v such that at least ``p`` percent of
        samples are <= v.  Exact, not interpolated: the returned value
        was actually observed."""
        if not 0 < p <= 100:
            raise ValueError(f"percentile {p} outside (0, 100]")
        if self.count == 0:
            return 0
        rank = max(1, -(-self.count * p // 100))  # ceil without floats
        seen = 0
        for value in sorted(self._counts):
            seen += self._counts[value]
            if seen >= rank:
                return value
        return self.max if self.max is not None else 0  # pragma: no cover

    def percentiles(
        self, ps: Iterable[float] = DEFAULT_PERCENTILES
    ) -> Dict[str, int]:
        return {f"p{p:g}": self.percentile(p) for p in ps}

    def buckets(self) -> List[Tuple[int, int]]:
        """Sorted ``(value, count)`` pairs (for export)."""
        return sorted(self._counts.items())

    def summary(self) -> Dict[str, object]:
        """Deterministic JSON-friendly digest."""
        out: Dict[str, object] = {
            "count": self.count,
            "mean": round(self.mean, 3),
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
        }
        out.update(self.percentiles())
        return out

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Histogram(count={self.count}, mean={self.mean:.1f}, "
                f"p50={self.percentile(50)}, p99={self.percentile(99)})")


class HistogramSet:
    """A family of histograms keyed by name (handler kind, stall kind)."""

    def __init__(self) -> None:
        self._hists: Dict[str, Histogram] = {}

    def record(self, key: str, value: int, weight: int = 1) -> None:
        hist = self._hists.get(key)
        if hist is None:
            hist = Histogram()
            self._hists[key] = hist
        hist.add(value, weight)

    def __getitem__(self, key: str) -> Histogram:
        return self._hists[key]

    def __contains__(self, key: str) -> bool:
        return key in self._hists

    def __len__(self) -> int:
        return len(self._hists)

    def keys(self) -> List[str]:
        return sorted(self._hists)

    def items(self) -> List[Tuple[str, Histogram]]:
        return sorted(self._hists.items())

    def summary(self) -> Dict[str, Dict[str, object]]:
        return {key: hist.summary() for key, hist in self.items()}


class LatencyRecorder:
    """Histogram observer for handler and end-to-end access latencies.

    Usage::

        recorder = LatencyRecorder.attach(machine)
        machine.run(workload)
        recorder.handlers["read"].percentile(99)
        recorder.stalls["write"].percentile(50)
    """

    def __init__(self) -> None:
        #: handler-cost latency per handler kind ("read", "ack", ...)
        self.handlers = HistogramSet()
        #: end-to-end stall latency per stall kind ("read", "write",
        #: "ifetch", "lock", "reduce", "sw_wait")
        self.stalls = HistogramSet()

    @classmethod
    def attach(cls, machine: "Machine") -> "LatencyRecorder":
        recorder = cls()
        bus = machine.observe()
        bus.on_handler.append(recorder._on_handler)
        bus.on_stall.append(recorder._on_stall)
        return recorder

    def _on_handler(self, ev: "HandlerSpan") -> None:
        self.handlers.record(ev.kind, ev.latency)

    def _on_stall(self, ev: "StallSpan") -> None:
        self.stalls.record(ev.kind, ev.end - ev.start)

    def summary(self) -> Dict[str, Dict[str, Dict[str, object]]]:
        return {
            "handlers": self.handlers.summary(),
            "stalls": self.stalls.summary(),
        }
