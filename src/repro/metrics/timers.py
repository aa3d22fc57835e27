"""Phase timing and cycle-report summarization.

:class:`PhaseTimer` is the per-phase accumulator behind the engine's
public ``phase_times`` (a live view of its seconds counter): the emit
point (:meth:`repro.obs.emit.Obs.phase`) feeds each measured phase into
it via :meth:`PhaseTimer.add`. The timer is thread-safe — both counters
update under one lock, so concurrent ``phase()``/``add()`` calls never
lose increments.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterator, List, Sequence, Union

if TYPE_CHECKING:  # avoid a runtime cycle: repro.obs imports this module
    from repro.core.engine import CycleReport

__all__ = ["PhaseTimer", "percentile", "summarize_cycles"]


class PhaseTimer:
    """Accumulates wall-clock per named phase via a context manager::

        timer = PhaseTimer()
        with timer.phase("match"):
            ...
        timer.seconds["match"]

    Thread-safe: ``seconds`` and ``entries`` are updated atomically under
    an internal lock, so phases may run (and close) concurrently.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.seconds: Counter = Counter()
        self.entries: Counter = Counter()

    def add(self, name: str, seconds: float, entries: int = 1) -> None:
        """Record ``seconds`` of already-measured time against ``name``.

        This is the primitive the span layer calls when a span closes;
        :meth:`phase` is the same thing with the measuring built in.
        """
        with self._lock:
            self.seconds[name] += seconds
            self.entries[name] += entries

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def fraction(self, name: str) -> float:
        """Share of total recorded time spent in ``name`` (0 when empty)."""
        with self._lock:
            total = sum(self.seconds.values())
            return self.seconds[name] / total if total else 0.0

    def reset(self) -> None:
        with self._lock:
            self.seconds.clear()
            self.entries.clear()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100]; 0 when
    empty). Deterministic and dependency-free — shared by the cycle
    summaries and the metrics histograms."""
    if not values:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))  # ceil without math
    return float(ordered[min(rank, len(ordered)) - 1])


def summarize_cycles(reports: "Sequence[CycleReport]") -> Dict[str, Union[int, float]]:
    """Aggregate a run's cycle reports into the quantities the experiment
    tables and the profiler print: firing-set statistics (including
    p50/p95 percentiles), redaction load, delta volume, write and fault
    counts. Counts are ints, ratios/percentiles floats — the return type
    says so honestly instead of claiming all-float."""
    if not reports:
        return {
            "cycles": 0,
            "firings": 0,
            "mean_firing_set": 0.0,
            "max_firing_set": 0,
            "p50_firing_set": 0.0,
            "p95_firing_set": 0.0,
            "total_redacted": 0,
            "redacted_per_cycle": 0.0,
            "meta_cycles": 0,
            "wm_changes": 0,
            "writes": 0,
            "fault_events": 0,
        }
    fired = [r.fired for r in reports]
    redacted = [r.redaction.redacted for r in reports]
    firing = [f for f in fired if f]
    return {
        "cycles": len(reports),
        "firings": sum(fired),
        "mean_firing_set": (sum(firing) / len(firing)) if firing else 0.0,
        "max_firing_set": max(fired),
        "p50_firing_set": percentile(firing, 50),
        "p95_firing_set": percentile(firing, 95),
        "total_redacted": sum(redacted),
        "redacted_per_cycle": sum(redacted) / len(reports),
        "meta_cycles": sum(r.redaction.meta_cycles for r in reports),
        "wm_changes": sum(r.delta_removes + r.delta_makes for r in reports),
        "writes": sum(len(r.writes) for r in reports),
        "fault_events": sum(len(r.fault_events) for r in reports),
    }
