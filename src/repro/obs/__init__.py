"""Unified observability: tracing, metrics, and per-rule profiling.

PARULEL's argument is about *where the cycle time goes* — match vs.
redaction vs. act vs. communication. This package is the layer that makes
every execution substrate show its work:

- :mod:`repro.obs.emit` — :class:`~repro.obs.emit.Obs`, the one emit
  point: the engine, the match pools, the distributed machine and each
  process worker report every event through one method per event kind,
  and only that method knows which sinks below are attached;
- :mod:`repro.obs.events` — the flight-recorder record kinds and phase
  codes, importable without shared memory;
- :mod:`repro.obs.trace` — monotonic-clock spans and instants on named
  lanes (engine, worker processes, distributed sites, the simulated
  network), thread/process-safe, exported as Chrome trace-event JSON
  (open it in Perfetto or ``chrome://tracing``) or JSONL;
- :mod:`repro.obs.metrics` — a labelled counter/gauge/histogram registry
  with JSON snapshots and Prometheus text exposition, held by the parent
  (workers ship raw per-rule timings with their replies);
- :mod:`repro.obs.profile` — the per-rule hot-rule table
  (``parulel profile``) and the metric-name catalog.

- :mod:`repro.obs.flightrec` / :mod:`repro.obs.blackbox` — the always-on
  black-box flight recorder: bounded shared-memory event rings that
  survive worker SIGKILLs, ``*.blackbox`` crash dumps, merged causal
  timelines, per-site/per-rule skew analytics, and recording diffs
  (``parulel blackbox dump/report/diff``);
- :mod:`repro.obs.metrics_http` — one-shot HTTP ``/metrics`` exposition
  for ``parulel run --metrics-port``.

Tracer and metrics default to the no-op :data:`NULL_TRACER` /
:data:`NULL_METRICS` singletons, so the disabled path costs a branch in
the emit point. The overhead gate (``tests/obs/test_overhead.py``)
allows enabled tracing + metrics ``off × 1.05 + 50 ms`` on the ``tc`` and
``manners`` workloads, each side the minimum of 3 runs. Those runs take
10–25 ms, so the 50 ms floor dominates and a 5% overhead is not resolved.
The flight-recorder gate (``benchmarks/obs_microbench.py``) applies the
same bound to the minimum of 15 runs; its recorded on/off ratios
(``BENCH_obs.json``) are 1.12 on tc and 1.22 on manners.
"""

from repro.obs.metrics import NULL_METRICS, MetricsRegistry, NullMetrics
from repro.obs.profile import RuleProfile, hot_rule_table, rule_profiles
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    validate_chrome_trace,
)

__all__ = [
    "Blackbox",
    "FlightRecorder",
    "FlightRing",
    "MetricsHTTPServer",
    "MetricsRegistry",
    "NULL_METRICS",
    "Obs",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "RuleProfile",
    "Tracer",
    "diff_blackbox",
    "hot_rule_table",
    "load_blackbox",
    "rule_profiles",
    "skew_report",
    "validate_chrome_trace",
]

#: Flight-recorder names (and the emit point) resolve lazily (PEP 562), so
#: importing ``repro.obs`` alone never drags in
#: ``multiprocessing.shared_memory``.
_LAZY = {
    "Obs": "repro.obs.emit",
    "FlightRecorder": "repro.obs.flightrec",
    "FlightRing": "repro.obs.flightrec",
    "Blackbox": "repro.obs.blackbox",
    "load_blackbox": "repro.obs.blackbox",
    "skew_report": "repro.obs.blackbox",
    "diff_blackbox": "repro.obs.blackbox",
    "MetricsHTTPServer": "repro.obs.metrics_http",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
