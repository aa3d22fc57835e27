"""Golden projection of every observability sink, per execution substrate.

Each scenario runs a small workload with a :class:`~repro.obs.Tracer`, a
:class:`~repro.obs.MetricsRegistry` and (where the substrate has one) a
flight ring attached, and reduces what they recorded to its deterministic
shadow:

- metrics: every counter and gauge value, plus the key and observation
  count of every histogram series (timings themselves are excluded);
- trace: per lane, the sequence of ``(ph, name)`` of the Chrome export
  (which must also pass :func:`~repro.obs.validate_chrome_trace`);
- flight ring: the total record count and the
  :func:`~repro.obs.blackbox._projection` of each record (grouped per site
  for the threaded pool, whose site threads interleave freely).

The projections are compared with ``golden_projection.json``. Emitting an
event twice, dropping one, or moving it to another sink fails here.
Regenerate after an intentional change to what is recorded with::

    PYTHONPATH=src python -m tests.obs.test_golden_projection --write
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Callable, Dict, List

import pytest

from repro.core import EngineConfig, ParulelEngine
from repro.faults import FaultPlan, SiteCrash
from repro.obs import MetricsRegistry, Tracer, validate_chrome_trace
from repro.obs.blackbox import _projection
from repro.obs.flightrec import FlightRecorder, decode_ring
from repro.parallel.distributed import DistributedMachine
from repro.parallel.threaded import ThreadedMatchPool
from repro.programs import REGISTRY
from repro.programs.tc import build_tc

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_projection.json")


def metrics_projection(metrics: MetricsRegistry) -> Dict[str, Any]:
    snap = metrics.snapshot()
    return {
        "counters": snap["counters"],
        "gauges": snap["gauges"],
        "histograms": {k: v["count"] for k, v in snap["histograms"].items()},
    }


def trace_projection(tracer: Tracer) -> Dict[str, List[List[str]]]:
    doc = json.loads(json.dumps(tracer.to_chrome()))
    validate_chrome_trace(doc)
    lane_of = {
        ev["tid"]: ev["args"]["name"]
        for ev in doc["traceEvents"]
        if ev["ph"] == "M" and ev["name"] == "thread_name"
    }
    lanes: Dict[str, List[List[str]]] = {}
    for ev in doc["traceEvents"]:
        if ev["ph"] != "M":
            lanes.setdefault(lane_of[ev["tid"]], []).append([ev["ph"], ev["name"]])
    return lanes


def ring_projection(ring, by_site: bool = False) -> Dict[str, Any]:
    decoded = decode_ring(ring.snapshot())
    if not by_site:
        return {
            "seq": decoded["seq"],
            "records": [list(_projection(r)) for r in decoded["records"]],
        }
    sites: Dict[str, List[List[int]]] = {}
    for r in decoded["records"]:
        sites.setdefault(str(r["site"]), []).append(list(_projection(r)))
    return {"seq": decoded["seq"], "by_site": sites}


def _engine_scenario(workload: str, **config: Any) -> Dict[str, Any]:
    wl = REGISTRY[workload]()
    tracer, metrics = Tracer(), MetricsRegistry()
    engine = ParulelEngine(
        wl.program, EngineConfig(**config), tracer=tracer, metrics=metrics
    )
    try:
        wl.setup(engine)
        engine.run()
        assert wl.verify_ok(engine.wm)
        ring = ring_projection(engine.flightrec.ring)
    finally:
        engine.close()
    return {
        "metrics": metrics_projection(metrics),
        "trace": trace_projection(tracer),
        "ring": ring,
    }


def _threaded_scenario() -> Dict[str, Any]:
    wl = build_tc(n_nodes=8, shape="chain")
    tracer, metrics = Tracer(), MetricsRegistry()
    recorder = FlightRecorder([r.name for r in wl.program.rules], shared=False)
    engine = ParulelEngine(wl.program, EngineConfig(flight_recorder=False))
    try:
        wl.setup(engine)
        with ThreadedMatchPool(
            wl.program.rules, engine.wm, 2,
            tracer=tracer, metrics=metrics, flightrec=recorder,
        ) as pool:
            sizes = []
            for _ in range(3):
                insts = pool.conflict_set()
                sizes.append(len(insts))
                engine.step()
    finally:
        engine.close()
    ring = ring_projection(recorder.ring, by_site=True)
    recorder.close()
    return {
        "sizes": sizes,
        "metrics": metrics_projection(metrics),
        "trace": trace_projection(tracer),
        "ring": ring,
    }


def _distributed_scenario() -> Dict[str, Any]:
    wl = build_tc(n_nodes=10)
    tracer, metrics = Tracer(), MetricsRegistry()
    machine = DistributedMachine(
        wl.program,
        n_sites=3,
        fault_plan=FaultPlan(crashes=(SiteCrash(cycle=2, site=1),)),
        tracer=tracer,
        metrics=metrics,
    )
    wl.setup(machine)
    result = machine.run()
    return {
        "cycles": result.cycles,
        "faults": [e.kind for e in result.fault_events],
        "metrics": metrics_projection(metrics),
        "trace": trace_projection(tracer),
    }


SCENARIOS: Dict[str, Callable[[], Dict[str, Any]]] = {
    "tc-rete": lambda: _engine_scenario("tc"),
    "manners-rete": lambda: _engine_scenario("manners"),
    "tc-process2-dict": lambda: _engine_scenario("tc", matcher="process:2"),
    "tc-process2-columnar": lambda: _engine_scenario(
        "tc", matcher="process:2", wm_backend="columnar"
    ),
    "threaded-pool": _threaded_scenario,
    "distributed-crash": _distributed_scenario,
}


def _load_golden() -> Dict[str, Any]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.timeout(120)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_projection_matches_golden(name: str) -> None:
    golden = _load_golden()
    assert name in golden, f"{name} missing from {GOLDEN_PATH}"
    got = json.loads(json.dumps(SCENARIOS[name]()))
    expected = golden[name]
    for key in expected:
        assert got[key] == expected[key], f"{name}: {key} projection differs"
    assert set(got) == set(expected)


def main(argv: List[str]) -> int:
    if "--write" not in argv:
        print(__doc__)
        return 2
    # One line per (scenario, sink): compact, yet a change shows up in a
    # diff as the sink it touched.
    scenarios = []
    for name in sorted(SCENARIOS):
        got = SCENARIOS[name]()
        sinks = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(got[key], sort_keys=True)}"
            for key in sorted(got)
        )
        scenarios.append(f"{json.dumps(name)}: {{\n{sinks}\n}}")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(scenarios) + "\n}\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
