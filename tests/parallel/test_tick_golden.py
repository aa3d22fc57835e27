"""Golden simulated-tick results of the two cost-model machines.

The machines' tick accounting is deterministic, so every field of a
:class:`~repro.parallel.SimResult` / :class:`~repro.parallel.DistResult`
is pinned here exactly — together with a digest of the final working
memory (timestamps included) — for the configurations the paper figures
run:

- Figure 1: tc, waltz and sieve on the :class:`~repro.parallel.SimMachine`
  at P ∈ {1, 4, 16} (hot rule copy-and-constrained);
- Ablation A4: the fused tc+waltz+sieve rule base, multicast on and off;
- Figure 5: the distributed circuit at latency 0 and 250;
- Figure 6: the circuit under a 10% drop rate, a crash at cycle 2 with a
  rejoin at cycle 4, and a straggler;
- both machines on manners (meta-rule redaction every cycle) and monkey
  (``(write ...)`` output and ``(halt)``), which the figures do not reach.

Changing any cost charge, the gather order, or what a cycle commits fails
here (other tests only check that two runs agree). Regenerate after an
intentional change to the cost model with::

    PYTHONPATH=src python -m tests.parallel.test_tick_golden --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from typing import Any, Callable, Dict, List

import pytest

from benchmarks.test_ablation_multicast import N_SITES as A4_SITES, fused
from benchmarks.test_fig1_speedup import prepared_program
from benchmarks.test_fig5_distributed import N_SITES as FIG5_SITES
from benchmarks.test_fig6_faults import SEED, run_with_plan
from repro.faults import FaultPlan, SiteCrash, Straggler
from repro.parallel import DistributedMachine, NetworkModel, SimMachine
from repro.programs import REGISTRY, build_circuit

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_ticks.json")


def wm_digest(wm) -> str:
    """SHA-256 of the store's records in timestamp order."""
    records, next_ts = wm.dump_records()
    return hashlib.sha256(repr((records, next_ts)).encode()).hexdigest()


def projection(result, wm) -> Dict[str, Any]:
    """Every dataclass field of the result, plus the final-WM digest."""
    out = {
        f.name: getattr(result, f.name) for f in dataclasses.fields(result)
    }
    if "fault_events" in out:
        out["fault_events"] = [dataclasses.astuple(e) for e in out["fault_events"]]
    out["wm"] = wm_digest(wm)
    return json.loads(json.dumps(out))


def _fig1(name: str, n_sites: int) -> Dict[str, Any]:
    wl = REGISTRY[name]()
    machine = SimMachine(prepared_program(wl, n_sites), n_sites)
    wl.setup(machine)
    result = machine.run(max_cycles=10_000)
    return projection(result, machine.wm)


def _a4(multicast: bool) -> Dict[str, Any]:
    program, parts = fused()
    machine = SimMachine(program, A4_SITES, multicast=multicast)
    for wl in parts:
        wl.setup(machine)
    result = machine.run(max_cycles=10_000)
    return projection(result, machine.wm)


def _fig5(latency: float) -> Dict[str, Any]:
    wl = build_circuit(n_inputs=6, n_levels=8, gates_per_level=6)
    machine = DistributedMachine(
        wl.program, FIG5_SITES, network=NetworkModel(latency=latency)
    )
    wl.setup(machine)
    result = machine.run(max_cycles=5000)
    return projection(result, machine.replicas[0])


def _fig6(plan: FaultPlan) -> Dict[str, Any]:
    machine, result = run_with_plan(plan)
    return projection(result, machine.replicas[0])


def _sim(name: str, n_sites: int) -> Dict[str, Any]:
    wl = REGISTRY[name]()
    machine = SimMachine(wl.program, n_sites)
    wl.setup(machine)
    return projection(machine.run(), machine.wm)


def _dist(name: str, n_sites: int, **kw: Any) -> Dict[str, Any]:
    wl = REGISTRY[name]()
    machine = DistributedMachine(wl.program, n_sites, **kw)
    wl.setup(machine)
    return projection(machine.run(), machine.replicas[0])


SCENARIOS: Dict[str, Callable[[], Dict[str, Any]]] = {
    **{
        f"fig1-{name}-p{p}": (lambda name=name, p=p: _fig1(name, p))
        for name in ("tc", "waltz", "sieve")
        for p in (1, 4, 16)
    },
    "a4-broadcast": lambda: _a4(False),
    "a4-multicast": lambda: _a4(True),
    "fig5-latency0": lambda: _fig5(0.0),
    "fig5-latency250": lambda: _fig5(250.0),
    "fig6-drop0.1": lambda: _fig6(FaultPlan(seed=SEED, drop_rate=0.1)),
    "fig6-crash2-rejoin4": lambda: _fig6(
        FaultPlan(seed=SEED, crashes=(SiteCrash(cycle=2, site=1, rejoin_cycle=4),))
    ),
    "fig6-straggler": lambda: _fig6(
        FaultPlan(seed=SEED, stragglers=(Straggler(site=1, factor=3.0),))
    ),
    "sim-manners-p4": lambda: _sim("manners", 4),
    "sim-monkey-p2": lambda: _sim("monkey", 2),
    "dist-manners-p3-multicast": lambda: _dist("manners", 3, multicast=True),
    "dist-monkey-p2": lambda: _dist("monkey", 2),
}


def _load_golden() -> Dict[str, Any]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_ticks_match_golden(name: str) -> None:
    golden = _load_golden()
    assert name in golden, f"{name} missing from {GOLDEN_PATH}"
    got = SCENARIOS[name]()
    expected = golden[name]
    for key in expected:
        assert got[key] == expected[key], f"{name}: {key} differs"
    assert set(got) == set(expected)


def main(argv: List[str]) -> int:
    if "--write" not in argv:
        print(__doc__)
        return 2
    # One line per (scenario, field), so a diff names the field it moved.
    scenarios = []
    for name in sorted(SCENARIOS):
        got = SCENARIOS[name]()
        fields = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(got[key])}" for key in sorted(got)
        )
        scenarios.append(f"{json.dumps(name)}: {{\n{fields}\n}}")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(scenarios) + "\n}\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
