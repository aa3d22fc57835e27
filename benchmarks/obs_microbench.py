"""Flight-recorder overhead microbenchmark and CI gate.

The flight recorder is **on by default**, so its fixed cost is a standing
tax on every run — this gate keeps that tax inside the tentpole's budget.
Per workload (``tc`` and ``manners``) it measures min-of-N wall time for
the engine run with the recorder off (``flight_recorder=False``) and on
(the default), plus the recorder's raw ring-append throughput, and:

- ``--write`` records the numbers into ``results/BENCH_obs.json``;
- ``--check`` (the default; ``scripts/check.sh --obs`` runs it)
  re-measures *fresh* on the current machine and fails when the
  recorder-on best run exceeds ``off * (1 + RELATIVE_BUDGET) +
  ABSOLUTE_SLACK`` — the same min-of-N + absolute-floor discipline as
  ``tests/obs/test_overhead.py`` (sub-100ms runs would otherwise fail on
  a single page fault). The baseline file is the recorded evidence; the
  gate itself never compares wall-clock across machines.

``--check`` also verifies the recorded baseline still exists, covers
every gated workload, and passed its own budget when written — so a
regression snuck in via ``--write`` fails loudly too.

The wall-clock gate cannot see a small change in what the recorder
writes, so ``--check`` also gates the recorder's cost exactly: the
number of records the engine ring receives per run (``FlightRing.seq``)
must equal the recorded ``ring_records`` of each workload. A doubled or
dropped emit fails it, on any machine.

Usage (from the repo root, ``PYTHONPATH=src``)::

    python -m benchmarks.obs_microbench --write   # refresh the baseline
    python -m benchmarks.obs_microbench --check   # CI gate (default)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, Set, Tuple

from repro.core import EngineConfig, ParulelEngine
from repro.programs import REGISTRY

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "results", "BENCH_obs.json"
)

#: The acceptance criterion: recorder-on wall time within 5% of
#: recorder-off, plus an absolute floor for scheduler noise on runs whose
#: total wall time is tens of milliseconds.
RELATIVE_BUDGET = 0.05
ABSOLUTE_SLACK = 0.050  # seconds

#: Min-of-N repetitions. These workloads finish in tens of milliseconds,
#: so a generous N is cheap and keeps the recorded ratio honest (at N=5
#: a single noisy "off" rep can inflate the ratio well past the real
#: sub-1% cost).
REPS = 15
WORKLOADS = ("tc", "manners")

#: Ring appends for the throughput probe (fixed-cost claim, advisory).
APPEND_PROBE = 100_000


def _run_once(workload_name: str, recorder: bool) -> Tuple[float, int]:
    """Wall time of one run, and the records its engine ring received
    (0 with the recorder off)."""
    workload = REGISTRY[workload_name]()
    engine = ParulelEngine(
        workload.program, EngineConfig(flight_recorder=recorder)
    )
    try:
        workload.setup(engine)
        t0 = time.perf_counter()
        engine.run()
        elapsed = time.perf_counter() - t0
        assert workload.verify_ok(engine.wm)
        records = engine.flightrec.ring.seq if recorder else 0
    finally:
        engine.close()
    return elapsed, records


def _best(workload_name: str, recorder: bool) -> Tuple[float, Set[int]]:
    """Min-of-N wall time, and the distinct ring-record counts seen."""
    runs = [_run_once(workload_name, recorder) for _ in range(REPS)]
    return min(t for t, _ in runs), {n for _, n in runs}


def _append_throughput() -> Dict:
    """Raw ring-append cost: ns per record, shared ring then local."""
    from repro.obs.flightrec import FlightRing

    out: Dict = {}
    for shared, label in ((True, "shared"), (False, "local")):
        ring = FlightRing(capacity=4096, shared=shared)
        try:
            t0 = time.perf_counter_ns()
            for i in range(APPEND_PROBE):
                ring.append(3, i, code=1, a=i)
            out[f"{label}_ns_per_append"] = round(
                (time.perf_counter_ns() - t0) / APPEND_PROBE, 1
            )
        finally:
            ring.close()
    return out


def measure() -> Dict:
    out: Dict = {"workloads": {}}
    for name in WORKLOADS:
        off, _ = _best(name, recorder=False)
        on, records = _best(name, recorder=True)
        budget = off * (1 + RELATIVE_BUDGET) + ABSOLUTE_SLACK
        out["workloads"][name] = {
            "off_s": round(off, 4),
            "on_s": round(on, 4),
            "ratio": round(on / off, 3) if off > 0 else 1.0,
            "within_budget": on <= budget,
            # A deterministic run writes the same records every time; more
            # than one count is itself a failure (recorded as a list).
            "ring_records": records.pop() if len(records) == 1 else sorted(records),
        }
    out["append"] = _append_throughput()
    return out


def report(current: Dict) -> None:
    header = (
        f"{'workload':<10} {'off s':>8} {'on s':>8} {'ratio':>7} {'gate':>6} "
        f"{'records':>8}"
    )
    print(header)
    print("-" * len(header))
    for name, row in current["workloads"].items():
        verdict = "ok" if row["within_budget"] else "FAIL"
        print(
            f"{name:<10} {row['off_s']:>8.4f} {row['on_s']:>8.4f} "
            f"{row['ratio']:>6.3f}x {verdict:>6} {str(row['ring_records']):>8}"
        )
    append = current["append"]
    print(
        f"ring append: {append['shared_ns_per_append']}ns/record shared, "
        f"{append['local_ns_per_append']}ns/record local"
    )


def check(current: Dict, baseline: Dict) -> int:
    failures = []
    for name, row in current["workloads"].items():
        if not row["within_budget"]:
            failures.append(
                f"{name}: recorder-on best {row['on_s']}s exceeds "
                f"recorder-off {row['off_s']}s + {RELATIVE_BUDGET:.0%} "
                f"budget (+{ABSOLUTE_SLACK}s slack)"
            )
    base_wl = baseline.get("workloads", {})
    for name in WORKLOADS:
        base_row = base_wl.get(name)
        if base_row is None:
            failures.append(
                f"{name}: missing from baseline (re-run --write)"
            )
        elif not base_row.get("within_budget"):
            failures.append(
                f"{name}: recorded baseline itself failed the budget "
                f"(ratio {base_row.get('ratio')}x) — fix, then --write"
            )
        else:
            got = current["workloads"][name]["ring_records"]
            want = base_row.get("ring_records")
            if got != want:
                failures.append(
                    f"{name}: engine ring received {got} records per run, "
                    f"recorded {want} — an emit was doubled or dropped "
                    f"(after an intentional change, --write)"
                )
    if failures:
        print("\nOBS GATE FAILED:")
        for line in failures:
            print(f"  - {line}")
        return 1
    print(
        "\nobs gate OK: flight-recorder overhead within budget, ring "
        "records per run as recorded"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--write", action="store_true", help="refresh the baseline JSON"
    )
    mode.add_argument(
        "--check",
        action="store_true",
        help="gate against the budget (default)",
    )
    args = parser.parse_args(argv)

    current = measure()
    report(current)

    if args.write:
        os.makedirs(os.path.dirname(BASELINE_PATH), exist_ok=True)
        with open(BASELINE_PATH, "w") as fh:
            json.dump(current, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {BASELINE_PATH}")
        return 0 if all(
            row["within_budget"] for row in current["workloads"].values()
        ) else 1

    if not os.path.exists(BASELINE_PATH):
        print(f"no baseline at {BASELINE_PATH}; run with --write first")
        return 1
    with open(BASELINE_PATH) as fh:
        baseline = json.load(fh)
    return check(current, baseline)


if __name__ == "__main__":
    sys.exit(main())
