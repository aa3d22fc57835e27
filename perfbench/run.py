"""End-to-end and per-layer benchmark of the PARULEL engine.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tc-rete --seed 1 --seconds 40 --trace 0

One client in one process runs the workload to quiescence, checks the
result, releases the engine, and starts the next repetition (a closed
loop), until ``--seconds`` have passed. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` interleaves untraced, traced and
recorder-off repetitions and reports the per-layer split (see README.md).
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no repro sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from repro.core import ParulelEngine  # noqa: E402
from repro.lang import parse_program  # noqa: E402
from repro.obs.flightrec import FLIGHT_PREFIX  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.obs.profile import RULE_MATCH_SECONDS  # noqa: E402
from repro.wm.columnar import SEGMENT_PREFIX, parse_owner_pid  # noqa: E402

from layers import LayerTrace  # noqa: E402
from workloads import WORKLOADS, Inputs, digest  # noqa: E402

#: Crash dumps (written only on an abnormal exit) stay in the checkout.
BLACKBOX_DIR = ROOT / ".perfbench"
SHM_DIR = Path("/dev/shm")
#: Set-up-only samples taken before each timed repetition, so that
#: ``setup_s`` is the fastest of many set-ups.
SETUPS_PER_REP = 4
MATCH_COUNTERS = (
    "alpha_tests", "join_probes", "join_checks", "tokens", "instantiations", "retractions",
)

E2E_UNITS = {
    "setup_s": "s",
    "firings_per_s": "1/s",
    "cycle_p50_ms": "ms",
    "cycle_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Rep:
    """One repetition: timings, counts and whether its output was right."""

    setup_s: float = 0.0
    run_s: float = 0.0
    cycle_s: List[float] = field(default_factory=list)
    firings: int = 0
    match_totals: Dict[str, int] = field(default_factory=dict)
    #: The layer trace's (self, inclusive, counts) at quiescence.
    layers: Any = None
    ok: bool = False
    error: str = ""
    digest: str = ""

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s


def leaked_segments() -> List[str]:
    """Columnar (``pwm``) and flight-ring (``pfr``) segments this process
    still owns."""
    pid = os.getpid() & 0xFFFFFFFF
    return [
        name
        for name in os.listdir(SHM_DIR)
        for prefix in (SEGMENT_PREFIX, FLIGHT_PREFIX)
        if parse_owner_pid(name, prefix) == pid
    ]


def run_rep(
    inputs: Inputs,
    trace: Optional[LayerTrace] = None,
    metrics: Optional[MetricsRegistry] = None,
    steps: bool = True,
    **config: Any,
) -> Rep:
    """Parse, build, load, step to quiescence; then check outside the
    timed region. The digest is compared with the reference later, by
    :func:`check_reference`. With ``steps=False`` it is a set-up sample:
    the engine is closed without stepping and only ``setup_s`` is timed."""
    span = trace.span if trace is not None else _call
    cfg = inputs.config(blackbox_path=str(BLACKBOX_DIR / "engine.blackbox"), **config)
    rep = Rep()
    engine = None
    perf = time.perf_counter
    try:
        t0 = perf()
        program = span("lang.parse", parse_program, inputs.program_text)
        engine = ParulelEngine(program, cfg, metrics=metrics)
        span("wm.load", _load, engine, inputs.facts)
        rep.setup_s = perf() - t0
        problems = _step_and_check(engine, inputs, rep, trace) if steps else []
        engine.close()
        engine = None
        leaked = leaked_segments()
        if leaked:
            problems.append(f"segments left behind: {leaked}")
        rep.error = "; ".join(problems)
        rep.ok = not problems
    except Exception as exc:  # noqa: BLE001 - a failed repetition is counted, not fatal
        rep.error = f"{type(exc).__name__}: {exc}"
    finally:
        if engine is not None:
            engine.close()
    return rep


def _step_and_check(
    engine: ParulelEngine, inputs: Inputs, rep: Rep, trace: Optional[LayerTrace]
) -> List[str]:
    """Step ``engine`` to quiescence, timing each cycle into ``rep``, and
    return what is wrong with the result."""
    perf = time.perf_counter
    step, cycle_s, firings = engine.step, rep.cycle_s, 0
    t1 = perf()
    while True:
        c0 = perf()
        report = step()
        c1 = perf()
        if report is None:
            break
        cycle_s.append(c1 - c0)
        firings += report.fired
        if report.halted or report.fired == 0:
            break
    rep.run_s, rep.firings = perf() - t1, firings
    totals = engine.matcher.stats.totals
    rep.match_totals = {name: totals[name] for name in MATCH_COUNTERS}
    if trace is not None:
        rep.layers = trace.snapshot()
    rep.digest = digest(engine)
    problems = []
    if not inputs.verify(engine.wm):
        problems.append("verify failed")
    if len(cycle_s) != inputs.expected_cycles:
        problems.append(f"{len(cycle_s)} cycles, expected {inputs.expected_cycles}")
    if firings != inputs.expected_firings:
        problems.append(f"{firings} firings, expected {inputs.expected_firings}")
    return problems


def check_reference(reps: List[Rep], reference: str) -> None:
    for rep in reps:
        if rep.ok and rep.digest != reference:
            rep.ok = False
            rep.error = "digest differs from the serial rete reference"


def _call(_name: str, fn: Callable, *args: Any) -> Any:
    return fn(*args)


def _load(engine: ParulelEngine, facts) -> None:
    for cls, attrs in facts:
        engine.make(cls, attrs)


def repetitions(seconds: float, minimum: int = 1) -> Iterator[int]:
    """Repetition numbers for a measuring window of ``seconds``: stop
    before a repetition of the median length so far would overrun it."""
    start = time.perf_counter()
    lengths: List[float] = []
    i = 0
    while i < minimum or time.perf_counter() - start + statistics.median(lengths) <= seconds:
        began = time.perf_counter()
        yield i
        lengths.append(time.perf_counter() - began)
        i += 1


def percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped worker's (KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def fastest_cycles(reps: List[Rep]) -> List[float]:
    """Each cycle's fastest wall time over the repetitions. Every
    repetition runs the same cycles; the host's slow spells only ever add
    time to some of them, so the fastest of many is the steady estimate of
    a cycle's cost."""
    return [min(times) for times in zip(*(r.cycle_s for r in reps))]


def end_to_end(reps: List[Rep], setups: List[float]) -> Dict[str, float]:
    cycles = fastest_cycles(reps)
    return {
        "setup_s": min(setups),
        "firings_per_s": reps[0].firings / sum(cycles),
        "cycle_p50_ms": percentile(cycles, 50) * 1e3,
        "cycle_p90_ms": percentile(cycles, 90) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }


# -- traced runs -------------------------------------------------------------

def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def layer_values(rep: Rep) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    self_s, total_s, counts = rep.layers
    m = rep.match_totals
    insts_made = m["instantiations"] or counts["ipc.reply_insts"]
    return {
        "lang.parse_s": total_s.get("lang.parse", 0.0),
        "match.compile_s": total_s.get("match.compile", 0.0),
        "engine.init_s": total_s.get("engine.init", 0.0),
        "wm.load_s": total_s.get("wm.load", 0.0),
        "wm.mutate_s": self_s.get("wm.mutate", 0.0),
        "wm.makes": counts["wm.makes"],
        "wm.removes": counts["wm.removes"],
        "match.propagate_s": self_s.get("match.propagate", 0.0),
        "match.collect_s": total_s.get("match.collect", 0.0),
        **{f"match.{name}": m[name] for name in MATCH_COUNTERS},
        "match.fire_ratio": rep.firings / insts_made if insts_made else 0.0,
        "redact.self_s": self_s.get("redact", 0.0),
        "redact.meta_propagate_s": self_s.get("redact.meta_propagate", 0.0),
        "redact.meta_evaluate_s": self_s.get("redact.meta_evaluate", 0.0),
        "redact.candidates": counts["redact.candidates"],
        "redact.redacted": counts["redact.redacted"],
        "redact.survivor_ratio": (
            counts["redact.survivors"] / counts["redact.candidates"]
            if counts["redact.candidates"] else 0.0
        ),
        "act.evaluate_s": self_s.get("act.evaluate", 0.0),
        "act.firings": counts["act.firings"],
        "merge.s": self_s.get("merge", 0.0),
        "merge.conflicts_resolved": counts["merge.conflicts_resolved"],
        "merge.makes_deduped": counts["merge.makes_deduped"],
        "pool.conflict_set_s": total_s.get("pool.conflict_set", 0.0),
        "pool.rebuild_s": self_s.get("pool.conflict_set", 0.0),
        "pool.index_s": self_s.get("pool.index", 0.0),
        "ipc.send_s": self_s.get("ipc.send", 0.0),
        "ipc.wait_s": self_s.get("ipc.wait", 0.0),
        "ipc.recv_s": self_s.get("ipc.recv", 0.0),
        "ipc.request_bytes": counts["ipc.request_bytes"],
        "ipc.reply_bytes": counts["ipc.reply_bytes"],
        "ipc.reply_insts": counts["ipc.reply_insts"],
        "ipc.reply_new_ratio": (
            counts["ipc.reply_new"] / counts["ipc.reply_insts"]
            if counts["ipc.reply_insts"] else 0.0
        ),
        "obs.flight_records": counts["obs.flight_records"],
        "gc.pause_s": self_s.get("gc", 0.0),
        "gc.collections": counts["gc.collections"],
        "engine.residual_s": rep.wall_s - sum(self_s.values()),
    }


#: Counters that must repeat bit-for-bit across repetitions of one seed.
EXACT = (
    *(f"match.{name}" for name in MATCH_COUNTERS),
    "wm.makes", "wm.removes", "redact.candidates", "redact.redacted",
    "act.firings", "merge.conflicts_resolved", "merge.makes_deduped",
    "ipc.request_bytes", "ipc.reply_bytes", "ipc.reply_insts", "obs.flight_records",
)


def traced_run(inputs: Inputs, seconds: float):
    """Interleave untraced, traced and recorder-off repetitions (plus, on
    the process path, one with a metrics registry for the workers' match
    time) until ``seconds`` pass and every variant ran at least once."""
    variants = ["plain", "traced", "recorder_off"]
    if inputs.config().matcher.startswith("process"):
        variants.append("registry")
    walls: Dict[str, List[float]] = {v: [] for v in variants}
    layers: List[Dict[str, float]] = []
    worker_match: List[float] = []
    reps: List[Rep] = []
    for i in repetitions(seconds, minimum=len(variants)):
        variant = variants[i % len(variants)]
        gc.collect()
        if variant == "traced":
            trace = LayerTrace()
            trace.install(inputs.config().wm_backend)
            try:
                rep = run_rep(inputs, trace)
            finally:
                trace.uninstall()
            if rep.layers is not None:
                values = layer_values(rep)
                if rep.ok and layers and any(values[k] != layers[0][k] for k in EXACT):
                    rep.ok = False
                    rep.error = "exact counters differ between repetitions"
                layers.append(values)
        elif variant == "registry":
            registry = MetricsRegistry()
            rep = run_rep(inputs, metrics=registry)
            worker_match.append(sum(
                s["sum"] for s in registry.histogram_series(RULE_MATCH_SECONDS).values()
            ))
        else:
            rep = run_rep(inputs, flight_recorder=variant != "recorder_off")
        reps.append(rep)
        walls[variant].append(rep.wall_s)
    if not layers:
        return reps, {}
    out = {k: statistics.median(v[k] for v in layers) for k in layers[0]}
    for k in EXACT:
        out[k] = layers[0][k]
    plain = statistics.median(walls["plain"])
    out["worker.match_s"] = statistics.median(worker_match) if worker_match else 0.0
    out["obs.recorder_overhead_ratio"] = plain / statistics.median(walls["recorder_off"])
    out["trace.overhead_ratio"] = statistics.median(walls["traced"]) / plain
    return reps, out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    inputs = WORKLOADS[args.workload](args.seed)
    BLACKBOX_DIR.mkdir(exist_ok=True)
    serial = {"matcher": "rete", "wm_backend": "dict"}
    # An untimed warm-up repetition on the path under test. When that path
    # is serial rete it is also the reference; otherwise the serial rete
    # reference runs after the timed loop, so its memory does not count
    # towards the measured path's peak RSS.
    warmup = run_rep(inputs)
    if inputs.config() == inputs.config(**serial):
        reference: Optional[Rep] = warmup
    else:
        reference = None

    if args.trace:
        reps, metrics = traced_run(inputs, args.seconds)
        setups = []
        units = {k: _unit(k) for k in metrics}
    else:
        reps, setups = [], []
        for _ in repetitions(args.seconds):
            for _ in range(SETUPS_PER_REP):
                gc.collect()
                setups.append(run_rep(inputs, steps=False))
            gc.collect()
            reps.append(run_rep(inputs))
        timed = [r for r in reps if r.run_s > 0]
        setup_times = [r.setup_s for r in (*setups, *timed) if r.setup_s > 0]
        metrics = end_to_end(timed, setup_times) if timed else {}
        units = E2E_UNITS
    if reference is None:
        gc.collect()
        reference = run_rep(inputs, **serial)
    if not reference.ok:
        print(f"reference run failed: {reference.error}", file=sys.stderr)
    check_reference([warmup, *reps], reference.digest)
    if not warmup.ok:
        print(f"warm-up repetition failed: {warmup.error}", file=sys.stderr)
    for i, rep in enumerate(reps, 1):
        if not rep.ok:
            print(f"repetition {i} failed: {rep.error}", file=sys.stderr)
    for i, rep in enumerate(setups, 1):
        if not rep.ok:
            print(f"set-up {i} failed: {rep.error}", file=sys.stderr)
    if not metrics:
        print("no repetition completed", file=sys.stderr)
        return 1

    attempted = len(reps) + len(setups)
    failed = sum(not r.ok for r in (*reps, *setups))
    print(f"workload {inputs.name}: {inputs.size}; seed {args.seed}")
    print(
        f"repetitions {len(reps)} (+{len(setups)} set-up only), failed {failed}, "
        f"failed_ratio {failed / attempted:.4f}, "
        f"cycles/rep {inputs.expected_cycles}, firings/rep {inputs.expected_firings}, "
        f"cycle samples {sum(len(r.cycle_s) for r in reps)}"
    )
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and warmup.ok and reference.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _stop_resource_tracker() -> None:
    """Shared-memory segments start multiprocessing's resource tracker;
    stop it and wait for it, so the benchmark leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        _stop_resource_tracker()
    sys.exit(code)
