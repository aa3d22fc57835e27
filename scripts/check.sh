#!/usr/bin/env bash
# The one gate CI and humans both run: tier-1 tests + the porting lint.
#
#   scripts/check.sh            # fast gate (tier-1 tests minus slow
#                               # process-killing tests, lint smoke)
#   scripts/check.sh --faults   # additionally run the full fault-injection
#                               # and recovery suite (kills/SIGSTOPs real
#                               # workers; per-test SIGALRM timeouts keep a
#                               # recovery bug from hanging the gate)
#   scripts/check.sh --bench    # additionally regenerate the experiment
#                               # tables/figures under benchmarks/results/
#                               # and fail if a simulated-tick table changed
#   scripts/check.sh --resilience  # additionally run the live-recovery
#                               # chaos differential (seeded SIGKILLs +
#                               # checkpoint truncation + segment unlinks
#                               # must recover byte-identically) for both
#                               # WM backends, plus the shm-leak check
#   scripts/check.sh --obs      # additionally run the full observability
#                               # suite (flight recorder, blackbox decode,
#                               # metrics HTTP) and the recorder-overhead
#                               # benchmark gate vs BENCH_obs.json
#   scripts/check.sh --analysis # additionally gate the commutativity
#                               # detector: per-pair verdicts over every
#                               # bundled workload must match the golden
#                               # file, and the certified fast path +
#                               # race sanitizer must run clean on tc
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests (fast gate: slow worker-kill tests excluded)"
python -m pytest -x -q -m "not slow"

echo "== porting lint (bundled workloads)"
python -m repro.tools.lint

echo "== static analysis (bundled workloads)"
# 'parulel analyze' exits 1 when any error-severity PAxxx diagnostic fires;
# on failure re-run with --json (flat machine JSON) so the log shows the
# exact regressing code.
python -m repro.cli analyze --no-hints || {
    echo "static analysis found error-severity diagnostics; JSON follows:"
    python -m repro.cli analyze --json
    exit 1
}

echo "== one emit point (no sink guards in the engine or the backends)"
# The engine and the backends emit through repro.obs.emit.Obs, which alone
# knows which sinks (phase timer, tracer, metrics, flight ring) are
# attached. Fail when sink guards creep back into their code; the budget
# is 5 lines in total (0 when the emit point was introduced).
GUARD_BUDGET=5
GUARDS="$(grep -nE '\.enabled|flightrec is not None|\bfr is not None|\bif obs\b|if self\._obs\b' \
    src/repro/core/engine.py \
    src/repro/parallel/{process,threaded,distributed}.py || true)"
N_GUARDS="$(printf '%s' "$GUARDS" | grep -c . || true)"
if (( N_GUARDS > GUARD_BUDGET )); then
    echo "$N_GUARDS sink guards (budget $GUARD_BUDGET); emit through repro.obs.emit.Obs instead:"
    echo "$GUARDS"
    exit 1
fi
echo "sink guards: $N_GUARDS (budget $GUARD_BUDGET)"

echo "== observability gate (trace + metrics artifacts validate)"
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
python -m repro.cli run examples/tc.pl --facts examples/tc.facts \
    --matcher process --workers 2 \
    --trace-out "$OBS_TMP/tc.trace.json" \
    --metrics-out "$OBS_TMP/tc.metrics.json" >/dev/null
python - "$OBS_TMP" <<'PYEOF'
import json, sys
from repro.obs import validate_chrome_trace

tmp = sys.argv[1]
doc = json.load(open(f"{tmp}/tc.trace.json"))
validate_chrome_trace(doc)
lanes = {e["args"]["name"] for e in doc["traceEvents"] if e["name"] == "thread_name"}
assert "engine" in lanes and any(l.startswith("worker-") for l in lanes), lanes
metrics = json.load(open(f"{tmp}/tc.metrics.json"))
assert metrics["counters"]["parulel_cycles_total"] > 0, metrics["counters"]
assert metrics["counters"]["parulel_firings_total"] > 0, metrics["counters"]
print(f"trace OK ({len(doc['traceEvents'])} events, lanes: {sorted(lanes)}); "
      f"metrics OK ({len(metrics['counters'])} counters)")
PYEOF

echo "== observability overhead benchmark (enabled tracing within 5%)"
python -m pytest tests/obs/test_overhead.py -q

echo "== match-kernel perf gate (deterministic join counters vs baseline)"
# Gates on the byte-stable join_probes/join_checks counters recorded in
# benchmarks/results/BENCH_match.json; wall-clock is advisory. After an
# intentional match-kernel change, refresh with:
#   python -m benchmarks.match_microbench --write
python -m benchmarks.match_microbench --check

echo "== working-memory store gate (columnar vs dict: bytes + identity)"
# Gates on the columnar store's IPC byte advantage, the vectorized
# column-scan probe kernel (>=5x fewer WME materializations per cycle, a
# recorded refresh+match latency win over the object path, per-cycle
# match summaries byte-identical), and engine identity across dict /
# columnar / --no-vector-probe plus the full 9-workload sweep — all
# recorded in benchmarks/results/BENCH_wm.json; wall-clock is advisory.
# After an intentional WM/IPC/probe-kernel change, refresh with:
#   python -m benchmarks.wm_microbench --write           (gate tier)
#   python -m benchmarks.wm_microbench --write --full    (+ million tier
#                                                         + workload sweep)
python -m benchmarks.wm_microbench --check
# Shared-memory segments are unlinked by ColumnarWorkingMemory.close(),
# a pid-guarded finalizer, and the stdlib resource tracker — but a
# SIGKILLed *parent* can still strand named segments. The janitor sweeps
# any left by this gate's own runs so repeated CI runs cannot fill
# /dev/shm; it is safe by construction (segments whose embedded owner pid
# is alive, or that any live process has mapped, are kept).
python -m repro.cli janitor

if [[ "${1:-}" == "--faults" ]]; then
    echo "== fault-injection/recovery suite (slow tests included)"
    python -m pytest tests/faults tests/core/test_checkpoint.py tests/resilience -q
fi

if [[ "${1:-}" == "--resilience" ]]; then
    echo "== resilience suite (checkpoints, supervision, janitor)"
    python -m pytest tests/resilience -q
    echo "== chaos differential (crash + corruption -> byte-identical recovery)"
    for seed in 0 1; do
        python -m repro.resilience.chaos --workload tc --backend dict --seed "$seed"
        python -m repro.resilience.chaos --workload tc --backend columnar --seed "$seed"
    done
    # The chaos runs above include the janitor leg (orphaned-segment
    # reclamation after a SIGKILLed columnar owner); fail loudly if
    # anything pwm* is still both present and unowned afterwards.
    LEFT="$(python -m repro.cli janitor)"
    if [[ -n "$LEFT" ]]; then
        echo "chaos runs leaked shared-memory segments:"; echo "$LEFT"; exit 1
    fi
fi

if [[ "${1:-}" == "--obs" ]]; then
    echo "== observability suite (flight recorder, blackbox, metrics HTTP)"
    python -m pytest tests/obs -q
    echo "== flight-recorder overhead gate (recorder-on within budget)"
    # Gates fresh on-vs-off wall time for tc/manners against the budget
    # recorded in benchmarks/results/BENCH_obs.json; after an intentional
    # recorder change, refresh with:
    #   python -m benchmarks.obs_microbench --write
    python -m benchmarks.obs_microbench --check
fi

if [[ "${1:-}" == "--analysis" ]]; then
    echo "== commutativity verdicts (bundled workloads vs golden file)"
    # Per-pair COMMUTES/RACES/UNKNOWN verdicts recorded in
    # benchmarks/results/COMMUTE_verdicts.json; after an intentional
    # detector or workload change, refresh with:
    #   python -m repro.analysis.commute --write
    # (-c import avoids runpy's found-in-sys.modules warning: the package
    # __init__ imports the module eagerly)
    python -c "from repro.analysis.commute import main; raise SystemExit(main(['--check']))"
    echo "== certified fast path + race sanitizer smoke (tc, waltz demos)"
    python -m repro.cli run examples/tc.pl --facts examples/tc.facts \
        --certified-commute --sanitize-races >/dev/null
    python -m pytest tests/core/test_certified_commute.py -q
fi

if [[ "${1:-}" == "--bench" ]]; then
    echo "== experiment suite (regenerates benchmarks/results/)"
    python -m pytest benchmarks/ -q --benchmark-only
    echo "== simulated-tick results unchanged"
    # These tables are cost-model ticks, deterministic, so any change is a
    # behaviour change: fail on it. Wall-clock tables stay advisory. After
    # an intentional cost-model change, commit the regenerated tables.
    git diff --exit-code -- \
        benchmarks/results/{fig1_speedup,fig2_copy_constrain,fig5_distributed,fig6_faults,ablation1_partition,ablation4_multicast,ablation6_analysis_partition}.{csv,txt}
fi

echo "check.sh: all gates passed"
