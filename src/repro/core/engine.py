"""The PARULEL engine: set-oriented parallel rule firing.

Each cycle of :meth:`ParulelEngine.step`:

1. **Collect** — take the incremental matcher's conflict set, drop
   refracted instantiations (an instantiation — rule + exact WME
   timestamps — fires at most once);
2. **Redact** — run the meta-program over the reified candidates
   (:class:`~repro.core.redaction.MetaLevel`); the survivors form the
   *firing set*;
3. **Evaluate** — run every survivor's RHS against the pre-firing snapshot
   (:class:`~repro.core.actions.ActionEvaluator`); nothing is applied yet,
   so firings cannot observe each other — the defining property of
   PARULEL's parallel semantics;
4. **Apply** — merge the per-firing deltas under the configured
   interference policy (:func:`~repro.core.delta.merge_deltas`) and commit
   the result atomically; the incremental matchers update as the WMEs flow.

The run ends at *quiescence* (no unrefracted instantiations), at
*redaction quiescence* (every candidate redacted — since the engine is
deterministic and working memory did not change, the next cycle would repeat
forever), on ``(halt)``, or at the cycle limit.

Redacted instantiations are **not** refracted: a meta-rule that defers a
firing (e.g. "the larger region wins this cycle") lets it fire in a later
cycle if it is still matched — deferral, not deletion, matching the
published description of PARULEL's meta level.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import CommuteViolationError, CycleLimitExceeded, ExecutionError
from repro.core.actions import ActionEvaluator, HostFunction, InstantiationDelta
from repro.core.delta import CycleDelta, InterferencePolicy, merge_deltas
from repro.core.provenance import ProvenanceTracker
from repro.core.redaction import MetaLevel, RedactionReport
from repro.faults import FaultEvent, FaultPlan
from repro.lang.analysis import analyze_program
from repro.lang.ast import Program, Value
from repro.match.instantiation import InstKey, Instantiation
from repro.match.interface import Matcher, create_matcher
from repro.obs.emit import Obs
from repro.obs.events import DEATH_KINDS
from repro.wm.memory import WorkingMemory
from repro.wm.template import TemplateRegistry
from repro.wm.wme import WME

__all__ = ["ParulelEngine", "EngineConfig", "CycleReport", "RunResult"]

#: Checkpoint format version (bumped on incompatible layout changes).
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the PARULEL engine.

    ``matcher`` / ``meta_matcher`` name the match engines (``rete``,
    ``treat``, ``naive``). ``interference`` picks the
    :class:`~repro.core.delta.InterferencePolicy`. ``dedupe_makes``
    collapses identical makes within one cycle (set-insertion reading).
    """

    matcher: str = "rete"
    meta_matcher: str = "rete"
    #: Hash-indexed join kernel (indexed alpha memories + join planning)
    #: for the enumerator-based matchers; ``False`` is the ``--no-index``
    #: nested-loop escape hatch. Semantics are identical either way.
    indexed_match: bool = True
    #: Vectorized column-scan probe kernel for ``process`` workers over a
    #: columnar store (probes evaluated on packed shared-memory columns,
    #: WMEs materialized lazily); ``False`` is the ``--no-vector-probe``
    #: escape hatch back to the object-replica path. Semantics are
    #: identical either way; ignored outside process+columnar.
    vector_probe: bool = True
    interference: InterferencePolicy = InterferencePolicy.ERROR
    dedupe_makes: bool = True
    max_cycles: int = 100_000
    max_meta_cycles: int = 1000
    #: Record a :class:`~repro.core.provenance.Derivation` for every WME,
    #: enabling ``engine.explain(wme)``. Off by default (memory cost).
    track_provenance: bool = False
    #: Process-backend knobs (``matcher="process"`` only): per-worker reply
    #: deadline in seconds, per-site respawn budget before graceful
    #: degradation, and an injected :class:`~repro.faults.FaultPlan`.
    matcher_timeout: Optional[float] = None
    respawn_limit: Optional[int] = None
    fault_plan: Optional[FaultPlan] = None
    #: Supervision policy for the process backend
    #: (:class:`~repro.resilience.supervisor.SupervisorPolicy`): heartbeat
    #: probes, seeded respawn backoff, per-site circuit breaker, and the
    #: process → threaded → serial degradation ladder with re-promotion.
    #: ``None`` keeps the legacy behaviour (immediate respawns, permanent
    #: degradation straight to in-parent serial).
    supervisor: Optional[object] = None
    #: Rule-to-worker assignment policy for the process backend:
    #: ``"round-robin"`` (default), ``"analysis"`` (the static analyzer's
    #: connectivity-minimizing partition), or a concrete
    #: :class:`~repro.parallel.partition.Assignment`.
    assignment: Optional[object] = None
    #: Working-memory store: ``"dict"`` (the default in-process store) or
    #: ``"columnar"`` (:class:`~repro.wm.columnar.ColumnarWorkingMemory`,
    #: shared-memory columns the process backend attaches instead of
    #: receiving pickled deltas). Semantics are identical either way.
    wm_backend: str = "dict"
    #: Certified redaction fast path: skip reifying conflict-set candidates
    #: whose rules the commute analysis proved invisible to every meta-rule
    #: and commuting (statically or by concrete pair replay) with every
    #: other candidate. Results are byte-identical; the skipped work is
    #: reported via ``parulel_redaction_skipped_total``.
    certified_commute: bool = False
    #: Runtime race sanitizer: after evaluating each cycle's firing set,
    #: replay every fired pair in both orders on a shadow of the deltas and
    #: raise :class:`~repro.errors.CommuteViolationError` if a pair the
    #: analysis certified as COMMUTES diverges. A dynamic cross-check of
    #: the static verdicts; replays are counted via
    #: ``parulel_sanitizer_replays_total``.
    sanitize_races: bool = False
    #: Always-on black-box flight recorder (:mod:`repro.obs.flightrec`):
    #: bounded shared-memory event rings written by the engine and every
    #: match worker, dumped to a ``*.blackbox`` post-mortem file on any
    #: abnormal exit. ``False`` is the ``--no-flight-recorder`` escape
    #: hatch; the measured overhead budget on tc is 5% (``check.sh --obs``).
    flight_recorder: bool = True
    #: Where crash dumps land; ``None`` means a pid-keyed file under the
    #: temp dir (:func:`repro.obs.flightrec.default_blackbox_path`).
    blackbox_path: Optional[str] = None
    #: Ring capacity in records (per ring — the engine's and each worker's).
    flight_capacity: int = 4096

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "interference", InterferencePolicy.of(self.interference)
        )
        if self.matcher_timeout is not None and self.matcher_timeout <= 0:
            raise ValueError("matcher_timeout must be > 0 seconds")
        if self.respawn_limit is not None and self.respawn_limit < 0:
            raise ValueError("respawn_limit must be >= 0 (None for unlimited)")
        if self.wm_backend not in ("dict", "columnar"):
            raise ValueError(
                f"unknown wm_backend {self.wm_backend!r} "
                f"(expected 'dict' or 'columnar')"
            )
        if self.certified_commute and not self.dedupe_makes:
            raise ValueError(
                "certified_commute requires dedupe_makes=True (the pair "
                "replays mirror the set-insertion merge)"
            )
        if self.flight_capacity < 16:
            raise ValueError("flight_capacity must be >= 16 records")


def _build_wm(config: "EngineConfig", program: Program) -> WorkingMemory:
    """The working-memory store the config asks for. Imported lazily so the
    default dict path never touches :mod:`multiprocessing.shared_memory`."""
    templates = TemplateRegistry.from_program(program)
    if config.wm_backend == "columnar":
        from repro.wm.columnar import ColumnarWorkingMemory

        return ColumnarWorkingMemory(templates)
    return WorkingMemory(templates)


@dataclass
class CycleReport:
    """Everything one cycle did — the unit of engine instrumentation."""

    cycle: int
    conflict_set_size: int
    candidates: int
    redaction: RedactionReport
    fired: int
    delta_removes: int
    delta_makes: int
    conflicts_resolved: int
    makes_deduped: int
    #: Every ``(write ...)`` line the cycle emitted — meta-level writes
    #: first (redaction phase), then the merged object-level writes.
    writes: List[str] = field(default_factory=list)
    halted: bool = False
    #: Fault/recovery events the match backend reported this cycle
    #: (worker respawns, degradations, injected kills/wedges).
    fault_events: List[FaultEvent] = field(default_factory=list)


@dataclass
class RunResult:
    """Summary of one :meth:`ParulelEngine.run` call.

    All fields — including ``output`` — cover only this call: repeated
    ``run()`` calls on one engine each report their own slice, while the
    engine's ``output``/``reports`` attributes stay cumulative.
    """

    cycles: int
    firings: int
    reason: str  # 'quiescence' | 'redaction-quiescence' | 'halt' | 'cycle-limit'
    output: List[str]
    reports: List[CycleReport]
    wall_time: float
    phase_times: Counter

    @property
    def halted(self) -> bool:
        return self.reason == "halt"

    @property
    def firing_set_sizes(self) -> List[int]:
        return [r.fired for r in self.reports]

    @property
    def mean_firing_set(self) -> float:
        sizes = [s for s in self.firing_set_sizes if s]
        return sum(sizes) / len(sizes) if sizes else 0.0


class ParulelEngine:
    """The set-oriented, meta-rule-redacting production-system engine."""

    def __init__(
        self,
        program: Program,
        config: Optional[EngineConfig] = None,
        host_functions: Optional[Mapping[str, HostFunction]] = None,
        wm: Optional[WorkingMemory] = None,
        trace: Optional[Callable[[CycleReport], None]] = None,
        tracer=None,
        metrics=None,
        matcher: Optional[Matcher] = None,
    ) -> None:
        analyze_program(program)
        self.program = program
        self.config = config or EngineConfig()
        #: The one observability emit point (:mod:`repro.obs.emit`), shared
        #: with the match backend: the tracer and metrics registry given
        #: here (no-op singletons by default) plus the always-on black-box
        #: flight recorder (``None`` only with ``flight_recorder=False``,
        #: in which case the shared-memory ring module is never imported).
        recorder = None
        if self.config.flight_recorder:
            from repro.obs.flightrec import FlightRecorder

            recorder = FlightRecorder(
                [r.name for r in program.rules],
                capacity=self.config.flight_capacity,
            )
        self.obs = Obs(tracer, metrics, recorder)
        self.tracer, self.metrics = self.obs.tracer, self.obs.metrics
        self.flightrec = self.obs.flightrec
        self.wm = wm if wm is not None else _build_wm(self.config, program)
        self.evaluator = ActionEvaluator(host_functions)
        # A caller that passes ``matcher`` built it over ``wm`` itself (the
        # cost-model machines pass their site-partitioned matcher).
        if matcher is None:
            matcher_options: Dict[str, Any] = {}
            if self.config.matcher_timeout is not None:
                matcher_options["timeout"] = self.config.matcher_timeout
            if self.config.respawn_limit is not None:
                matcher_options["respawn_limit"] = self.config.respawn_limit
            if self.config.fault_plan is not None:
                matcher_options["fault_plan"] = self.config.fault_plan
            if self.config.supervisor is not None:
                matcher_options["supervisor"] = self.config.supervisor
            if self.config.assignment is not None:
                matcher_options["assignment"] = self.config.assignment
            matcher = create_matcher(
                self.config.matcher,
                program.rules,
                self.wm,
                indexed=self.config.indexed_match,
                vector_probe=self.config.vector_probe,
                obs=self.obs,
                **matcher_options,
            )
        self.matcher: Matcher = matcher
        self.meta = MetaLevel(
            program.meta_rules,
            self.wm,
            self.evaluator,
            matcher_name=self.config.meta_matcher,
            max_meta_cycles=self.config.max_meta_cycles,
            indexed=self.config.indexed_match,
        )
        self.trace = trace
        self.provenance: Optional[ProvenanceTracker] = (
            ProvenanceTracker() if self.config.track_provenance else None
        )
        #: Commute-analysis runtime state (built only when a flag asks for
        #: it — the analysis package is never imported otherwise).
        self._commute_index = None
        self._pair_replayer = None
        #: Survivor-key pairs concretely certified during the current
        #: cycle's redact phase (the sanitizer treats them like static
        #: COMMUTES verdicts).
        self._certified_pairs: Set[frozenset] = set()
        if self.config.certified_commute or self.config.sanitize_races:
            from repro.analysis.commute import CommuteIndex
            from repro.core.sanitize import PairReplayer

            self._commute_index = CommuteIndex(program)
            self._pair_replayer = PairReplayer(
                dedupe_makes=self.config.dedupe_makes,
                on_replay=self.obs.replay,
            )
        self.fired: Set[InstKey] = set()
        #: Append-only mirror of :attr:`fired` in firing order, so
        #: incremental checkpoints (:meth:`checkpoint_delta`) can slice
        #: "keys fired since the cursor" without diffing sets.
        self._fired_log: List[InstKey] = []
        self.output: List[str] = []
        self.reports: List[CycleReport] = []
        #: Thread-safe per-phase wall-clock accumulator fed by the phase
        #: spans; ``phase_times`` is a live view of its seconds counter
        #: (the historical public shape).
        self.timer = self.obs.timer
        self.phase_times: Counter = self.timer.seconds
        #: All fault/recovery events surfaced by the match backend,
        #: cumulative across the engine's life (per-cycle slices land on
        #: each :class:`CycleReport`).
        self.fault_events: List[FaultEvent] = []
        #: Per-cycle applied deltas in wire form
        #: ``(removed timestamps, ((class, attrs, timestamp), ...))`` —
        #: the audit trail checkpoints carry and replicas replay.
        self.delta_log: List[Tuple[Tuple[int, ...], Tuple[Tuple[str, Dict[str, Value], int], ...]]] = []
        self.halted = False
        self._cycle = 0
        self._redaction_quiescent = False

    # -- working-memory convenience ------------------------------------------

    def make(self, class_name: str, attrs: Optional[Mapping[str, Value]] = None, **kw: Value) -> WME:
        """Assert an initial/extra WME (outside the firing cycle)."""
        wme = self.wm.make(class_name, attrs, **kw)
        if self.provenance is not None:
            self.provenance.record_initial(wme)
        return wme

    def remove(self, wme: WME) -> None:
        self.wm.remove(wme)

    def register_function(self, name: str, fn: HostFunction) -> None:
        """Expose a host callback to ``(call name ...)`` actions."""
        self.evaluator.register(name, fn)

    # -- the cycle ----------------------------------------------------------------

    def step(self) -> Optional[CycleReport]:
        """Run one recognize-redact-act cycle.

        Returns ``None`` when the system is quiescent (nothing unrefracted
        to fire) — including redaction quiescence, where candidates exist
        but the meta level vetoes all of them and working memory cannot
        change.

        Any exception escaping the cycle (interference, a commute
        violation, checkpoint corruption in a trace callback, ...) first
        triggers a black-box dump, then propagates unchanged.
        """
        try:
            return self._step()
        except Exception as exc:
            self._dump_blackbox(f"{type(exc).__name__}: {exc}")
            raise

    def _step(self) -> Optional[CycleReport]:
        if self.halted or self._redaction_quiescent:
            return None
        obs = self.obs
        cycle_no = self._cycle + 1

        with obs.phase("match", "collect", cycle_no):
            all_insts = self.matcher.instantiations()
            candidates = [i for i in all_insts if i.key not in self.fired]
        # The match phase is where backend faults surface (worker kills,
        # respawns, degradations); drain them now so the report for this
        # cycle carries them even if nothing fires. The backends emit
        # their own fault events at injection time.
        cycle_faults = self._drain_matcher_faults()
        obs.churn(cycle_no, len(all_insts), len(candidates))
        # A worker died (or was declared dead) this cycle: the engine
        # survives by respawn/degradation, but the post-mortem evidence is
        # freshest *now* — dump before the ring slides past it.
        if any(e.kind in DEATH_KINDS for e in cycle_faults):
            kinds = ",".join(sorted({e.kind for e in cycle_faults}))
            self._dump_blackbox(f"worker fault: {kinds}")
        if not candidates:
            return None

        with obs.phase("redact", "redact", cycle_no, candidates=len(candidates)):
            self._certified_pairs = set()
            skip = (
                self._certified_skip(candidates)
                if self.config.certified_commute
                else frozenset()
            )
            survivors, red_report = self.meta.redact(candidates, skip_reify=skip)
        obs.redact(cycle_no, candidates, survivors, red_report, self.matcher.stats)
        meta_writes = list(self.meta.writes)
        self.output.extend(meta_writes)

        self._cycle += 1
        if not survivors:
            # Deterministic engine + unchanged WM ⇒ the next cycle would be
            # identical. Record the cycle and stop.
            self._redaction_quiescent = True
            merged = CycleDelta()
        else:
            # Evaluate every survivor against the pre-firing snapshot.
            deltas: List[InstantiationDelta] = []
            with obs.phase("act", "evaluate", cycle_no, firing_set=len(survivors)):
                perf_ns = time.perf_counter_ns
                for inst in survivors:
                    self.fired.add(inst.key)
                    self._fired_log.append(inst.key)
                    t0 = perf_ns()
                    deltas.append(self.evaluator.evaluate(inst))
                    obs.fire(cycle_no, inst.rule.name, perf_ns() - t0)

            if self.config.sanitize_races and len(deltas) > 1:
                self._sanitize_races(deltas)

            with obs.phase("merge", "apply", cycle_no, deltas=len(deltas)):
                merged = merge_deltas(
                    deltas,
                    policy=self.config.interference,
                    dedupe_makes=self.config.dedupe_makes,
                )
                self._apply(merged, deltas)

        self.output.extend(merged.writes)
        report = CycleReport(
            cycle=self._cycle,
            conflict_set_size=len(all_insts),
            candidates=len(candidates),
            redaction=red_report,
            fired=len(survivors),
            delta_removes=len(merged.removes),
            delta_makes=len(merged.makes),
            conflicts_resolved=merged.conflicts_resolved,
            makes_deduped=merged.makes_deduped,
            writes=meta_writes + list(merged.writes),
            halted=merged.halt or self.meta.halt_requested,
            fault_events=cycle_faults,
        )
        # The one path a report leaves the engine by: recorded, its halt
        # flag applied, the trace callback invoked exactly once.
        self.obs.cycle(report, self.wm)
        self.reports.append(report)
        if report.halted:
            self.halted = True
        if self.trace is not None:
            self.trace(report)
        return report

    def _certified_skip(self, candidates: Sequence[Instantiation]) -> frozenset:
        """1-based ids of candidates whose reification is provably skippable.

        A candidate may skip the meta level iff (1) its rule is *invisible*
        — no ``instantiation`` CE of any meta-rule can match its
        reification, so skipping cannot change any meta match — and (2) it
        commutes with every other candidate, statically (the commute
        analysis proved the rule pair COMMUTES) or concretely (replaying
        the two purely-evaluated deltas in both orders nets the same WM
        effect), so no arbitration between them can matter.
        """
        from repro.core.sanitize import evaluate_delta_pure

        index, replayer = self._commute_index, self._pair_replayer
        assert index is not None and replayer is not None
        n = len(candidates)
        eligible = [
            i for i in range(n) if index.invisible(candidates[i].rule.name)
        ]
        if not eligible:
            return frozenset()

        deltas: Dict[int, Optional[InstantiationDelta]] = {}

        def delta(i: int) -> Optional[InstantiationDelta]:
            if i not in deltas:
                deltas[i] = evaluate_delta_pure(candidates[i])
            return deltas[i]

        pair_cache: Dict[Tuple[int, int], bool] = {}

        def commutes(i: int, j: int) -> bool:
            key = (i, j) if i < j else (j, i)
            got = pair_cache.get(key)
            if got is None:
                a, b = candidates[key[0]], candidates[key[1]]
                if index.statically_commutes(a.rule.name, b.rule.name):
                    got = True
                else:
                    da, db = delta(key[0]), delta(key[1])
                    got = (
                        da is not None
                        and db is not None
                        and replayer.pair_commutes(da, db)
                    )
                    if got:
                        self._certified_pairs.add(frozenset((a.key, b.key)))
                pair_cache[key] = got
            return got

        return frozenset(
            i + 1
            for i in eligible
            if all(commutes(i, j) for j in range(n) if j != i)
        )

    def _sanitize_races(self, deltas: Sequence[InstantiationDelta]) -> None:
        """Replay every fired pair in both orders and hard-fail when a pair
        the analysis certified as commuting diverges — a dynamic
        cross-check of the static verdicts (``--sanitize-races``)."""
        index, replayer = self._commute_index, self._pair_replayer
        assert index is not None and replayer is not None
        for i, da in enumerate(deltas):
            for db in deltas[i + 1 :]:
                self.obs.sanitized_pair()
                if replayer.replay((da, db)) == replayer.replay((db, da)):
                    continue
                a, b = da.inst, db.inst
                certified = index.statically_commutes(
                    a.rule.name, b.rule.name
                ) or frozenset((a.key, b.key)) in self._certified_pairs
                if certified:
                    self.obs.race(self._cycle, a.rule.name, b.rule.name)
                    raise CommuteViolationError(
                        f"race sanitizer: rules {a.rule.name!r} and "
                        f"{b.rule.name!r} were certified as commuting but "
                        f"their firings diverge under reordering in cycle "
                        f"{self._cycle}",
                        rules=(a.rule.name, b.rule.name),
                        cycle=self._cycle,
                    )

    def _drain_matcher_faults(self) -> List[FaultEvent]:
        """Collect fault/recovery events the match backend accumulated
        since the last drain (serial matchers report none)."""
        drain = getattr(self.matcher, "drain_fault_events", None)
        if drain is None:
            return []
        events: List[FaultEvent] = list(drain())
        self.fault_events.extend(events)
        return events

    def _apply(self, merged: CycleDelta, deltas: Sequence[InstantiationDelta]) -> None:
        """Commit a cycle delta: retractions, then assertions, then host
        calls (in firing order). The committed delta — retracted timestamps
        plus asserted records — is appended to :attr:`delta_log`."""
        removed_ts = tuple(wme.timestamp for wme in merged.removes)
        made_records: List[Tuple[str, Dict[str, Value], int]] = []
        for wme in merged.removes:
            self.wm.remove(wme)
            if self.provenance is not None:
                self.provenance.record_retract(wme, self._cycle)
        for (class_name, attrs), origin in zip(merged.makes, merged.make_origins):
            new_wme = self.wm.make(class_name, attrs)
            made_records.append(
                (new_wme.class_name, new_wme.attributes, new_wme.timestamp)
            )
            if self.provenance is not None:
                inst, kind, replaced = origin
                parents = tuple(w for w in inst.wmes if w is not None)
                if kind == "modify":
                    self.provenance.record_modify(
                        new_wme, self._cycle, inst.rule.name, inst.key,
                        parents, replaced,
                    )
                else:
                    self.provenance.record_make(
                        new_wme, self._cycle, inst.rule.name, inst.key, parents
                    )
        self.delta_log.append((removed_ts, tuple(made_records)))
        for delta in deltas:
            self.evaluator.run_calls(delta)

    def run(self, max_cycles: Optional[int] = None) -> RunResult:
        """Run to quiescence / halt; raise
        :class:`~repro.errors.CycleLimitExceeded` past the cycle budget."""
        limit = max_cycles if max_cycles is not None else self.config.max_cycles
        # Where this call's slices of the cumulative logs begin.
        start = (
            self._cycle, len(self.reports), len(self.output), Counter(self.phase_times)
        )
        wall0 = time.perf_counter()
        with self.obs.span("run", start_cycle=self._cycle):
            while True:
                if self._cycle - start[0] >= limit:
                    partial = self._run_result(start, "cycle-limit", wall0)
                    exc = CycleLimitExceeded(
                        f"exceeded {limit} cycles; the rule program likely does "
                        f"not terminate",
                        cycles_completed=partial.cycles,
                        firings=partial.firings,
                        last_report=partial.reports[-1] if partial.reports else None,
                        partial=partial,
                    )
                    # step() dumps for exceptions raised inside a cycle; the
                    # limit is raised here.
                    self._dump_blackbox(f"CycleLimitExceeded: {exc}")
                    raise exc
                report = self.step()
                if report is not None and report.halted:
                    reason = "halt"
                    break
                if report is None or not report.fired:
                    # A cycle that fired nothing made the engine
                    # redaction-quiescent.
                    quiet = self._redaction_quiescent
                    reason = "redaction-quiescence" if quiet else "quiescence"
                    break
        return self._run_result(start, reason, wall0)

    def _run_result(self, start: tuple, reason: str, wall0: float) -> RunResult:
        """This call's slice of the cycle count, reports, output and phase
        times since ``start``."""
        start_cycle, start_report, start_output, start_phases = start
        reports = self.reports[start_report:]
        phase_times = Counter(self.phase_times)
        phase_times.subtract(start_phases)
        return RunResult(
            cycles=self._cycle - start_cycle,
            firings=sum(r.fired for r in reports),
            reason=reason,
            output=self.output[start_output:],
            reports=reports,
            wall_time=time.perf_counter() - wall0,
            phase_times=phase_times,
        )

    # -- black box -------------------------------------------------------------

    def dump_blackbox(self, path: Optional[str] = None, reason: str = "manual") -> Optional[str]:
        """Write a ``*.blackbox`` post-mortem dump of every flight ring
        (the engine's plus all worker rings) and return its path, or
        ``None`` when the recorder is off. Called automatically on
        abnormal exits; callable any time for a live snapshot."""
        cfg = {
            f.name: repr(getattr(self.config, f.name))
            for f in self.config.__dataclass_fields__.values()
        }
        seed = getattr(self.config.fault_plan, "seed", None)
        return self.obs.dump(
            path or self.config.blackbox_path,
            reason,
            {"config": cfg, "seed": seed, "cycle": self._cycle},
        )

    def _dump_blackbox(self, reason: str) -> Optional[str]:
        """Best-effort crash dump: never masks the exception in flight."""
        try:
            return self.dump_blackbox(reason=reason)
        except Exception:  # noqa: BLE001 - post-mortem must not re-crash
            return None

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (idempotent): worker processes held by
        a process matcher, shared-memory segments held by a columnar store.
        Engines over the default dict store and in-process matchers have
        nothing to release, so most callers never need this — but the CLI
        and benchmarks call it so ``--wm-backend columnar`` runs cannot
        leak ``/dev/shm`` segments on the happy path."""
        closer = getattr(self.matcher, "close", None)
        if closer is not None:
            closer()
        wm_close = getattr(self.wm, "close", None)
        if wm_close is not None:
            wm_close()
        self.obs.close()

    def __enter__(self) -> "ParulelEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- checkpoint / resume ---------------------------------------------------

    def checkpoint(self, path: Optional[str] = None) -> Dict[str, Any]:
        """Snapshot the resumable engine state as a JSON-safe dict.

        Captures working memory (records with exact timestamps plus the
        allocation counter), the refraction set, the cycle counter, emitted
        output, halt flags, and the delta log. Values are symbols/numbers,
        so the dict serializes as JSON directly; when ``path`` is given the
        checkpoint is also written there.

        Matcher internals are *not* saved — :meth:`restore` rebuilds the
        match network by replaying the restored WMEs, which yields the same
        conflict set because matchers are deterministic in timestamp order.

        When ``path`` is given the checkpoint is written as a framed,
        digest-protected envelope (:mod:`repro.resilience.checkpoint`)
        via an atomic tmp + fsync + rename, so a crash mid-write can never
        leave a half-written file under the final name.
        """
        records, next_ts = self.wm.dump_records()
        state: Dict[str, Any] = {
            "version": CHECKPOINT_VERSION,
            "cycle": self._cycle,
            "halted": self.halted,
            "redaction_quiescent": self._redaction_quiescent,
            "wm": {
                "records": [list(rec) for rec in records],
                "next_timestamp": next_ts,
            },
            "fired": [
                [rule, list(timestamps)] for rule, timestamps in sorted(self.fired)
            ],
            "output": list(self.output),
            "delta_log": [
                [list(removed), [list(rec) for rec in made]]
                for removed, made in self.delta_log
            ],
        }
        self.obs.checkpoint(self._cycle, delta=False)
        if path is not None:
            from repro.resilience.checkpoint import write_envelope

            write_envelope(path, state, kind="full")
        return state

    def checkpoint_cursor(self) -> Tuple[int, int, int, int]:
        """Opaque position marker for :meth:`checkpoint_delta`: the cycle
        plus the lengths of the append-only logs (delta log, output,
        firing log) at this moment."""
        return (
            self._cycle,
            len(self.delta_log),
            len(self.output),
            len(self._fired_log),
        )

    def checkpoint_delta(
        self, cursor: Tuple[int, int, int, int]
    ) -> Tuple[Dict[str, Any], Tuple[int, int, int, int]]:
        """Incremental checkpoint: everything appended since ``cursor``.

        Returns ``(payload, new_cursor)``. The payload is a JSON-safe dict
        that :func:`repro.resilience.checkpoint.apply_delta_state` replays
        onto the full-checkpoint state taken at ``cursor`` — orders of
        magnitude smaller than a full snapshot when few WMEs change per
        cycle, which is what makes frequent checkpointing affordable.
        """
        base_cycle, d0, o0, f0 = cursor
        payload: Dict[str, Any] = {
            "version": CHECKPOINT_VERSION,
            "kind": "delta",
            "base_cycle": base_cycle,
            "cycle": self._cycle,
            "halted": self.halted,
            "redaction_quiescent": self._redaction_quiescent,
            "next_timestamp": self.wm.latest_timestamp + 1,
            "fired": [
                [rule, list(timestamps)]
                for rule, timestamps in self._fired_log[f0:]
            ],
            "output": list(self.output[o0:]),
            "delta_log": [
                [list(removed), [list(rec) for rec in made]]
                for removed, made in self.delta_log[d0:]
            ],
        }
        self.obs.checkpoint(self._cycle, delta=True)
        return payload, self.checkpoint_cursor()

    @classmethod
    def restore(
        cls,
        program: Program,
        state: Any,
        config: Optional[EngineConfig] = None,
        host_functions: Optional[Mapping[str, HostFunction]] = None,
        trace: Optional[Callable[[CycleReport], None]] = None,
        tracer=None,
        metrics=None,
    ) -> "ParulelEngine":
        """Rebuild an engine from a :meth:`checkpoint` dict or file path.

        The program must be the one the checkpoint was taken from (rules
        are not serialized — only state). The restored engine continues
        byte-identically: same timestamps, same refraction set, same cycle
        numbering.

        ``state`` may be a checkpoint dict, a file path (envelope or
        legacy raw JSON), or a :class:`~repro.resilience.checkpoint`
        store directory — directories fall back to the newest checkpoint
        that verifies. Truncated or malformed inputs raise a typed
        :class:`~repro.errors.ExecutionError` (or its subclass
        ``CheckpointCorruptError``) naming the file, never a raw
        ``json.JSONDecodeError``/``KeyError``.
        """
        src: Optional[str] = None
        if isinstance(state, str):
            from repro.resilience.checkpoint import load_checkpoint_file

            src = state
            state = load_checkpoint_file(state)
        where = f" file {src!r}" if src is not None else ""
        if not isinstance(state, dict):
            raise ExecutionError(
                f"malformed checkpoint{where}: expected an object, "
                f"got {type(state).__name__}"
            )
        version = state.get("version")
        if version != CHECKPOINT_VERSION:
            raise ExecutionError(
                f"checkpoint version {version!r} is not supported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        try:
            records = [tuple(rec) for rec in state["wm"]["records"]]
            next_ts = int(state["wm"]["next_timestamp"])
            cycle = int(state["cycle"])
            halted = bool(state["halted"])
            quiescent = bool(state["redaction_quiescent"])
            fired = {
                (rule, tuple(timestamps)) for rule, timestamps in state["fired"]
            }
            output = list(state["output"])
            delta_log = [
                (
                    tuple(removed),
                    tuple((cn, dict(attrs), ts) for cn, attrs, ts in made),
                )
                for removed, made in state["delta_log"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ExecutionError(
                f"malformed checkpoint{where}: {exc!r}"
            ) from exc
        wm = _build_wm(config or EngineConfig(), program)
        wm.load_records(records, next_ts)
        engine = cls(
            program,
            config=config,
            host_functions=host_functions,
            wm=wm,
            trace=trace,
            tracer=tracer,
            metrics=metrics,
        )
        engine._cycle = cycle
        engine.halted = halted
        engine._redaction_quiescent = quiescent
        engine.fired = fired
        # Firing order within past cycles is not serialized; a stable
        # sorted order keeps delta checkpoints deterministic post-restore.
        engine._fired_log = sorted(fired)
        engine.output = output
        engine.delta_log = delta_log
        return engine

    # -- introspection ---------------------------------------------------------

    @property
    def cycle(self) -> int:
        return self._cycle

    def conflict_set(self) -> List[Instantiation]:
        """Unrefracted instantiations currently eligible."""
        return [i for i in self.matcher.instantiations() if i.key not in self.fired]

    def explain(self, wme: WME, max_depth: int = 10) -> str:
        """Derivation tree for ``wme`` (requires
        ``EngineConfig(track_provenance=True)``)."""
        if self.provenance is None:
            raise ExecutionError(
                "provenance tracking is off; construct the engine with "
                "EngineConfig(track_provenance=True)"
            )
        return self.provenance.explain(wme, max_depth=max_depth)
