"""The one observability emit point.

Every execution substrate reports what it does through one :class:`Obs`:
the engine, the process and threaded match pools, the distributed machine,
and each process worker. There is one method per event kind (phase, fire,
churn, redact, cycle, fault, race/replay, checkpoint, IPC request, worker
reply, ...), and that method is the only code that knows which sinks are
attached:

- ``timer`` — the :class:`~repro.metrics.timers.PhaseTimer` behind the
  engine's public ``phase_times`` (always on);
- ``tracer`` — spans and instants on named lanes (:mod:`repro.obs.trace`);
- ``metrics`` — the labelled registry (:mod:`repro.obs.metrics`);
- ``flightrec`` — the black-box ring: the parent's
  :class:`~repro.obs.flightrec.FlightRecorder`, or, inside a worker, the
  shared :class:`~repro.obs.flightrec.FlightRing` the parent created.

Tracer and metrics default to the no-op singletons and the ring to
``None``, so callers never check a sink: a detached one costs a branch
here and nothing else. Record kinds come from :mod:`repro.obs.events`;
the shared-memory ring module is imported only where a ring is attached.

Worker to parent: with each reply a process worker ships ``(span events,
per-rule match seconds, vector-probe deltas)`` when the parent records
spans or metrics (:meth:`Obs.payload`), else ``None``; the parent folds it
in with :meth:`Obs.reply`.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.metrics.timers import PhaseTimer
from repro.obs.events import (
    EV_CHECKPOINT,
    EV_CHURN,
    EV_CYCLE,
    EV_FIRE,
    EV_HALT,
    EV_MATCH_REPLY,
    EV_MATCH_REQ,
    EV_PHASE,
    EV_RACE,
    EV_REDACT,
    EV_REPLAY,
    EV_VECTOR_SCAN,
    EV_WORKER_EXIT,
    EV_WORKER_START,
    PHASE_CODES,
)
from repro.obs.metrics import NULL_METRICS
from repro.obs.profile import (
    MATCH_OPS,
    PHASE_SECONDS,
    REDACTION_SKIPPED,
    RULE_CANDIDATES,
    RULE_EVAL_SECONDS,
    RULE_FIRINGS,
    RULE_MATCH_SECONDS,
    RULE_REDACTIONS,
    SANITIZER_REPLAYS,
    VECTOR_PROBE_FALLBACK,
    VECTOR_SCAN_ROWS,
)
from repro.obs.trace import NULL_TRACER, TraceEvent, Tracer

if TYPE_CHECKING:
    from repro.match.instantiation import Instantiation

__all__ = ["Obs", "ObsPayload"]

#: What a worker ships with a reply: its raw span buffer (ingested onto a
#: ``worker-<site>`` lane), per-rule match seconds, and the vectorized
#: probe kernel's per-cycle work deltas (``None`` outside vector mode).
ObsPayload = Optional[
    Tuple[List[TraceEvent], List[Tuple[str, float]], Optional[Dict[str, int]]]
]


class Obs:
    """Fans each event out to the attached sinks (see the module doc)."""

    def __init__(
        self,
        tracer=None,
        metrics=None,
        flightrec=None,
    ) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.flightrec = flightrec
        self.timer = PhaseTimer()
        #: Process workers record spans and rule timings, and ship them
        #: back, only when the parent has a sink for them.
        self.ships = self.tracer.enabled or self.metrics.enabled
        self._replays = 0
        self._last_ops: Counter = Counter()

    @classmethod
    def for_worker(
        cls, ships: bool, flight: Optional[Tuple[str, Dict[str, int]]]
    ) -> "Obs":
        """A worker's emit point: a local tracer when the parent wants
        spans, and the parent-created ring named by ``flight`` (attached
        best-effort — a worker that cannot map it runs unrecorded)."""
        ring = None
        if flight is not None:
            from repro.obs.flightrec import FlightRing

            try:
                ring = FlightRing.attach(flight[0])
            except Exception:  # noqa: BLE001 - recording is best-effort
                pass
        return cls(Tracer() if ships else None, flightrec=ring)

    def _ring(self, kind: int, cycle: int, code: int = 0, a: int = 0, b: int = 0,
              site: Optional[int] = None) -> None:
        fr = self.flightrec
        if fr is not None:
            fr.record(kind, cycle, code, a, b, site)

    # -- engine cycle ------------------------------------------------------

    def span(self, name: str, lane: str = "engine", **args: Any):
        return self.tracer.span(name, lane, **args)

    def phase(self, name: str, key: str, cycle: int, **args: Any) -> "_Phase":
        """One engine phase, measured once: a span ``name`` (paper
        vocabulary — match/redact/act/merge) on the engine lane,
        ``phase_times[key]`` (historical keys — collect/redact/evaluate/
        apply), a :data:`PHASE_SECONDS` observation, an ``EV_PHASE``
        record."""
        return _Phase(self, name, key, cycle, args)

    def churn(self, cycle: int, instantiations: int, candidates: int) -> None:
        self._ring(EV_CHURN, cycle, a=instantiations, b=candidates)

    def redact(self, cycle: int, candidates: Sequence[Instantiation],
               survivors: Sequence[Instantiation], report, stats) -> None:
        """A redaction verdict, and the cycle's counts. Per-rule
        redactions are the candidate/survivor difference — redaction is the
        only reducer between the two sets; ``stats`` (the matcher's
        :class:`~repro.match.stats.MatchStats`) yields per-op work since
        the previous cycle."""
        self._ring(EV_REDACT, cycle, a=len(candidates), b=report.redacted)
        m = self.metrics
        if not m.enabled:
            return
        m.inc("parulel_cycles_total")
        m.inc("parulel_candidates_total", len(candidates))
        m.inc("parulel_redacted_total", report.redacted)
        m.inc("parulel_meta_cycles_total", report.meta_cycles)
        m.inc("parulel_meta_firings_total", report.meta_firings)
        if report.skipped:
            m.inc(REDACTION_SKIPPED, report.skipped)
        cand_by_rule = Counter(i.rule.name for i in candidates)
        surv_by_rule = Counter(i.rule.name for i in survivors)
        for rule, n in cand_by_rule.items():
            m.inc(RULE_CANDIDATES, n, rule=rule)
            fired = surv_by_rule.get(rule, 0)
            if fired:
                m.inc(RULE_FIRINGS, fired, rule=rule)
            if n - fired:
                m.inc(RULE_REDACTIONS, n - fired, rule=rule)
        snap = stats.snapshot()
        for op, total in snap.items():
            delta = total - self._last_ops.get(op, 0)
            if delta:
                m.inc(MATCH_OPS, delta, op=op)
        self._last_ops = snap

    def fire(self, cycle: int, rule: str, ns: int) -> None:
        """One firing's RHS evaluated in ``ns`` nanoseconds."""
        if self.metrics.enabled:
            self.metrics.observe(RULE_EVAL_SECONDS, ns / 1e9, rule=rule)
        fr = self.flightrec
        if fr is not None:
            fr.record(EV_FIRE, cycle, fr.rule_id(rule), ns)

    def replay(self) -> None:
        """One sanitizer shadow replay; flushed per cycle as one
        ``EV_REPLAY`` record instead of flooding the ring."""
        self._replays += 1

    def sanitized_pair(self) -> None:
        self.metrics.inc(SANITIZER_REPLAYS)

    def race(self, cycle: int, rule_a: str, rule_b: str) -> None:
        fr = self.flightrec
        if fr is not None:
            fr.record(EV_RACE, cycle, fr.rule_id(rule_a), fr.rule_id(rule_b))

    def cycle(self, report, wm) -> None:
        """A finished cycle: firing and delta counts (cycles that fired),
        then the ``EV_REPLAY``/``EV_CYCLE``/``EV_HALT`` records."""
        m = self.metrics
        if report.fired and m.enabled:
            m.inc("parulel_firings_total", report.fired)
            m.inc("parulel_delta_removes_total", report.delta_removes)
            m.inc("parulel_delta_makes_total", report.delta_makes)
            m.inc("parulel_conflicts_resolved_total", report.conflicts_resolved)
            m.set_gauge("parulel_wm_size", len(wm))
        if self._replays:
            self._ring(EV_REPLAY, report.cycle, a=self._replays)
            self._replays = 0
        self._ring(EV_CYCLE, report.cycle, a=report.fired, b=report.conflict_set_size)
        if report.halted:
            self._ring(EV_HALT, report.cycle)

    def checkpoint(self, cycle: int, delta: bool) -> None:
        self._ring(EV_CHECKPOINT, cycle, code=int(delta))

    # -- faults and supervision -------------------------------------------

    def fault(self, kind: str, site: Optional[int], cycle: int, detail: str,
              lane: str, at_us: Optional[float] = None) -> None:
        """A fault injection or recovery action: an instant on ``lane``
        (on the virtual timeline at ``at_us`` when given), fault counts, and
        an ``EV_FAULT`` record."""
        if at_us is None:
            self.tracer.instant(kind, lane=lane, cycle=cycle, detail=detail)
        else:
            self.vinstant(kind, lane, at_us, detail=detail)
        self.metrics.inc("parulel_fault_events_total", kind=kind)
        if kind == "respawn":
            self.metrics.inc("parulel_worker_respawns_total", site=site)
        if self.flightrec is not None:
            self.flightrec.record_fault(kind, site, cycle)

    def site_mode(self, site: int, rung: int) -> None:
        """A site's ladder rung (0 = serving at full isolation)."""
        self.metrics.set_gauge("parulel_site_mode", rung, site=site)

    def backoff(self, site: int, seconds: float) -> None:
        self.metrics.inc("parulel_backoff_seconds_total", seconds, site=site)

    def messages(self, round: str, n: int) -> None:
        """``n`` messages shipped in one distributed communication round."""
        if n:
            self.metrics.inc("parulel_network_messages_total", n, round=round)

    # -- IPC and the per-site match ----------------------------------------

    def request(self, site: int, nbytes: int) -> None:
        """A match request of ``nbytes`` pickled bytes sent to ``site``."""
        if self.metrics.enabled:
            self.metrics.inc("parulel_ipc_messages_total", direction="request")
            self.metrics.inc("parulel_ipc_bytes_total", nbytes, site=site)

    def reply(self, site: int, payload: ObsPayload) -> None:
        """A worker reply, with its shipped :meth:`payload` folded in."""
        if payload is not None:
            events, rule_times, vec = payload
            if events:
                self.tracer.ingest(events, lane=f"worker-{site}")
            self.rule_times(site, rule_times)
            if vec is not None and vec["scanned"]:
                self.metrics.inc(VECTOR_SCAN_ROWS, vec["scanned"], site=site)
            if vec is not None and vec["fallback"]:
                self.metrics.inc(VECTOR_PROBE_FALLBACK, vec["fallback"], site=site)
        self.metrics.inc("parulel_ipc_messages_total", direction="reply")

    def rule_times(self, site: int, times: Sequence[Tuple[str, float]]) -> None:
        if self.metrics.enabled:
            for rule, seconds in times:
                self.metrics.observe(RULE_MATCH_SECONDS, seconds, rule=rule, site=site)

    def match_request(self, cycle: int, deltas: int, site: Optional[int] = None) -> None:
        self._ring(EV_MATCH_REQ, cycle, a=deltas, site=site)

    def match_reply(self, cycle: int, summaries: int, site: Optional[int] = None) -> None:
        self._ring(EV_MATCH_REPLY, cycle, a=summaries, site=site)

    # -- worker side ---------------------------------------------------------

    def worker_start(self, pid: int) -> None:
        self._ring(EV_WORKER_START, 0, a=pid)

    def worker_exit(self, cycle: int, pipe_lost: bool) -> None:
        self._ring(EV_WORKER_EXIT, cycle, code=int(pipe_lost))
        self.close()

    def vector_scan(self, cycle: int, vec: Dict[str, int]) -> None:
        self._ring(EV_VECTOR_SCAN, cycle, min(vec["fallback"], 0x7FFF),
                   vec["scanned"], vec["materialized"])

    def payload(self, rule_times: List[Tuple[str, float]],
                vec: Optional[Dict[str, int]]) -> ObsPayload:
        """What a worker ships with its reply (``None`` when the parent
        records neither spans nor metrics)."""
        if not self.ships:
            return None
        return self.tracer.drain_events(), rule_times, vec

    # -- virtual timeline (distributed machine) ------------------------------

    def vspan(self, name: str, lane: str, start_us: float, dur_us: float, **args: Any) -> None:
        """A span on the cost-model timeline, one tick rendered as one µs
        past the tracer's origin — fed through :meth:`Tracer.ingest`, the
        path worker spans take, so virtual and wall-clock traces share
        tooling."""
        if self.tracer.enabled:
            base = self.tracer.origin_ns
            end = start_us + max(dur_us, 0.0)
            self.tracer.ingest([
                ("B", name, lane, base + int(start_us * 1000), args or None),
                ("E", name, lane, base + int(end * 1000), None),
            ])

    def vinstant(self, name: str, lane: str, at_us: float, **args: Any) -> None:
        if self.tracer.enabled:
            at = self.tracer.origin_ns + int(at_us * 1000)
            self.tracer.ingest([("i", name, lane, at, args or None)])

    # -- recorder lifecycle ------------------------------------------------

    def worker_spec(self, site: int, rule_names: Sequence[str]):
        """The ring spec shipped to a worker at spawn (``None`` without a
        recorder)."""
        if self.flightrec is None:
            return None
        return self.flightrec.worker_spec(site, rule_names)

    def dump(self, path: Optional[str], reason: str, info: Mapping[str, Any]) -> Optional[str]:
        """Write a ``*.blackbox`` dump of every ring; ``None`` without a
        recorder."""
        if self.flightrec is None:
            return None
        from repro.obs.flightrec import default_blackbox_path

        path = path or default_blackbox_path()
        self.flightrec.dump(path, reason=reason, info=info)
        return path

    def close(self) -> None:
        if self.flightrec is not None:
            self.flightrec.close()


class _Phase:
    """The context manager behind :meth:`Obs.phase`: one ``perf_counter``
    pair per phase, fanned out on exit. A slotted class rather than a
    generator, and the span built only when tracing, because the engine
    enters four of these every cycle."""

    __slots__ = ("_obs", "_name", "_key", "_cycle", "_span", "_t0")

    def __init__(self, obs: Obs, name: str, key: str, cycle: int,
                 args: Dict[str, Any]) -> None:
        self._obs, self._name, self._key, self._cycle = obs, name, key, cycle
        tracer = obs.tracer
        self._span = (
            tracer.span(name, "engine", cycle=cycle, **args) if tracer.enabled else None
        )

    def __enter__(self) -> None:
        if self._span is not None:
            self._span.__enter__()
        self._t0 = time.perf_counter()

    def __exit__(self, *exc: object) -> None:
        elapsed = time.perf_counter() - self._t0
        obs = self._obs
        if self._span is not None:
            self._span.__exit__(*exc)
        obs.timer.add(self._key, elapsed)
        if obs.metrics.enabled:
            obs.metrics.observe(PHASE_SECONDS, elapsed, phase=self._key)
        obs._ring(EV_PHASE, self._cycle, PHASE_CODES.get(self._name, 0),
                  int(elapsed * 1e9))
