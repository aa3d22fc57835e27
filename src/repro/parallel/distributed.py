"""Distributed execution with replicated working memories (PARADISER-style).

The :class:`~repro.parallel.simmachine.SimMachine` models the paper's
*shared-memory* multiprocessor (one physical store, per-site match state).
PARULEL's successor environment, PARADISER, targeted *distributed*
machines: every site holds its **own working-memory replica**, kept
consistent by shipping the cycle delta as messages. This module implements
that execution model honestly:

- each site owns a real, separate :class:`~repro.wm.memory.WorkingMemory`
  (no shared store at all) plus a match engine over its assigned rules;
- a **master** (site 0's replica) runs the cycle: the machine calls
  :meth:`~repro.core.engine.ParulelEngine.step` on an engine over that
  replica, which (a) gathers candidate instantiations from the sites,
  (b) redacts, (c) evaluates survivors and (d) commits the merged delta;
  the machine then ships the master's changes to every site, which
  applies them to its own replica, and charges the cycle's costs;
- WME identity is by value + timestamp and every replica applies the same
  delta sequence, so timestamps — and therefore instantiation keys —
  agree across replicas without any global coordination; tests assert
  replicas stay byte-identical and the whole machine is functionally
  equivalent to a single :class:`~repro.core.engine.ParulelEngine`.

The :class:`NetworkModel` charges communication:

- ``latency`` per communication round (two rounds per cycle: gather,
  scatter — charged only when remote sites exist; a 1-site machine is the
  communication-free serial baseline),
- ``per_message`` per candidate summary, redaction verdict, and delta
  entry shipped (delta entries go to P−1 remote sites, or only to
  interested sites with ``multicast=True``).

Figure 5 sweeps ``latency`` to show where communication swamps the
parallel match gain — the trade that separated the DADO/shared-memory
line from distributed rule systems.

**Faults and recovery.** A :class:`~repro.faults.FaultPlan` injects
deterministic failures: a non-master site can crash at cycle *k* (the
master detects the missed gather, charges the timeout, and re-hosts the
dead site's rules across survivors via
:func:`~repro.parallel.partition.rehost_assignment`); a crashed site can
rejoin later (its replica is rebuilt by replaying the machine's cumulative
delta log, then its rules migrate home); messages can be dropped
(retried with backoff, charged through the :class:`NetworkModel`),
duplicated, or delayed; straggler sites multiply their compute ticks.
Because the master gathers candidates into a *canonical order* —
``(rule position in the program, instantiation key)`` — results are
byte-identical whichever site happens to host a rule, so a run that loses
a site finishes with exactly the fault-free working memory. Every
injection and recovery action is a :class:`~repro.faults.FaultEvent` on
``DistResult.fault_events``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.errors import CycleLimitExceeded
from repro.core.delta import InterferencePolicy
from repro.core.engine import EngineConfig, ParulelEngine
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.lang.ast import Program, Value
from repro.obs.emit import Obs
from repro.parallel.costmodel import CostModel
from repro.parallel.partition import (
    Assignment,
    rehost_assignment,
    resolve_assignment,
)
from repro.parallel.sites import SiteMatchers, run_cycle
from repro.wm.memory import DeltaRecorder, WMDelta, WorkingMemory
from repro.wm.template import TemplateRegistry
from repro.wm.wme import WME

__all__ = ["NetworkModel", "DistributedMachine", "DistResult"]


@dataclass(frozen=True)
class NetworkModel:
    """Communication charges for the distributed machine (ticks)."""

    #: Fixed cost per communication round (gather or scatter).
    latency: float = 50.0
    #: Cost per message: candidate summary, verdict, or delta entry-hop.
    per_message: float = 2.0

    def round_cost(self, n_messages: int) -> float:
        return self.latency + self.per_message * n_messages

    def retry_cost(self, drops: int) -> float:
        """Cost of recovering ``drops`` lost transmissions of one message:
        each loss waits one latency (the retransmit timeout) and resends."""
        return drops * (self.latency + self.per_message)


@dataclass
class DistResult:
    """Outcome and cost accounting of a distributed run."""

    n_sites: int
    cycles: int
    firings: int
    reason: str
    compute_ticks: float
    comm_ticks: float
    serial_ticks: float
    messages: int
    output: List[str] = field(default_factory=list)
    #: Every injected fault and recovery action, in occurrence order.
    fault_events: List[FaultEvent] = field(default_factory=list)
    #: Message retransmissions forced by injected drops.
    retries: int = 0

    @property
    def total_ticks(self) -> float:
        return self.compute_ticks + self.comm_ticks + self.serial_ticks

    @property
    def comm_fraction(self) -> float:
        total = self.total_ticks
        return self.comm_ticks / total if total else 0.0

    @property
    def recoveries(self) -> int:
        """Recovery actions taken (redistributions and rejoins)."""
        return sum(
            1 for e in self.fault_events if e.kind in ("redistribute", "rejoin")
        )


class DistributedMachine:
    """PARULEL over P working-memory replicas and a message network."""

    def __init__(
        self,
        program: Program,
        n_sites: int,
        assignment: "Optional[Assignment | str]" = None,
        cost_model: Optional[CostModel] = None,
        network: Optional[NetworkModel] = None,
        matcher: str = "rete",
        interference: InterferencePolicy = InterferencePolicy.ERROR,
        dedupe_makes: bool = True,
        multicast: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        tracer=None,
        metrics=None,
        indexed: bool = True,
    ) -> None:
        if n_sites < 1:
            raise ValueError("need at least one site")
        self.program = program
        self.n_sites = n_sites
        #: Observability: one emit point wrapping the ``tracer`` and
        #: ``metrics`` given. The machine has no wall clock of its own —
        #: everything is cost-model ticks — so its trace is a *virtual*
        #: timeline: one tick renders as one microsecond, each site is a
        #: lane (``site-0`` doubles as the master) and the
        #: :class:`NetworkModel` charges appear as spans on a ``network``
        #: lane. Fault injections/recoveries land as instants.
        self.obs = Obs(tracer, metrics)
        self._vclock_us = 0.0
        for lane in [f"site-{s}" for s in range(n_sites)] + ["network"]:
            self.obs.tracer.declare_lane(lane)
        self.assignment = resolve_assignment(assignment, program.rules, n_sites)
        self.assignment.validate(program.rules)
        self.cost = cost_model or CostModel()
        self.network = network or NetworkModel()
        self.multicast = multicast
        if fault_plan is not None:
            fault_plan.validate_sites(n_sites)
        self._injector: Optional[FaultInjector] = (
            fault_plan.injector() if fault_plan is not None else None
        )

        #: One REAL working memory per site — nothing is shared — and each
        #: replica's timestamp index (wire deltas name WMEs by timestamp).
        self.replicas: List[WorkingMemory] = [
            WorkingMemory(TemplateRegistry.from_program(program))
            for _ in range(n_sites)
        ]
        self._by_ts: List[Dict[int, WME]] = [{} for _ in range(n_sites)]
        #: Current rule hosting; starts as the configured assignment and is
        #: recomputed by `rehost_assignment` when sites die or rejoin.
        self.hosting: Assignment = self.assignment
        self._dead: Set[int] = set()
        #: Canonical gather order: candidates sort by (rule position in the
        #: program, instantiation key), so the firing order — and therefore
        #: every timestamp the run allocates — is independent of which site
        #: happens to host a rule. Recovery that moves rules between sites
        #: cannot perturb results.
        self.sites = SiteMatchers(program.rules, n_sites, matcher, indexed, canonical=True)
        for site in range(n_sites):
            self._build_site_matcher(site)
        if multicast:
            self.sites.watch(self.replicas[0])
        #: The PARULEL cycle, run on the master replica (reifications stay
        #: local to it); the machine charges costs and ships the deltas.
        self.engine = ParulelEngine(
            program,
            EngineConfig(
                interference=interference,
                dedupe_makes=dedupe_makes,
                flight_recorder=False,
            ),
            wm=self.replicas[0],
            matcher=self.sites,
        )
        #: The process pool's replica protocol: the master's changes drain
        #: as wire deltas into every live replica; the cumulative wire log
        #: is the catch-up script replayed into a rejoining replica.
        self._recorder = DeltaRecorder(self.replicas[0])
        self._log: List[tuple] = []
        self._stragglers_noted: Set[int] = set()

    # -- site (re)construction ---------------------------------------------------

    def _build_site_matcher(self, site: int) -> None:
        """(Re)build one site's matcher over the rules it currently hosts
        (its replay of the replica is the real cost of re-hosting)."""
        rules = self.hosting.rules_of_site(site, self.program.rules)
        self.sites.build(site, rules, self.replicas[site])

    def _rehost(self) -> int:
        """Recompute hosting for the current dead set; rebuild every site
        whose hosted rule set changed. Returns the number of rules moved."""
        self.hosting = rehost_assignment(
            self.assignment, sorted(self._dead), self.program.rules
        )
        moved = 0
        for site in range(self.n_sites):
            if site in self._dead:
                continue
            rules = self.hosting.rules_of_site(site, self.program.rules)
            hosted = frozenset(r.name for r in rules)
            current = frozenset(self.sites.matchers[site].rule_names())
            if hosted != current:
                moved += len(hosted.symmetric_difference(current))
                self._build_site_matcher(site)
        return moved

    # -- workload ---------------------------------------------------------------

    def make(self, class_name: str, attrs: Optional[Mapping[str, Value]] = None, **kw: Value):
        """Assert an initial WME into *every* replica (same timestamps)."""
        first = self.replicas[0].make(class_name, attrs, **kw)
        self._scatter()
        return first

    def _scatter(self) -> None:
        """Ship the master's changes since the last scatter to every live
        replica and append them to the catch-up log."""
        wire = self._recorder.drain().wire()
        self._log.append(wire)
        for site in range(1, self.n_sites):
            if site not in self._dead:
                WMDelta.apply_wire(self.replicas[site], self._by_ts[site], wire)

    # -- consistency (tests call this) ---------------------------------------------

    def replicas_consistent(self) -> bool:
        """All live replicas hold exactly the same WMEs.

        Replicas of currently-dead sites are stale by definition (they
        receive no deltas until they rejoin and replay the log) and are
        excluded.
        """
        reference = {w for w in self.replicas[0] if w.class_name != "instantiation"}
        return all(
            {w for w in replica if w.class_name != "instantiation"} == reference
            for site, replica in enumerate(self.replicas)
            if site != 0 and site not in self._dead
        )

    # -- virtual-clock tracing ---------------------------------------------------

    def _obs_faults(self, ev_mark: int, at_us: float) -> int:
        """Emit injector events recorded since ``ev_mark`` (instants on the
        affected site's lane, or ``network`` for message fates); returns
        the new mark."""
        if self._injector is None:
            return ev_mark
        events = self._injector.events
        for event in events[ev_mark:]:
            lane = f"site-{event.site}" if event.site is not None else "network"
            self.obs.fault(
                event.kind, event.site, event.cycle, event.detail, lane, at_us=at_us
            )
        return len(events)

    # -- fault handling ----------------------------------------------------------

    def _crash_site(self, site: int, cycle_no: int) -> Tuple[float, int]:
        """Kill a site: detach its matcher, detect via the missed gather,
        and re-host its rules on the survivors. Returns (comm, messages)
        charged for detection + redistribution."""
        assert self._injector is not None
        self._dead.add(site)
        self.sites.drop(site)
        self._injector.record(cycle_no, "crash", site=site)
        # Detection: the master waits one full gather timeout for the dead
        # site before declaring it lost.
        self._injector.record(
            cycle_no, "detect", site=site, detail="missed gather (timeout)"
        )
        moved = self._rehost()
        self._injector.record(
            cycle_no,
            "redistribute",
            site=site,
            detail=f"{moved} rule slot(s) re-hosted across survivors",
        )
        # Same gauge the process pool's supervisor exports: 0 = site
        # serving at full isolation, >0 = degraded/down.
        self.obs.site_mode(site, 1)
        # One timeout round, then a control round carrying the new hosting.
        return self.network.latency + self.network.round_cost(moved), moved

    def _rejoin_site(self, site: int, cycle_no: int) -> Tuple[float, int]:
        """Resurrect a site: rebuild its replica by replaying the cumulative
        delta log, then migrate its rules home. Returns (comm, messages)
        charged for the replay."""
        assert self._injector is not None
        replica = WorkingMemory(TemplateRegistry.from_program(self.program))
        by_ts: Dict[int, WME] = {}
        for wire in self._log:
            WMDelta.apply_wire(replica, by_ts, wire)
        records = sum(len(adds) + len(removes) for adds, removes in self._log)
        self.replicas[site] = replica
        self._by_ts[site] = by_ts
        self._dead.discard(site)
        self._build_site_matcher(site)
        moved = self._rehost()
        self._injector.record(
            cycle_no,
            "rejoin",
            site=site,
            detail=f"replayed {records} delta record(s); {moved} rule slot(s) "
            f"migrated home",
        )
        self.obs.site_mode(site, 0)
        return self.network.round_cost(records), records

    def _apply_cycle_faults(self, cycle_no: int) -> Tuple[float, int]:
        """Process this cycle's scheduled crashes/rejoins; returns the
        (comm ticks, messages) the recovery traffic cost."""
        assert self._injector is not None
        comm = 0.0
        messages = 0
        for crash in self._injector.rejoins_at(cycle_no):
            if crash.site in self._dead:
                c, m = self._rejoin_site(crash.site, cycle_no)
                comm += c
                messages += m
        for crash in self._injector.crashes_at(cycle_no):
            if crash.site not in self._dead:
                c, m = self._crash_site(crash.site, cycle_no)
                comm += c
                messages += m
        return comm, messages

    def _round(self, name: str, n: int, cycle: int, at_us: float) -> Tuple[float, int]:
        """Charge one gather/scatter round carrying ``n`` messages;
        returns its (comm ticks, messages), seeded drop/duplicate/delay
        fates included. A single-site machine exchanges no messages at
        all — charging round latency there would inflate the serial
        baseline and fake distributed speedup."""
        if self.n_sites == 1:
            self.obs.messages(name, n)
            return 0.0, n
        ticks = self.network.round_cost(n)
        messages = n
        inj = self._injector
        plan = inj.plan if inj is not None else None
        if plan is not None and (plan.drop_rate or plan.dup_rate or plan.delay_rate):
            for _ in range(n):
                drops, duplicated, delayed = inj.message_fate()
                if drops:
                    ticks += self.network.retry_cost(drops)
                    messages += drops
                    inj.record(
                        cycle, "drop", detail=f"{name}: {drops} retransmission(s)"
                    )
                if duplicated:
                    ticks += self.network.per_message
                    messages += 1
                    inj.record(cycle, "duplicate", detail=name)
                if delayed:
                    ticks += self.network.latency
                    inj.record(cycle, "delay", detail=name)
        self.obs.vspan(name, "network", at_us, ticks, cycle=cycle, messages=n)
        self.obs.messages(name, n)
        return ticks, messages

    # -- execution ---------------------------------------------------------------

    def run(self, max_cycles: int = 100_000) -> DistResult:
        engine, sites, cost, network = self.engine, self.sites, self.cost, self.network
        compute = comm = serial = 0.0
        messages = cycles = firings = 0
        reason = "quiescence"

        def result(reason: str) -> DistResult:
            return DistResult(
                n_sites=self.n_sites,
                cycles=cycles,
                firings=firings,
                reason=reason,
                compute_ticks=compute,
                comm_ticks=comm,
                serial_ticks=serial,
                messages=messages,
                output=list(engine.output),
                fault_events=(
                    list(self._injector.events) if self._injector is not None else []
                ),
                retries=self._injector.retries if self._injector is not None else 0,
            )

        obs = self.obs
        # Load phase: parallel across sites.
        load = [cost.match_cost(sites.ops(m)) for m in sites.matchers]
        sites.drain_changes()  # the load's WM changes are no cycle's
        compute += max(load) if load else 0.0
        if any(load):
            for s, ticks in enumerate(load):
                if ticks:
                    obs.vspan("load", f"site-{s}", self._vclock_us, ticks)
            self._vclock_us += max(load)

        ev_mark = 0
        while True:
            if cycles >= max_cycles:
                raise CycleLimitExceeded(
                    f"distributed run exceeded {max_cycles} cycles",
                    cycles_completed=cycles,
                    firings=firings,
                    partial=result("cycle-limit"),
                )
            cycle_no = cycles + 1
            vt = self._vclock_us
            if self._injector is not None:
                fault_comm, fault_msgs = self._apply_cycle_faults(cycle_no)
                comm += fault_comm
                messages += fault_msgs
                ev_mark = self._obs_faults(ev_mark, vt)
                if fault_comm:
                    obs.vspan(
                        "recovery", "network", vt, fault_comm,
                        cycle=cycle_no, messages=fault_msgs,
                    )
                    vt += fault_comm

            report, fired_now = run_cycle(engine)
            if report is None:
                self._vclock_us = vt
                break
            cycles += 1

            # ---- gather candidates (one communication round) --------------
            # Candidates: gathered instantiations unrefracted before the cycle.
            new_keys = set(fired_now)
            gather_msgs = sum(
                1
                for inst in sites.last
                if self.hosting.site_of[inst.rule.name] != 0
                and (inst.key in new_keys or inst.key not in engine.fired)
            )
            ticks, sent = self._round("gather", gather_msgs, cycle_no, vt)
            comm += ticks
            messages += sent
            vt += ticks

            # ---- redact on the master -------------------------------------
            red_report = report.redaction
            redact_ticks = cost.redact_overhead * red_report.meta_firings
            verdict_cost = network.per_message * red_report.redacted
            serial += redact_ticks
            # Only redaction verdicts ship back (survivors fire in place).
            comm += verdict_cost
            messages += red_report.redacted
            obs.vspan(
                "redact", "site-0", vt, redact_ticks,
                cycle=cycle_no, candidates=report.candidates,
                redacted=red_report.redacted,
            )
            vt += redact_ticks
            if verdict_cost:
                obs.vspan(
                    "verdicts", "network", vt, verdict_cost,
                    cycle=cycle_no, messages=red_report.redacted,
                )
                vt += verdict_cost
            obs.messages("verdict", red_report.redacted)

            if not report.fired:
                reason = "redaction-quiescence"
                self._vclock_us = vt
                break

            # ---- fire (each site evaluates its own survivors), merge -------
            fire_ticks = [0.0] * self.n_sites
            for rule, _timestamps in fired_now:
                fire_ticks[self.hosting.site_of[rule]] += cost.fire
            firings += report.fired
            merged = report.delta_removes + report.delta_makes
            serial += cost.wm_broadcast * 0.5 * merged

            # ---- scatter the delta; every live replica applies it ----------
            self._scatter()
            changed = sites.drain_changes()
            scatter_msgs = sum(
                sites.relevant(site, changed) if self.multicast else merged
                for site in range(1, self.n_sites)
                if site not in self._dead
            )
            ticks, sent = self._round("scatter", scatter_msgs, cycle_no, vt)
            comm += ticks
            messages += sent
            vt += ticks

            # ---- per-site compute time ---------------------------------------
            site_ticks = []
            for s in range(self.n_sites):
                if s in self._dead:
                    continue
                ticks = cost.match_cost(sites.ops(sites.matchers[s])) + fire_ticks[s]
                if self._injector is not None:
                    factor = self._injector.straggle_factor(s)
                    if factor != 1.0:
                        ticks *= factor
                        if s not in self._stragglers_noted:
                            self._stragglers_noted.add(s)
                            self._injector.record(
                                cycle_no,
                                "straggler",
                                site=s,
                                detail=f"compute ×{factor:g}",
                            )
                obs.vspan("match+fire", f"site-{s}", vt, ticks, cycle=cycle_no)
                site_ticks.append(ticks)
            compute += max(site_ticks)
            serial += cost.barrier
            vt += max(site_ticks) + cost.barrier
            ev_mark = self._obs_faults(ev_mark, vt)
            self._vclock_us = vt

            if report.halted:
                reason = "halt"
                break

        return result(reason)
