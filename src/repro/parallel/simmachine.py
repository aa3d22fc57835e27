"""SimMachine: a deterministic P-site simulation of PARULEL's cycle.

Execution model (mirrors the shared-memory multiprocessor the paper used):

- every site holds the **full working memory replica** (changes are
  broadcast at end of cycle) and the match state for **its assigned rules
  only**;
- each cycle, sites match and fire *in parallel*; the cycle's parallel time
  is the **makespan** — the slowest site's (match + fire + broadcast
  application) work;
- the **meta level runs serially** (on a master) between match and fire, as
  does the final delta merge — these are the cycle's sequential fraction,
  which is what bounds speedup à la Amdahl;
- a **barrier** charge per cycle models synchronization.

Implementation: the machine drives one
:class:`~repro.core.engine.ParulelEngine` (``step()`` once per cycle) and
only charges costs. The engine's store is one real WorkingMemory shared by
the sites (that *is* the replica abstraction — WM listeners deliver every
change to every site's matcher, and the cost model charges each site for
the deliveries); it matches through a
:class:`~repro.parallel.sites.SiteMatchers`, one matcher per site over its
own rules. A SimMachine run is therefore **bit-identical to a 1-engine
ParulelEngine run** of the same program — asserted by tests — while the
timing model yields Figure 1/2's speedup curves deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional

from repro.errors import CycleLimitExceeded
from repro.core.delta import InterferencePolicy
from repro.core.engine import EngineConfig, ParulelEngine
from repro.lang.ast import Program, Value
from repro.parallel.costmodel import CostModel
from repro.parallel.partition import Assignment, round_robin_assignment
from repro.parallel.sites import SiteMatchers, run_cycle
from repro.wm.memory import WorkingMemory
from repro.wm.template import TemplateRegistry

__all__ = ["SimMachine", "SimResult"]


@dataclass
class SimResult:
    """Timing and outcome of a simulated run."""

    n_sites: int
    cycles: int
    firings: int
    reason: str
    #: Sum over cycles of the slowest site's work (the parallel part).
    parallel_ticks: float
    #: Serial part: redaction + merge + barriers.
    serial_ticks: float
    #: Total WM-update messages delivered to sites (broadcast: every change
    #: to every site; multicast: only to sites whose rules read the class).
    messages: int = 0
    #: Per-cycle makespans (parallel part only).
    makespans: List[float] = field(default_factory=list)
    #: Per-site total work across the run (load-balance diagnostics).
    site_totals: List[float] = field(default_factory=list)
    output: List[str] = field(default_factory=list)

    @property
    def total_ticks(self) -> float:
        return self.parallel_ticks + self.serial_ticks

    @property
    def total_work(self) -> float:
        """Sum of all sites' work — what one site would have done (modulo
        partitioning overheads)."""
        return sum(self.site_totals)

    @property
    def load_imbalance(self) -> float:
        """max site load / mean site load (1.0 = perfectly balanced)."""
        if not self.site_totals or not any(self.site_totals):
            return 1.0
        mean = sum(self.site_totals) / len(self.site_totals)
        return max(self.site_totals) / mean if mean else 1.0


class SimMachine:
    """Barrier-synchronized multi-site execution of a PARULEL program."""

    def __init__(
        self,
        program: Program,
        n_sites: int,
        assignment: Optional[Assignment] = None,
        cost_model: Optional[CostModel] = None,
        matcher: str = "rete",
        interference: InterferencePolicy = InterferencePolicy.ERROR,
        dedupe_makes: bool = True,
        host_functions: Optional[Mapping[str, Callable]] = None,
        multicast: bool = False,
        indexed: bool = True,
    ) -> None:
        if n_sites < 1:
            raise ValueError("need at least one site")
        self.program = program
        self.n_sites = n_sites
        self.assignment = assignment or round_robin_assignment(program.rules, n_sites)
        self.assignment.validate(program.rules)
        self.cost = cost_model or CostModel()
        #: PARADISER-style interest-based update delivery: a WM change is
        #: sent only to sites whose rules *read* the changed class, instead
        #: of broadcast to every replica. Functionally identical (the real
        #: shared WorkingMemory still notifies every matcher — matchers
        #: ignore classes outside their alpha index anyway); only the
        #: communication charges differ. Ablation A4 measures the gap.
        self.multicast = multicast

        self.wm = WorkingMemory(TemplateRegistry.from_program(program))
        self.sites = SiteMatchers(program.rules, n_sites, matcher, indexed)
        for site in range(n_sites):
            rules = self.assignment.rules_of_site(site, program.rules)
            self.sites.build(site, rules, self.wm)
        if multicast:
            self.sites.watch(self.wm)
        #: The PARULEL cycle itself; the machine only charges its costs.
        self.engine = ParulelEngine(
            program,
            EngineConfig(
                interference=interference,
                dedupe_makes=dedupe_makes,
                flight_recorder=False,
            ),
            host_functions=host_functions,
            wm=self.wm,
            matcher=self.sites,
        )

    # -- workload ---------------------------------------------------------------

    def make(self, class_name: str, attrs: Optional[Mapping[str, Value]] = None, **kw: Value):
        """Assert an initial WME (charged as load-phase match work)."""
        return self.wm.make(class_name, attrs, **kw)

    # -- execution -----------------------------------------------------------------

    def run(self, max_cycles: int = 100_000) -> SimResult:
        """Run to quiescence/halt, charging time per the cost model."""
        engine, sites, cost = self.engine, self.sites, self.cost
        makespans: List[float] = []
        site_totals = [0.0] * self.n_sites
        serial = 0.0
        cycles = firings = messages = 0
        reason = "quiescence"

        # Load phase: initial WMEs were matched at construction/make time.
        # Charge each site its accrued ops as a cycle-0 parallel phase.
        load = [cost.match_cost(sites.ops(m)) for m in sites.matchers]
        sites.ops(engine.meta.matcher)  # baseline the meta counters too
        sites.drain_changes()  # the load's WM changes are no cycle's
        if any(load):
            makespans.append(max(load))
            for s, t in enumerate(load):
                site_totals[s] += t

        while True:
            if cycles >= max_cycles:
                raise CycleLimitExceeded(f"simulated run exceeded {max_cycles} cycles")
            report, fired_now = run_cycle(engine)
            if report is None:
                break
            cycles += 1

            # ---- serial redaction (master) --------------------------------
            # Its reifications also reached every site's matcher: that
            # work lands in the sites' match deltas below.
            serial += cost.redaction_cost(
                sites.ops(engine.meta.matcher), report.redaction.meta_firings
            )
            if not report.fired:
                reason = "redaction-quiescence"
                break

            # ---- parallel fire, serial merge --------------------------------
            fire_ticks = [0.0] * self.n_sites
            for rule, _timestamps in fired_now:
                fire_ticks[self.assignment.site_of[rule]] += cost.fire
            firings += report.fired
            merged = report.delta_removes + report.delta_makes
            serial += cost.wm_broadcast * 0.5 * merged

            # ---- per-site cycle time: match + fire + update delivery -------
            changed = sites.drain_changes()
            match = [cost.match_cost(sites.ops(m)) for m in sites.matchers]
            cycle_site_ticks = []
            for s in range(self.n_sites):
                relevant = sites.relevant(s, changed) if self.multicast else merged
                messages += relevant
                t = match[s] + fire_ticks[s] + cost.broadcast_cost(relevant)
                cycle_site_ticks.append(t)
                site_totals[s] += t
            makespans.append(max(cycle_site_ticks))
            serial += cost.barrier

            if report.halted:
                reason = "halt"
                break

        return SimResult(
            n_sites=self.n_sites,
            cycles=cycles,
            firings=firings,
            reason=reason,
            messages=messages,
            parallel_ticks=sum(makespans),
            serial_ticks=serial,
            makespans=makespans,
            site_totals=site_totals,
            output=list(engine.output),
        )
