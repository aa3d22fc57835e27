"""Supervision policy for process-backed match workers.

:class:`~repro.parallel.process.ProcessMatchPool` owns the mechanics of
spawning, killing and catching up workers; this module owns the *policy*:
when to retry, how long to wait, when to stop trying, and when to try
again. Splitting the two keeps the pool's hot path free of decisions and
makes the policy unit-testable without real processes.

The pieces, per site:

- **Backoff.** Each consecutive failure doubles a base delay (capped),
  multiplied by deterministic seeded jitter — two pools built with the
  same seed and fault history sleep the same schedule, so recovery tests
  stay reproducible.
- **Circuit breaker.** ``breaker_failures`` failures within a sliding
  window of ``breaker_window`` cycles trips the breaker: the pool stops
  respawning and demotes the site immediately instead of burning the
  respawn budget on a flapping worker.
- **Demotion.** A site is either served by its own worker or demoted:
  matched in-parent by the serial join engine. Both compute
  byte-identical matches (the parent working memory holds exactly the
  replica contents in timestamp order); demotion trades isolation for
  survival, never correctness.
- **Re-promotion.** After ``cooldown_cycles`` quiet cycles (doubling per
  breaker trip, capped), a demoted site is promoted straight back to a
  worker, which is respawned and caught up; the breaker closes on its
  first healthy reply.

The default policy reproduces the pool's historical behaviour exactly:
no backoff, no heartbeats, no breaker and no re-promotion — so engines
that never pass a policy see byte- and event-identical runs.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence

__all__ = ["SupervisorPolicy", "SiteSupervisor", "SupervisorDecision"]

#: A worker that cannot even come up is a deterministic failure no respawn
#: will fix; after this many consecutive attempts within one cycle the
#: site is demoted rather than spun on.
MAX_ATTEMPTS_PER_CYCLE = 3


@dataclass(frozen=True)
class SupervisorPolicy:
    """Tunable supervision knobs (see the module docstring).

    The zero-argument default is the legacy policy: respawn immediately,
    demote to in-parent matching when the budget runs out, never
    re-promote.
    """

    #: First-failure respawn delay in seconds; each consecutive failure
    #: doubles it. ``0`` = respawn immediately (legacy).
    backoff_base: float = 0.0
    #: Ceiling on the computed backoff delay (before jitter).
    backoff_cap: float = 30.0
    #: Jitter fraction: the delay is scaled by ``1 + jitter * rng()`` with
    #: a seeded RNG, de-synchronizing respawn stampedes deterministically.
    backoff_jitter: float = 0.5
    #: Seed for the jitter RNG (one stream per pool, consumed in site
    #: failure order — deterministic for a given fault history).
    seed: int = 0
    #: Probe live workers with a ping/pong heartbeat every N cycles before
    #: dispatching work; ``0`` = never (legacy). A missed heartbeat fails
    #: the worker over immediately instead of burning the reply deadline.
    heartbeat_every: int = 0
    #: How long (seconds) to wait for a heartbeat pong.
    heartbeat_timeout: float = 1.0
    #: Failures within ``breaker_window`` cycles that trip the per-site
    #: circuit breaker; ``None`` = breaker disabled (legacy).
    breaker_failures: Optional[int] = None
    #: Sliding failure-count window, in conflict-set cycles.
    breaker_window: int = 16
    #: Quiet cycles before a demoted site is promoted back to a worker,
    #: doubling per breaker trip (capped at ``cooldown_cap``); ``0`` =
    #: demotion is permanent (legacy).
    cooldown_cycles: int = 0
    #: Ceiling on the per-trip cool-down growth.
    cooldown_cap: int = 256
    #: Treat a worker's ``("err", ...)`` reply as a site failure (demote
    #: the site) instead of raising ``MatchError``. Chaos runs set
    #: this: an unlinked shared segment makes every re-attach fail
    #: deterministically, and the parent can still match correctly.
    degrade_on_worker_error: bool = False

    def __post_init__(self) -> None:
        if self.backoff_base < 0 or self.backoff_cap <= 0 or self.backoff_jitter < 0:
            raise ValueError("backoff_base/backoff_cap/backoff_jitter must be >= 0 (cap > 0)")
        if self.heartbeat_every < 0:
            raise ValueError("heartbeat_every must be >= 0 (0 disables probes)")
        if self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be > 0 seconds")
        if self.breaker_failures is not None and self.breaker_failures < 1:
            raise ValueError("breaker_failures must be >= 1 (None disables)")
        if self.breaker_window < 1:
            raise ValueError("breaker_window must be >= 1 cycle")
        if self.cooldown_cycles < 0 or self.cooldown_cap < 1:
            raise ValueError("cooldown_cycles must be >= 0, cooldown_cap >= 1")


@dataclass
class SupervisorDecision:
    """What to do about one site failure: respawn (after ``backoff``
    seconds) or demote (with the reason; ``breaker_tripped`` marks a
    circuit-breaker trip so the pool can emit the ``breaker-open``
    event)."""

    action: str  # "respawn" | "demote"
    reason: str = ""
    backoff: float = 0.0
    breaker_tripped: bool = False


class SiteSupervisor:
    """Per-site supervision state machine (pure policy, no processes)."""

    def __init__(self, policy: SupervisorPolicy, sites: Sequence[int]) -> None:
        self.policy = policy
        self._rng = random.Random(policy.seed)
        self._demoted: Dict[int, bool] = {s: False for s in sites}
        self._consecutive: Dict[int, int] = {s: 0 for s in sites}
        self._fail_cycles: Dict[int, Deque[int]] = {s: deque() for s in sites}
        self._trips: Dict[int, int] = {s: 0 for s in sites}
        self._breaker_open: Dict[int, bool] = {s: False for s in sites}
        self._next_promote: Dict[int, Optional[int]] = {s: None for s in sites}
        self._cycle = 0

    # -- queries -------------------------------------------------------------

    def demoted(self, site: int) -> bool:
        """Whether the site is matched in-parent rather than by its worker."""
        return self._demoted[site]

    def breaker_open(self, site: int) -> bool:
        return self._breaker_open[site]

    # -- cycle hooks -----------------------------------------------------------

    def begin_cycle(self, cycle: int) -> List[int]:
        """Advance the supervisor clock; return the demoted sites whose
        cool-down has elapsed, due for promotion back to a worker."""
        self._cycle = cycle
        if not self.policy.cooldown_cycles:
            return []
        due = []
        for site, at in self._next_promote.items():
            if at is not None and cycle >= at and self._demoted[site]:
                due.append(site)
        return due

    def on_failure(
        self,
        site: int,
        attempts: int,
        budget_left: bool,
        budget_limit: Optional[int],
    ) -> SupervisorDecision:
        """Record one site failure and decide: respawn or demote.

        ``attempts`` counts respawns already tried for this failure within
        the current cycle (the deterministic-failure guard); the respawn
        budget and the sliding breaker window persist across cycles.
        """
        policy = self.policy
        self._consecutive[site] += 1
        window = self._fail_cycles[site]
        window.append(self._cycle)
        floor = self._cycle - policy.breaker_window
        while window and window[0] <= floor:
            window.popleft()
        if not budget_left:
            return SupervisorDecision(
                "demote", reason=f"respawn budget ({budget_limit}) exhausted"
            )
        if attempts >= MAX_ATTEMPTS_PER_CYCLE:
            return SupervisorDecision(
                "demote",
                reason=f"{attempts} consecutive respawns failed in one cycle",
            )
        if (
            policy.breaker_failures is not None
            and len(window) >= policy.breaker_failures
        ):
            return SupervisorDecision(
                "demote",
                reason=(
                    f"circuit breaker opened: {len(window)} failure(s) "
                    f"within {policy.breaker_window} cycle(s)"
                ),
                breaker_tripped=True,
            )
        backoff = 0.0
        if policy.backoff_base > 0:
            backoff = min(
                policy.backoff_cap,
                policy.backoff_base * (2 ** (self._consecutive[site] - 1)),
            )
            backoff *= 1.0 + policy.backoff_jitter * self._rng.random()
        return SupervisorDecision("respawn", backoff=backoff)

    def on_success(self, site: int) -> bool:
        """Record a healthy reply. Returns ``True`` exactly when this
        closes the site's circuit breaker (back on its worker after a
        trip) so the pool can emit ``breaker-close``."""
        self._consecutive[site] = 0
        if not self._demoted[site] and self._breaker_open[site]:
            self._breaker_open[site] = False
            self._trips[site] = 0
            self._fail_cycles[site].clear()
            self._next_promote[site] = None
            return True
        return False

    # -- transitions -----------------------------------------------------------

    def note_demotion(self, site: int) -> None:
        """Demote the site and schedule its re-promotion after the
        (trip-doubled) cool-down."""
        self._demoted[site] = True
        self._consecutive[site] = 0
        self._breaker_open[site] = True
        self._trips[site] += 1
        self._schedule_promotion(site)

    def note_promotion(self, site: int) -> None:
        """Put the site back on its worker."""
        self._demoted[site] = False
        self._next_promote[site] = None

    def cancel_promotion(self, site: int) -> None:
        """Stop trying to promote the site (e.g. respawn budget gone)."""
        self._next_promote[site] = None

    def _schedule_promotion(self, site: int) -> None:
        policy = self.policy
        if not policy.cooldown_cycles:
            self._next_promote[site] = None
            return
        cool = min(
            policy.cooldown_cap,
            policy.cooldown_cycles * (2 ** max(0, self._trips[site] - 1)),
        )
        self._next_promote[site] = self._cycle + cool
