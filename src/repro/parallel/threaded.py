"""Real-thread match fan-out (Table 4: the GIL ceiling, measured).

The reproduction bands for this paper note that CPython's GIL hides the
data-parallel firing benefits a real multiprocessor shows. Rather than skip
the experiment, this module *measures* that: :class:`ThreadedMatchPool`
computes the conflict set by fanning per-site naive re-matching out to a
``ThreadPoolExecutor`` — an embarrassingly parallel, read-only workload that
WOULD scale on the paper's hardware — and Table 4 reports the (lack of)
wall-clock speedup with 1..N threads.

The pool is semantically interchangeable with the incremental matchers (it
returns the same conflict sets; differential tests assert this), just slow —
it exists to exercise a genuine concurrent code path, not to win.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence

from repro.lang.ast import Rule
from repro.match.alphaindex import AlphaCache
from repro.match.compile import CompiledRule, compile_rules
from repro.match.instantiation import Instantiation
from repro.obs.emit import Obs
from repro.parallel.partition import Assignment, round_robin_assignment
from repro.parallel.process import match_rules
from repro.wm.memory import WorkingMemory

__all__ = ["ThreadedMatchPool"]


class ThreadedMatchPool:
    """Computes conflict sets with one worker thread per site.

    Working memory is read-only during :meth:`conflict_set` — the caller
    must not mutate it concurrently (the engines never do: match and apply
    are separate phases of the cycle).

    Observability goes through one :class:`~repro.obs.emit.Obs` wrapping
    the ``tracer``/``metrics``/``flightrec`` given. Each site's match runs under a span on its own ``thread-<site>`` lane (the
    tracer is thread-safe, and the lanes make the GIL serialization this
    module measures *visible*: the spans overlap in wall-clock but their
    work interleaves). With a flight recorder, each site journals
    site-tagged request/reply records straight into the *parent* ring
    (same process, no shared-memory ring needed; the ring's append lock
    makes this thread-safe). The skew report folds site-tagged
    parent-ring records exactly like per-worker rings, so thread pools get
    busy-window analytics for free.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        wm: WorkingMemory,
        n_threads: int,
        assignment: Optional[Assignment] = None,
        tracer=None,
        metrics=None,
        flightrec=None,
        indexed: bool = True,
    ) -> None:
        if n_threads < 1:
            raise ValueError("need at least one thread")
        self.obs = Obs(tracer, metrics, flightrec)
        self._cycle = 0
        self.wm = wm
        self.indexed = indexed
        # One shared alpha cache across all sites, kept current via WM
        # listener. Read-mostly: concurrent lazy priming from worker
        # threads is benign (identical contents, GIL-atomic installs).
        self._alpha: Optional[AlphaCache] = None
        if indexed:
            self._alpha = AlphaCache(wm)
            self._alpha.attach()
        self.n_threads = n_threads
        self.assignment = assignment or round_robin_assignment(rules, n_threads)
        compiled = compile_rules(rules)
        self._site_rules: List[List[CompiledRule]] = [[] for _ in range(n_threads)]
        for cr in compiled:
            self._site_rules[self.assignment.site_of[cr.name]].append(cr)
        #: Sites that carry at least one rule — the only ones worth a
        #: future (with ``n_threads > len(rules)`` the rest are no-ops).
        self.active_sites = tuple(
            s for s in range(n_threads) if self._site_rules[s]
        )
        self._pool = ThreadPoolExecutor(max_workers=max(1, len(self.active_sites)))

    def _match_site(self, site: int) -> List[Instantiation]:
        obs, cycle = self.obs, self._cycle
        obs.match_request(cycle, 0, site=site)
        with obs.span("match", lane=f"thread-{site}", cycle=cycle):
            out, times = match_rules(
                self._site_rules[site], self.wm, self._alpha, self.indexed
            )
        obs.rule_times(site, times)
        obs.match_reply(cycle, len(out), site=site)
        return out

    def conflict_set(self) -> List[Instantiation]:
        """Full conflict set, deterministic order (site 0's rules first)."""
        self._cycle += 1
        futures = [
            self._pool.submit(self._match_site, site)
            for site in self.active_sites
        ]
        merged: List[Instantiation] = []
        for fut in futures:
            merged.extend(fut.result())
        return merged

    def close(self) -> None:
        if self._alpha is not None:
            self._alpha.detach()
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ThreadedMatchPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
