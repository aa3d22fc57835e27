"""Per-site match state of the cost-model machines.

:class:`SiteMatchers` is the site-partitioned matcher that
:class:`~repro.parallel.simmachine.SimMachine` and
:class:`~repro.parallel.distributed.DistributedMachine` pass to the
:class:`~repro.core.engine.ParulelEngine` they step, plus the bookkeeping
both charge their costs from.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence

from repro.lang.ast import Rule
from repro.match.instantiation import Instantiation
from repro.match.interface import Matcher, create_matcher
from repro.match.stats import MatchStats
from repro.wm.memory import WorkingMemory
from repro.wm.wme import WME

__all__ = ["SiteMatchers"]


class SiteMatchers:
    """One matcher per site over the rules it hosts, attached to the store
    the site reads, behind the engine's one-matcher interface.

    ``canonical`` orders the gathered instantiations by ``(rule position in
    the program, instantiation key)`` instead of by site, so the firing
    order does not depend on which site hosts a rule.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        n_sites: int,
        matcher: str = "rete",
        indexed: bool = True,
        canonical: bool = False,
    ) -> None:
        self.matcher_name, self.indexed = matcher, indexed
        self._rank = {r.name: i for i, r in enumerate(rules)} if canonical else None
        #: ``None`` for a site without match state (a crashed site).
        self.matchers: List[Optional[Matcher]] = [None] * n_sites
        #: The classes each site's rules read: multicast delivers a WM
        #: change only to the sites that read its class.
        self.interests: List[frozenset] = [frozenset()] * n_sites
        #: What the last :meth:`instantiations` call returned.
        self.last: List[Instantiation] = []
        self._marks: Dict[Matcher, Counter] = {}
        self._added: Dict[int, str] = {}
        self._removed: List[str] = []

    def build(self, site: int, rules: Sequence[Rule], wm: WorkingMemory) -> None:
        """(Re)build ``site``'s matcher over ``rules``. It replays ``wm``,
        so that work lands in the site's next :meth:`ops` delta."""
        self.drop(site)
        matcher = create_matcher(self.matcher_name, rules, wm, indexed=self.indexed)
        self.matchers[site] = matcher
        self.interests[site] = frozenset(
            ce.class_name for compiled in matcher.compiled for ce in compiled.ces
        )

    def drop(self, site: int) -> None:
        old = self.matchers[site]
        if old is not None:
            old.detach()
            self._marks.pop(old, None)
        self.matchers[site] = None

    def ops(self, matcher: Optional[Matcher]) -> Counter:
        """Match-op counters ``matcher`` (a site's, or any other) accrued
        since the previous call for it."""
        if matcher is None:
            return Counter()
        now = matcher.stats.snapshot()
        delta = now - self._marks.get(matcher, Counter())
        self._marks[matcher] = now
        return delta

    # -- the engine's matcher interface -------------------------------------

    def instantiations(self) -> List[Instantiation]:
        insts = [i for m in self.matchers if m is not None for i in m.instantiations()]
        if self._rank is not None:
            rank = self._rank
            insts.sort(key=lambda i: (rank[i.rule.name], i.key))
        self.last = insts
        return insts

    @property
    def stats(self) -> MatchStats:
        """All sites' counters, summed."""
        total = MatchStats()
        for matcher in self.matchers:
            if matcher is not None:
                total.totals.update(matcher.stats.totals)
        return total

    # -- changed classes (multicast accounting) ------------------------------

    def watch(self, wm: WorkingMemory) -> None:
        """Track the classes of ``wm``'s net changes for :meth:`drain_changes`."""
        wm.add_listener(self._on_change)

    def _on_change(self, wme: WME, added: bool) -> None:
        if added:
            self._added[wme.timestamp] = wme.class_name
        elif self._added.pop(wme.timestamp, None) is None:
            self._removed.append(wme.class_name)

    def drain_changes(self) -> Counter:
        """Classes of the WMEs asserted or retracted since the last drain; a
        WME asserted and retracted in between (a reification) counts none."""
        changed = Counter(self._removed)
        changed.update(self._added.values())
        self._added, self._removed = {}, []
        return changed

    def relevant(self, site: int, changed: Counter) -> int:
        """How many of the ``changed`` WMEs the rules at ``site`` read."""
        return sum(n for cls, n in changed.items() if cls in self.interests[site])
