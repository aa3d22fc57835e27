"""The common matcher interface.

A matcher attaches to a :class:`~repro.wm.memory.WorkingMemory`, observes
every assert/retract, and keeps a :class:`~repro.match.instantiation.ConflictSet`
current. Engines (:mod:`repro.core`, :mod:`repro.baseline`) and the parallel
substrate only ever talk to this interface, so the match algorithm is a
plug-in choice.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

from repro.lang.ast import Rule
from repro.match.compile import CompiledRule, compile_rules
from repro.match.instantiation import ConflictSet, Instantiation
from repro.match.stats import MatchStats
from repro.wm.memory import WorkingMemory
from repro.wm.wme import WME

__all__ = ["Matcher", "create_matcher", "MATCHER_NAMES"]


class Matcher(abc.ABC):
    """Base class for match engines.

    Subclasses implement :meth:`_on_add` / :meth:`_on_remove` (incremental)
    and/or :meth:`_recompute` (batch). The base class wires WM listening,
    compiled-rule storage, statistics, and conflict-set access.
    """

    #: Human-readable engine name (used in reports and ``create_matcher``).
    name: str = "abstract"

    def __init__(
        self, rules: Sequence[Rule], wm: WorkingMemory, indexed: bool = True
    ) -> None:
        #: Hash-indexed alpha memories + join planning on (default) or the
        #: historical nested-loop path (``--no-index``). Same conflict sets
        #: either way; RETE — always hash-joined — ignores it.
        self.indexed = indexed
        self.compiled: tuple[CompiledRule, ...] = compile_rules(rules)
        self.wm = wm
        self.stats = MatchStats()
        self.conflict_set = ConflictSet()
        self._attached = False
        self._build()
        # Feed pre-existing WMEs through the incremental path so attaching
        # to a populated memory behaves like replaying its history.
        for wme in sorted(wm, key=lambda w: w.timestamp):
            self._on_add(wme)
        wm.add_listener(self._listener)
        self._attached = True

    # -- wiring -----------------------------------------------------------

    def _listener(self, wme: WME, added: bool) -> None:
        if added:
            self._on_add(wme)
        else:
            self._on_remove(wme)

    def detach(self) -> None:
        """Stop observing the working memory (matcher becomes stale)."""
        if self._attached:
            self.wm.remove_listener(self._listener)
            self._attached = False

    # -- to implement -------------------------------------------------------

    def _build(self) -> None:
        """Hook: construct engine-internal structures before replay."""

    @abc.abstractmethod
    def _on_add(self, wme: WME) -> None:
        """Incorporate one asserted WME."""

    @abc.abstractmethod
    def _on_remove(self, wme: WME) -> None:
        """Incorporate one retracted WME."""

    # -- queries -----------------------------------------------------------

    def instantiations(self) -> List[Instantiation]:
        """Current conflict set, insertion-ordered, as a stable snapshot."""
        return self.conflict_set.instantiations()

    def rule_names(self) -> List[str]:
        return [cr.name for cr in self.compiled]


#: Registry of engine names accepted by :func:`create_matcher`. ``process``
#: also accepts an explicit worker count as ``process:N``.
MATCHER_NAMES = ("rete", "rete-shared", "treat", "naive", "process")


def create_matcher(
    engine: str,
    rules: Sequence[Rule],
    wm: WorkingMemory,
    *,
    timeout: Optional[float] = None,
    respawn_limit: Optional[int] = None,
    fault_plan=None,
    assignment=None,
    supervisor=None,
    obs=None,
    indexed: bool = True,
    vector_probe: bool = True,
) -> Matcher:
    """Instantiate a match engine by name (``rete``, ``treat``, ``naive`` or
    ``process``/``process:N`` for the multiprocessing fan-out).

    ``timeout`` (per-worker reply deadline, seconds), ``respawn_limit``
    (per-site crash budget before graceful degradation), ``fault_plan``
    (a :class:`~repro.faults.FaultPlan` of injected worker faults),
    ``assignment`` (a rule-to-site policy name — ``"round-robin"`` or
    ``"analysis"`` — or a concrete
    :class:`~repro.parallel.partition.Assignment`) and ``supervisor``
    (a :class:`~repro.resilience.supervisor.SupervisorPolicy` governing
    heartbeats, backoff, circuit breaking and the degradation ladder)
    apply only to the ``process`` backend; passing them for a serial
    engine is an error rather than a silent no-op.

    ``indexed`` is likewise cross-cutting: it selects the hash-indexed
    join kernel (default) or the nested-loop escape hatch (``--no-index``)
    for the enumerator-based engines, and is accepted — and ignored — by
    RETE, whose beta network is always hash-joined.

    ``vector_probe`` follows the same convention: it enables the
    vectorized column-scan probe kernel (``--no-vector-probe`` to
    disable), which only takes effect in ``process`` workers attached to
    a columnar store — every other engine matches over WME objects and
    accepts the flag as a no-op so callers need not special-case it.

    ``obs`` (the engine's :class:`~repro.obs.emit.Obs` emit point) is
    cross-cutting and accepted for every backend: the process pool emits
    worker lanes, IPC counts and per-worker flight rings through it,
    while serial engines — whose work the engine's own phase spans and
    ring records already cover — have nothing extra to emit and ignore
    it. It never changes match behaviour, so unlike the process-only
    knobs it is not an error elsewhere.
    """
    # Imported here to avoid a cycle (engines import this interface).
    from repro.match.naive import NaiveMatcher
    from repro.match.rete import ReteMatcher, SharedReteMatcher
    from repro.match.treat import TreatMatcher

    if engine == "process" or engine.startswith("process:"):
        from repro.parallel.process import DEFAULT_TIMEOUT, ProcessMatcher

        n_workers = None
        if ":" in engine:
            try:
                n_workers = int(engine.split(":", 1)[1])
            except ValueError:
                raise ValueError(
                    f"bad worker count in match engine spec {engine!r} "
                    f"(expected process:<int>)"
                ) from None
        return ProcessMatcher(
            rules,
            wm,
            n_workers=n_workers,
            assignment=assignment,
            timeout=timeout if timeout is not None else DEFAULT_TIMEOUT,
            respawn_limit=respawn_limit,
            fault_plan=fault_plan,
            supervisor=supervisor,
            obs=obs,
            indexed=indexed,
            vector_probe=vector_probe,
        )

    if (
        timeout is not None
        or respawn_limit is not None
        or fault_plan is not None
        or assignment is not None
        or supervisor is not None
    ):
        raise ValueError(
            f"timeout/respawn_limit/fault_plan/assignment/supervisor only "
            f"apply to the 'process' backend, not {engine!r}"
        )

    table = {
        "rete": ReteMatcher,
        "rete-shared": SharedReteMatcher,
        "treat": TreatMatcher,
        "naive": NaiveMatcher,
    }
    try:
        cls = table[engine]
    except KeyError:
        raise ValueError(
            f"unknown match engine {engine!r} (choose from {MATCHER_NAMES})"
        ) from None
    return cls(rules, wm, indexed=indexed)
