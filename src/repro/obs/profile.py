"""Per-rule profiling: the hot-rule table.

The engine and match backends publish per-rule series into a
:class:`~repro.obs.metrics.MetricsRegistry` (see the metric catalog in
``docs/OBSERVABILITY.md``); this module folds them into one table per
rule — match time where the backend can attribute it (process workers,
degraded in-parent matching, the threaded pool), RHS evaluation time,
candidate counts, firings, and redactions — sorted hottest first. This
is the artifact ``parulel profile`` prints, and the answer to "which rule
should the next optimization PR attack".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.metrics.report import Table
from repro.obs.metrics import MetricsRegistry

__all__ = ["RuleProfile", "hot_rule_table", "rule_profiles"]

#: Metric names the profiler consumes (kept in one place so the engine,
#: backends, docs, and tests agree).
RULE_CANDIDATES = "parulel_rule_candidates_total"
RULE_FIRINGS = "parulel_rule_firings_total"
RULE_REDACTIONS = "parulel_rule_redactions_total"
RULE_EVAL_SECONDS = "parulel_rule_eval_seconds"
RULE_MATCH_SECONDS = "parulel_rule_match_seconds"
#: Per-cycle engine phase durations (seconds), labelled by phase key.
PHASE_SECONDS = "parulel_phase_seconds"
#: Per-op match-kernel work counters (``op`` label = a
#: :data:`repro.match.stats.COUNTER_NAMES` entry), exported by the engine
#: as per-cycle deltas of the matcher's MatchStats totals.
MATCH_OPS = "parulel_match_ops_total"
#: Candidates whose reification the certified commutativity fast path
#: skipped (``EngineConfig.certified_commute``).
REDACTION_SKIPPED = "parulel_redaction_skipped_total"
#: Fired pairs the runtime race sanitizer replayed in both orders
#: (``EngineConfig.sanitize_races``).
SANITIZER_REPLAYS = "parulel_sanitizer_replays_total"
#: Rows the vectorized probe kernel scanned column-natively (``site``
#: label), and probes that left the packed-key path for decoded
#: comparison — the scan-vs-decode attribution the skew reports read.
VECTOR_SCAN_ROWS = "parulel_vector_scan_rows_total"
VECTOR_PROBE_FALLBACK = "parulel_vector_probe_fallback_total"
#: Gauges exported by ``parulel blackbox report``
#: (:func:`repro.obs.blackbox.skew_report`): a site's mean per-cycle busy
#: time over the all-site mean, and a rule's share of total attributed
#: time — the skew signal the adaptive-scheduling roadmap item consumes.
SITE_SKEW_RATIO = "parulel_site_skew_ratio"
RULE_TIME_SHARE = "parulel_rule_time_share"


@dataclass
class RuleProfile:
    """Aggregated per-rule observations for one run."""

    rule: str
    candidates: int = 0
    fired: int = 0
    redacted: int = 0
    eval_seconds: float = 0.0
    #: ``None`` when no backend attributed match time to this rule (the
    #: incremental RETE/TREAT engines cannot split their network work per
    #: rule; the process/threaded/naive paths can).
    match_seconds: Optional[float] = None
    sites: List[str] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return (self.match_seconds or 0.0) + self.eval_seconds


def _rule_of(labels) -> Optional[str]:
    return dict(labels).get("rule")


def rule_profiles(metrics: MetricsRegistry) -> List[RuleProfile]:
    """Fold the registry's per-rule series into :class:`RuleProfile`\\ s,
    hottest (most attributed time, then most candidates) first."""
    profiles: Dict[str, RuleProfile] = {}

    def get(rule: str) -> RuleProfile:
        profile = profiles.get(rule)
        if profile is None:
            profile = profiles[rule] = RuleProfile(rule)
        return profile

    for labels, value in metrics.series(RULE_CANDIDATES).items():
        rule = _rule_of(labels)
        if rule is not None:
            get(rule).candidates += int(value)
    for labels, value in metrics.series(RULE_FIRINGS).items():
        rule = _rule_of(labels)
        if rule is not None:
            get(rule).fired += int(value)
    for labels, value in metrics.series(RULE_REDACTIONS).items():
        rule = _rule_of(labels)
        if rule is not None:
            get(rule).redacted += int(value)
    for labels, summary in metrics.histogram_series(RULE_EVAL_SECONDS).items():
        rule = _rule_of(labels)
        if rule is not None:
            get(rule).eval_seconds += summary["sum"]
    for labels, summary in metrics.histogram_series(RULE_MATCH_SECONDS).items():
        rule = _rule_of(labels)
        if rule is None:
            continue
        profile = get(rule)
        profile.match_seconds = (profile.match_seconds or 0.0) + summary["sum"]
        site = dict(labels).get("site")
        if site is not None and site not in profile.sites:
            profile.sites.append(site)
    return sorted(
        profiles.values(),
        key=lambda p: (-p.total_seconds, -p.candidates, p.rule),
    )


def hot_rule_table(metrics: MetricsRegistry, top: Optional[int] = None) -> Table:
    """The hot-rule table (times in ms; ``-`` where a backend could not
    attribute match time per rule)."""
    table = Table(
        "hot rules (most attributed time first)",
        ("rule", "match_ms", "eval_ms", "candidates", "fired", "redacted"),
        precision=3,
    )
    rows = rule_profiles(metrics)
    if top is not None:
        rows = rows[:top]
    for p in rows:
        table.add(
            p.rule,
            None if p.match_seconds is None else p.match_seconds * 1000.0,
            p.eval_seconds * 1000.0,
            p.candidates,
            p.fired,
            p.redacted,
        )
    return table
