"""Developer tooling on top of the core library.

- :mod:`repro.tools.dot` — Graphviz DOT export of RETE networks and
  provenance (derivation) graphs; pure text, no graphviz dependency;
- :mod:`repro.tools.diff` — content-level diffs between working memories
  (what a cycle/run added and removed, ignoring timestamps).
"""

from repro.tools.diff import WMDiff, diff_wm
from repro.tools.dot import provenance_to_dot, rete_to_dot
from repro.tools.lint import (
    find_interference_candidates,
    lint_program,
    suggest_meta_rules,
)

__all__ = [
    "WMDiff",
    "diff_wm",
    "find_interference_candidates",
    "lint_program",
    "provenance_to_dot",
    "rete_to_dot",
    "suggest_meta_rules",
]
