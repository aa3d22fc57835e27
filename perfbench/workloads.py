"""Seeded inputs, exact expectations and output checks for each workload.

A workload is program text plus a list of facts, both generated here from
the seed; the engine only ever sees those two. Each workload also carries
the exact cycle and firing counts a correct run must produce and a
``verify`` over the final working memory, so every repetition can be
checked without a second engine run.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Set, Tuple

from repro.core import EngineConfig
from repro.lang import format_program
from repro.programs.manners import build_manners
from repro.programs.tc import tc_program

Fact = Tuple[str, Dict[str, Any]]

#: The default path: serial RETE, dict store, flight recorder on.
DEFAULT_PATH: Dict[str, Any] = {}
#: The scale path: two match workers over the shared-memory columnar
#: store, with the column-scan probe kernel.
SCALE_PATH: Dict[str, Any] = {
    "matcher": "process:2",
    "wm_backend": "columnar",
    "vector_probe": True,
}


@dataclass
class Inputs:
    """One seeded workload instance."""

    name: str
    program_text: str
    facts: List[Fact]
    #: ``EngineConfig`` fields of the path under test.
    path: Dict[str, Any]
    expected_cycles: int
    expected_firings: int
    verify: Callable[[Any], bool]
    #: Human-readable input size, printed with the throughput.
    size: str

    def config(self, **overrides: Any) -> EngineConfig:
        return EngineConfig(**{**self.path, **overrides})


def tc_forest(n_chains: int, length: int, seed: int, path: Dict[str, Any], name: str) -> Inputs:
    """Transitive closure over ``n_chains`` disjoint chains of ``length``
    edges. The seed permutes the node labels and the order the edges are
    asserted in; the closure stays analytic: a chain of L edges closes to
    L(L+1)/2 paths, one path length per cycle, so the run takes L cycles
    and fires once per path."""
    rng = random.Random(seed)
    stride = length + 1
    labels = [f"n{i}" for i in range(n_chains * stride)]
    rng.shuffle(labels)
    chains = [labels[c * stride : (c + 1) * stride] for c in range(n_chains)]
    edges = [(ch[i], ch[i + 1]) for ch in chains for i in range(length)]
    rng.shuffle(edges)
    closure: Set[Tuple[str, str]] = {
        (ch[i], ch[j]) for ch in chains for i in range(stride) for j in range(i + 1, stride)
    }

    def verify(wm) -> bool:
        derived = {(w.get("src"), w.get("dst")) for w in wm.by_class("path")}
        return derived == closure and wm.count_class("path") == len(closure)

    return Inputs(
        name=name,
        program_text=format_program(tc_program()),
        facts=[("edge", {"src": a, "dst": b}) for a, b in edges],
        path=path,
        expected_cycles=length,
        expected_firings=len(closure),
        verify=verify,
        size=f"{n_chains} chains x {length} edges, {len(closure)} paths",
    )


class _FactRecorder:
    """Stands in for an engine so a workload's loader yields plain facts."""

    def __init__(self) -> None:
        self.facts: List[Fact] = []

    def make(self, class_name: str, attrs=None, **kw: Any) -> None:
        merged = dict(attrs or {})
        merged.update({k.replace("_", "-"): v for k, v in kw.items()})
        self.facts.append((class_name, merged))


def manners(n_guests: int, seed: int) -> Inputs:
    """Miss-Manners seating; the seed goes to ``build_manners``. Guests are
    seated in name order, one per seat-next cycle, each followed by one
    expose-hobby cycle firing once per distinct hobby of the new occupant:
    2n cycles and n + (number of hobby facts) firings."""
    workload = build_manners(n_guests=n_guests, seed=seed)
    recorder = _FactRecorder()
    workload.setup(recorder)
    hobby_facts = sum(1 for cls, _ in recorder.facts if cls == "hobby")
    return Inputs(
        name="manners-redact",
        program_text=format_program(workload.program),
        facts=recorder.facts,
        path=DEFAULT_PATH,
        expected_cycles=2 * n_guests,
        expected_firings=n_guests + hobby_facts,
        verify=workload.verify_ok,
        size=f"{n_guests} guests, {len(recorder.facts)} facts",
    )


#: Workload name -> builder from seed. Sizes keep each workload's dominant
#: layer (see README.md) while one repetition stays around a second, so that
#: a run holds dozens of repetitions of every cycle.
WORKLOADS: Dict[str, Callable[[int], Inputs]] = {
    "tc-rete": lambda seed: tc_forest(2, 100, seed, DEFAULT_PATH, "tc-rete"),
    "manners-redact": lambda seed: manners(64, seed),
    "tc-proc2-col": lambda seed: tc_forest(30, 20, seed, SCALE_PATH, "tc-proc2-col"),
}


def digest(engine) -> str:
    """Digest of what the run did: cycle count, each cycle's firing set
    (instantiation keys) and the final working memory with timestamps."""
    h = hashlib.sha256()
    h.update(repr(engine.cycle).encode())
    # The engine's firing-order log; each report says how much of it its
    # cycle fired.
    log = engine._fired_log
    start = 0
    for report in engine.reports:
        h.update(repr(sorted(log[start : start + report.fired])).encode())
        start += report.fired
    records, next_ts = engine.wm.dump_records()
    for cls, attrs, ts in records:
        h.update(repr((cls, sorted(attrs.items()), ts)).encode())
    h.update(repr(next_ts).encode())
    return h.hexdigest()
