"""The parallel substrate: what the paper ran on hardware, simulated.

PARULEL was evaluated on real multiprocessors; this reproduction substitutes
a deterministic simulation (see DESIGN.md §2):

- :mod:`repro.parallel.costmodel` — converts the match engines' operation
  counters into abstract time units (per-probe, per-token, per-fire,
  broadcast and barrier costs);
- :mod:`repro.parallel.partition` — rule-to-site assignment (round-robin
  and LPT on profiled weights) and **copy-and-constrain**, the paper's
  data-parallel transformation that splits one hot rule into k copies
  constrained to disjoint data partitions;
- :mod:`repro.parallel.simmachine` — :class:`SimMachine`, a barrier-
  synchronized P-site execution of the PARULEL cycle with one match engine
  per site; per-cycle time is the slowest site (makespan) plus serial
  redaction and barrier costs. Speedup(P) = T(1)/T(P) — Figure 1/2;
- :mod:`repro.parallel.distributed` — :class:`DistributedMachine`, the
  same over per-site working-memory replicas and a message network
  (Figures 5/6);
- :mod:`repro.parallel.sites` — the site-partitioned matcher both
  machines hand the :class:`~repro.core.engine.ParulelEngine` whose
  ``step()`` they drive: the cycle is written once, the machines only
  charge its costs;
- :mod:`repro.parallel.threaded` — a real ``ThreadPoolExecutor`` match
  fan-out, included to exercise genuine concurrency and to document the
  GIL ceiling (Table 4);
- :mod:`repro.parallel.process` — the escape from that ceiling: a
  persistent ``multiprocessing`` worker pool with per-site WM replicas
  kept current by delta shipping (Table 4's ``process`` rows);
- :mod:`repro.parallel.stats` — speedup/efficiency series helpers.
"""

from repro.parallel.costmodel import CostModel
from repro.parallel.distributed import DistResult, DistributedMachine, NetworkModel
from repro.parallel.partition import (
    Assignment,
    copy_and_constrain,
    copy_and_constrain_program,
    hash_partitions,
    lpt_assignment,
    profile_rule_weights,
    rehost_assignment,
    round_robin_assignment,
)
from repro.parallel.process import ProcessMatchPool, ProcessMatcher
from repro.parallel.simmachine import SimMachine, SimResult
from repro.parallel.stats import SpeedupSeries
from repro.parallel.threaded import ThreadedMatchPool

__all__ = [
    "Assignment",
    "CostModel",
    "DistResult",
    "DistributedMachine",
    "NetworkModel",
    "ProcessMatchPool",
    "ProcessMatcher",
    "SimMachine",
    "SimResult",
    "SpeedupSeries",
    "ThreadedMatchPool",
    "copy_and_constrain",
    "copy_and_constrain_program",
    "hash_partitions",
    "lpt_assignment",
    "profile_rule_weights",
    "rehost_assignment",
    "round_robin_assignment",
]
