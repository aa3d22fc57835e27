"""Flight-recorder event kinds and phase codes.

The numeric vocabulary of the black-box rings (:mod:`repro.obs.flightrec`)
kept apart from the ring machinery, so the emit point
(:mod:`repro.obs.emit`) and the match pools can name record kinds without
importing shared memory.
"""

from __future__ import annotations

from typing import Dict, Tuple

EV_CYCLE = 1  # cycle boundary: a=fired, b=conflict-set size
EV_PHASE = 2  # phase complete: code=phase id, a=duration ns
EV_FIRE = 3  # one firing evaluated: code=rule id, a=eval ns
EV_REDACT = 4  # redaction verdict: a=candidates, b=redacted
EV_CHURN = 5  # conflict-set churn: a=instantiations, b=candidates
EV_CHECKPOINT = 6  # checkpoint written: code 0=full, 1=delta
EV_FAULT = 7  # fault / supervisor / ladder event: code=interned kind, a=site
EV_RACE = 8  # commutativity race: code=rule id, a=other rule id
EV_REPLAY = 9  # sanitizer shadow replay: a=pairs replayed
EV_HALT = 10  # engine halted
EV_DUMP = 11  # blackbox dump about to be written: code=interned reason
EV_WORKER_START = 20  # worker process up: a=pid
EV_WORKER_EXIT = 21  # worker saw "stop"
EV_MATCH_REQ = 22  # match request received: a=deltas shipped (-1: shm refresh)
EV_RULE_BEGIN = 23  # about to match one rule: code=rule id
EV_RULE_END = 24  # rule matched: code=rule id, a=instantiations found
EV_MATCH_REPLY = 25  # reply sent: a=summaries returned
EV_ATTACH = 26  # worker attached to a shared store/ring
EV_VECTOR_SCAN = 27  # vectorized scan batch: a=rows scanned, b=WMEs materialized, code=fallback probes (clamped)

KIND_NAMES: Dict[int, str] = {
    EV_CYCLE: "cycle",
    EV_PHASE: "phase",
    EV_FIRE: "fire",
    EV_REDACT: "redact",
    EV_CHURN: "churn",
    EV_CHECKPOINT: "checkpoint",
    EV_FAULT: "fault",
    EV_RACE: "race",
    EV_REPLAY: "replay",
    EV_HALT: "halt",
    EV_DUMP: "dump",
    EV_WORKER_START: "worker-start",
    EV_WORKER_EXIT: "worker-exit",
    EV_MATCH_REQ: "match-req",
    EV_RULE_BEGIN: "rule-begin",
    EV_RULE_END: "rule-end",
    EV_MATCH_REPLY: "match-reply",
    EV_ATTACH: "attach",
    EV_VECTOR_SCAN: "vector-scan",
}

#: Engine phase ids used as ``code`` on :data:`EV_PHASE` records.
PHASE_NAMES: Tuple[str, ...] = ("match", "redact", "act", "merge")
PHASE_CODES: Dict[str, int] = {name: i for i, name in enumerate(PHASE_NAMES)}

#: Fault kinds that mean a worker died (or was declared dead) — seeing one
#: of these in a cycle's drained fault events triggers a crash dump even
#: though the engine itself keeps running (degraded or respawned).
DEATH_KINDS = frozenset(
    {"kill", "wedge", "heartbeat-miss", "respawn", "worker-error"}
)
