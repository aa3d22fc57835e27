"""Process-parallel match fan-out: real data parallelism past the GIL.

:mod:`repro.parallel.threaded` measures the GIL ceiling — pure-Python match
work fanned out to threads does not scale, which Table 4 documents. This
module is the escape hatch: :class:`ProcessMatchPool` keeps one persistent
``multiprocessing`` worker per site, partitions the rules across sites with
the same :class:`~repro.parallel.partition.Assignment` machinery the
simulated machines use, and computes the conflict set with genuinely
concurrent interpreters (one GIL each).

What keeps it fast and correct:

- **Delta shipping.** Each worker owns a private working-memory replica.
  Per cycle the pool sends every current worker only the increment since
  the previous cycle — never the whole memory: journal cursors into the
  shared columns on the columnar store, the net adds/removes drained from
  a :class:`~repro.wm.memory.DeltaRecorder` on the dict store.
  Timestamps identify WMEs across replicas, so removes are a timestamp
  list and adds are ``(class, attrs, timestamp)`` records.
- **One catch-up path.** A worker spawned at start, respawned after a
  failure or promoted after a demotion is *stale*; its next request is
  the catch-up instead of the increment — the attach spec plus the
  cycle's cursor message (columnar), the whole wire-delta log (dict).
  Each distinct message is pickled once per cycle.
- **Deterministic merge.** Workers return compact match summaries
  ``(rule name, per-CE timestamps, environment)``; the parent rebuilds
  :class:`~repro.match.instantiation.Instantiation` objects against its own
  WME store and concatenates per-site results in site order, rules in
  compiled order within a site — byte-identical to the sequential matchers
  (the differential suite asserts this).
- **Robustness.** Every cycle applies a per-worker timeout; a crashed,
  wedged, or killed worker is respawned, caught up, and re-asked for its
  site's matches. A run survives ``kill -9`` of any worker mid-cycle
  (tests inject exactly that).
- **Supervised demotion.** Each site has a respawn budget
  (``respawn_limit``; ``None`` = unlimited) and a
  :class:`~repro.resilience.supervisor.SupervisorPolicy` deciding when to
  retry and when to give up. When a site's worker keeps dying past its
  budget (or trips the policy's circuit breaker), the pool stops
  respawning and *demotes* the site: its rules are matched in-parent by
  the serial join engine. The run stays alive — slower on that site,
  never wrong — instead of raising :class:`~repro.errors.MatchError`.
  Because the parent WM holds exactly the replica contents in the same
  order, in-parent results are byte-identical to worker results.
  Policies can add seeded respawn backoff, ping/pong heartbeat probes
  (catching a wedged worker *before* a request burns the reply deadline),
  and a cool-down after which the site is promoted straight back to a
  fresh worker. The default policy is the pool's historical behaviour:
  immediate respawns, permanent demotion. Every respawn, demotion,
  backoff, heartbeat miss, breaker transition and promotion is a
  :class:`~repro.faults.FaultEvent`; engines drain them per cycle via
  :meth:`ProcessMatcher.drain_fault_events` into the
  :class:`~repro.core.engine.CycleReport`.
- **Fault injection.** A :class:`~repro.faults.FaultPlan` can schedule
  real ``SIGKILL`` (``kills``) and ``SIGSTOP`` (``wedges``) against
  workers at a given conflict-set cycle, driving the recovery machinery
  deterministically under test.
- **Lifecycle.** ``close()`` is idempotent, bounded (a 1 s join per worker
  before an unconditional kill — even a SIGSTOP'd worker cannot stall it),
  the pool is a context manager, and workers are daemonic so a leaked pool
  cannot wedge interpreter shutdown.

:class:`ProcessMatcher` adapts the pool to the standard
:class:`~repro.match.interface.Matcher` interface so engines can select it
with ``EngineConfig(matcher="process")`` (or ``"process:N"`` for an
explicit worker count) like any other backend.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time
from multiprocessing.connection import Connection
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import MatchError
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.lang.ast import Rule, Value
from repro.match.alphaindex import AlphaCache, ColumnVectorCache
from repro.match.compile import CompiledRule, compile_rules
from repro.match.instantiation import ConflictSet, Instantiation
from repro.match.interface import Matcher
from repro.match.join import enumerate_matches
from repro.obs.emit import Obs
from repro.obs.events import EV_RULE_BEGIN, EV_RULE_END
from repro.parallel.partition import Assignment, resolve_assignment
from repro.resilience.supervisor import SiteSupervisor, SupervisorPolicy
from repro.wm.columnar import ColumnarReader, ColumnarWorkingMemory
from repro.wm.memory import DeltaRecorder, WMDelta, WorkingMemory
from repro.wm.wme import WME

__all__ = ["ProcessMatchPool", "ProcessMatcher", "default_worker_count"]

#: One match found by a worker: (rule name, per-CE timestamps (0 for a
#: negated CE), variable environment). Small, picklable, and enough for the
#: parent to rebuild the Instantiation against its own WME objects.
MatchSummary = Tuple[str, Tuple[int, ...], Dict[str, Value]]

#: Per-worker, per-cycle reply deadline (seconds). Generous: it exists to
#: unwedge a hung worker, not to police slow matches. Override per run with
#: ``ProcessMatchPool(timeout=...)`` or the CLI's ``--matcher-timeout``.
DEFAULT_TIMEOUT = 60.0


def default_worker_count() -> int:
    """Workers to use when the caller does not say: the usable cores,
    capped at 4 (the paper-era site counts; fan-out beyond match
    parallelism only adds IPC)."""
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        n = os.cpu_count() or 1
    return max(1, min(4, n))


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _pickle(msg: tuple) -> bytes:
    """One pipe message, serialized once (see ``_try_send_bytes``)."""
    return pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)


def _summaries(insts: List[Instantiation]) -> List[MatchSummary]:
    """The wire form of matched instantiations (see :data:`MatchSummary`)."""
    return [
        (
            inst.rule.name,
            tuple(w.timestamp if w is not None else 0 for w in inst.wmes),
            inst.env,
        )
        for inst in insts
    ]


def match_rules(
    compiled: Sequence[CompiledRule],
    wm: WorkingMemory,
    alpha_source,
    indexed: bool,
    ring=None,
    rule_ids: Optional[Dict[str, int]] = None,
    cycle: int = 0,
) -> Tuple[List[Instantiation], List[Tuple[str, float]]]:
    """The one per-site rule-match loop (process workers, demoted sites,
    the threaded pool): every instantiation of ``compiled`` in rule order,
    plus each rule's match seconds. With a worker's shared ``ring`` (and
    its ``rule_ids`` map) each rule sits between ``EV_RULE_BEGIN`` and
    ``EV_RULE_END`` records, so a SIGKILL mid-rule leaves an unmatched
    BEGIN in the ring — what the post-mortem "last in-flight rule" reads."""
    out: List[Instantiation] = []
    times: List[Tuple[str, float]] = []
    for cr in compiled:
        t0 = time.perf_counter()
        if ring is not None:
            rid, n0 = rule_ids.get(cr.name, 0), len(out)
            ring.record(EV_RULE_BEGIN, cycle, rid)
        out.extend(enumerate_matches(cr, wm, alpha_source=alpha_source, indexed=indexed))
        if ring is not None:
            ring.record(EV_RULE_END, cycle, rid, len(out) - n0)
        times.append((cr.name, time.perf_counter() - t0))
    return out, times


def _worker_main(
    conn: Connection,
    rules: Tuple[Rule, ...],
    ships: bool = False,
    indexed: bool = True,
    vector: bool = True,
    flight: Optional[Tuple[str, Dict[str, int]]] = None,
) -> None:
    """Worker loop: maintain a WM replica, answer match requests.

    Protocol (parent → worker):

    - ``("match", [wire_delta, ...])`` — apply the pickled deltas in
      order, then reply ``("ok", ([MatchSummary, ...], obs_payload))``
      for this site's rules, where ``obs_payload`` is the worker's span
      buffer, per-rule match times and vector-probe deltas when ``ships``
      is on, else ``None`` (:meth:`~repro.obs.emit.Obs.payload`);
    - ``("attach", spec)`` — columnar mode: attach the parent's
      shared-memory columns (:class:`~repro.wm.columnar.ColumnarReader`)
      and build the replica from the liveness snapshot; no reply;
    - ``("match-shm", info)`` — columnar mode: refresh the replica from
      the shared delta journal up to the message's cursors, then match
      and reply exactly as ``"match"`` does;
    - ``("ping", token)`` — liveness probe: reply ``("pong", token)``
      immediately (a wedged or dead worker cannot);
    - ``("stop",)`` — exit.

    Any exception is reported as ``("err", message)``; the parent treats it
    as fatal (a deterministic error would recur on respawn).

    With ``vector`` (and ``indexed``) on, a columnar attach switches the
    worker onto the vectorized probe kernel: no replica WM is populated at
    all — alpha memories are row-id sets over the shared columns
    (:class:`~repro.match.alphaindex.ColumnVectorCache`), refresh advances
    the journal without materializing, and WMEs are decoded lazily for
    probe survivors only. Delta mode and ``vector=False`` keep the replica
    path, with the bootstrap batched class-by-class through
    ``wm.bulk_load`` / ``AlphaCache.bulk_add``.

    The worker emits through its own :class:`~repro.obs.emit.Obs`. With
    ``ships`` on it runs a local :class:`~repro.obs.Tracer` (spans
    rewritten to ``worker-<site>`` by the parent at ingest) —
    ``perf_counter_ns`` stamps share the parent's monotonic base, so the
    shipped spans land on the parent's timeline unadjusted.

    ``flight`` is the flight-recorder spec ``(ring segment name, rule-id
    map)``: the worker attaches the *parent-created* shared-memory ring
    and journals its lifecycle (start/stop, match requests, per-rule
    begin/end, replies) into it. Because the parent owns the segment and
    keeps it mapped, those records survive this worker being SIGKILLed
    mid-rule — that is the whole point. A respawned worker re-attaches
    the same ring and continues the sequence.
    """
    obs = Obs.for_worker(ships, flight)
    rule_ids = flight[1] if flight is not None else None
    obs.worker_start(os.getpid())
    compiled = compile_rules(rules)
    wm = WorkingMemory()
    by_ts: Dict[int, WME] = {}
    # Worker-side indexed alpha memories, rebuilt incrementally from the
    # shipped deltas (or the shared journal): both paths go through
    # wm.add/remove, which notify the attached cache's listener. Created
    # lazily so a columnar bootstrap can bulk-load the replica first —
    # the cache then primes per class via bulk_add instead of replaying
    # one listener callback per WME.
    alpha: Optional[AlphaCache] = None
    reader: Optional[ColumnarReader] = None
    #: Column-native alpha source; set on attach in vector mode, in which
    #: case ``wm``/``by_ts``/``alpha`` stay empty and unused.
    vcache: Optional[ColumnVectorCache] = None
    vec_prev = {"scanned": 0, "materialized": 0, "fallback": 0, "probes": 0}
    cycle = 0

    def ensure_alpha() -> Optional[AlphaCache]:
        nonlocal alpha
        if alpha is None and indexed:
            alpha = AlphaCache(wm)
            alpha.attach()
        return alpha

    def replica_add(wme: WME) -> None:
        wm.add(wme)
        by_ts[wme.timestamp] = wme

    def replica_remove(wme: WME) -> None:
        del by_ts[wme.timestamp]
        wm.remove(wme)

    def bootstrap_class(_name: str, batch: List[WME]) -> None:
        wm.bulk_load(batch)
        for wme in batch:
            by_ts[wme.timestamp] = wme

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            msg = None
        if msg is None or msg[0] == "stop":
            if reader is not None:
                reader.close()
            obs.worker_exit(cycle, pipe_lost=msg is None)
            return
        try:
            tag = msg[0]
            if tag == "attach":
                if reader is not None:
                    reader.close()
                reader = ColumnarReader(msg[1])
                with obs.span("attach", lane="worker"):
                    if vector and indexed:
                        # Vector mode: nothing is materialized up front —
                        # memories prime themselves from the liveness
                        # columns on first use.
                        vcache = ColumnVectorCache(reader)
                    else:
                        reader.attach_bulk(bootstrap_class)
                continue
            if tag == "ping":
                conn.send(("pong", msg[1]))
                continue
            cycle += 1
            obs.match_request(cycle, len(msg[1]) if tag == "match" else -1)
            if tag == "match-shm":
                with obs.span("refresh-journal", lane="worker", cycle=cycle):
                    if vcache is not None:
                        vcache.refresh(msg[1])
                    else:
                        reader.refresh(msg[1], replica_add, replica_remove)
            else:
                deltas = msg[1]
                if deltas:
                    with obs.span(
                        "apply-delta", lane="worker", cycle=cycle, deltas=len(deltas)
                    ):
                        for wire in deltas:
                            WMDelta.apply_wire(wm, by_ts, wire)
            alpha_source = vcache if vcache is not None else ensure_alpha()
            with obs.span("match", lane="worker", cycle=cycle, rules=len(compiled)):
                insts, rule_times = match_rules(
                    compiled, wm, alpha_source, indexed, obs.flightrec, rule_ids, cycle
                )
                out = _summaries(insts)
            vec_stats: Optional[Dict[str, int]] = None
            if vcache is not None:
                cur = vcache.counters()
                vec_stats = {k: cur[k] - vec_prev[k] for k in cur}
                vec_prev = cur
                obs.vector_scan(cycle, vec_stats)
            conn.send(("ok", (out, obs.payload(rule_times, vec_stats))))
            obs.match_reply(cycle, len(out))
        except Exception as exc:  # noqa: BLE001 - forwarded to the parent
            try:
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
            except (BrokenPipeError, OSError):
                return


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class ProcessMatchPool:
    """Conflict-set computation fanned out to persistent worker processes.

    Rules are partitioned across ``n_workers`` sites (round-robin unless an
    :class:`~repro.parallel.partition.Assignment` is given); sites with no
    rules get no process. Working memory must not be mutated while
    :meth:`conflict_set` runs — the engines never do (match and apply are
    separate phases of the cycle).
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        wm: WorkingMemory,
        n_workers: int,
        assignment: "Optional[Assignment | str]" = None,
        timeout: Optional[float] = DEFAULT_TIMEOUT,
        start_method: Optional[str] = None,
        respawn_limit: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        supervisor: Optional[SupervisorPolicy] = None,
        obs: Optional[Obs] = None,
        indexed: bool = True,
        vector_probe: bool = True,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        # An unconfigured timeout must never mean "wait forever": a worker
        # that dies between request and reply would hang the parent.
        if timeout is None:
            timeout = DEFAULT_TIMEOUT
        if timeout <= 0:
            raise ValueError("timeout must be > 0 seconds")
        if respawn_limit is not None and respawn_limit < 0:
            raise ValueError("respawn_limit must be >= 0 (None for unlimited)")
        #: The emit point (the engine's; a detached one for standalone
        #: use); workers only record spans and rule timings when it
        #: ``ships`` them, a flag that rides along on every spawn.
        self.obs = obs or Obs()
        self.wm = wm
        self.indexed = indexed
        #: Vectorized probe kernel in columnar workers. Requires the
        #: indexed join path (the kernel *is* a set of hash indexes);
        #: ``--no-index`` ablations therefore imply ``--no-vector-probe``.
        self.vector = bool(vector_probe) and indexed
        #: Parent-side alpha cache for degraded sites, created on first
        #: degradation (no listener overhead while every worker is healthy).
        self._parent_alpha: Optional[AlphaCache] = None
        self.n_workers = n_workers
        self.timeout = timeout
        self.respawn_limit = respawn_limit
        self.assignment = resolve_assignment(assignment, rules, n_workers)
        self._rules_by_name: Dict[str, Rule] = {r.name: r for r in rules}
        self._site_rules: List[List[Rule]] = [[] for _ in range(n_workers)]
        for rule in rules:
            self._site_rules[self.assignment.site_of[rule.name]].append(rule)
        #: Sites that actually carry rules — the only ones given a process.
        self.active_sites: Tuple[int, ...] = tuple(
            s for s in range(n_workers) if self._site_rules[s]
        )
        if start_method is None:
            start_method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self._ctx = multiprocessing.get_context(start_method)
        #: Shared-attach mode: the store's columns live in shared memory,
        #: so workers attach once and refresh from the shared delta
        #: journal — no per-cycle delta pickling at all.
        self._shared = isinstance(wm, ColumnarWorkingMemory)
        #: Parent-side timestamp index for rebuilding Instantiations with
        #: the exact WME objects the sequential matchers would use, kept
        #: current by one listener on either store.
        self._wme_by_ts: Dict[int, WME] = {w.timestamp: w for w in wm}
        wm.add_listener(self._ts_listener)
        #: Dict store only: the net WM change per cycle, and the
        #: cumulative wire-delta log since pool creation (a stale worker's
        #: catch-up).
        self._recorder = None if self._shared else DeltaRecorder(wm)
        self._log: List[tuple] = []
        #: Sites whose worker was just (re)spawned and has not been sent
        #: its catch-up yet (see :meth:`_request`).
        self._stale: Set[int] = set()
        #: This cycle's pickled messages: the increment every current
        #: worker gets, and (built on first use) a stale worker's catch-up.
        self._step_blob = b""
        self._catchup: Optional[Tuple[bytes, ...]] = None
        self._conns: Dict[int, Connection] = {}
        self._procs: Dict[int, multiprocessing.process.BaseProcess] = {}
        #: Workers respawned after a crash/timeout (tests assert on this).
        self.respawns = 0
        #: Per-site respawn counts, charged against ``respawn_limit``.
        self.site_respawns: Dict[int, int] = {}
        #: When to retry, how long to wait, when to give up, when to try
        #: again — the policy half of supervision (the pool is the
        #: mechanics half). Default = the pool's historical behaviour.
        self.policy = supervisor if supervisor is not None else SupervisorPolicy()
        self._sup = SiteSupervisor(self.policy, self.active_sites)
        self._site_compiled: Dict[int, Tuple[CompiledRule, ...]] = {}
        self._injector: Optional[FaultInjector] = (
            fault_plan.injector() if fault_plan is not None else None
        )
        self._fault_events: List[FaultEvent] = []
        self._cycle = 0
        self._closed = False
        #: Flight-ring specs (``None`` without a recorder). Each active site
        #: gets a parent-created shared-memory ring; the spec rides along on
        #: every (re)spawn so even a replacement worker journals into the
        #: *same* ring — the parent can decode it after any SIGKILL.
        self._flight_specs = {
            site: self.obs.worker_spec(site, [r.name for r in self._site_rules[site]])
            for site in self.active_sites
        }
        for site in self.active_sites:
            self._spawn(site)

    @property
    def degraded_sites(self) -> Set[int]:
        """Sites matched in-parent: budget ran out, the circuit breaker
        tripped, or respawns kept failing."""
        return {site for site in self.active_sites if self._sup.demoted(site)}

    # -- worker management -------------------------------------------------

    def _spawn(self, site: int) -> None:
        """Start ``site``'s worker. Whether at pool start, on a respawn or
        on a promotion, the new worker holds no replica yet: it is stale
        until :meth:`_request` sends it the catch-up."""
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                tuple(self._site_rules[site]),
                self.obs.ships,
                self.indexed,
                self.vector,
                self._flight_specs[site],
            ),
            name=f"parulel-match-site{site}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._conns[site] = parent_conn
        self._procs[site] = proc
        self._stale.add(site)

    def _ts_listener(self, wme: WME, added: bool) -> None:
        """Keep the parent's ts→WME rebuild index current."""
        if added:
            self._wme_by_ts[wme.timestamp] = wme
        else:
            self._wme_by_ts.pop(wme.timestamp, None)

    def _kill(self, site: int) -> None:
        proc = self._procs.get(site)
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join()
        conn = self._conns.get(site)
        if conn is not None:
            conn.close()

    def _record(self, kind: str, site: int, detail: str = "") -> None:
        event = FaultEvent(cycle=self._cycle, kind=kind, site=site, detail=detail)
        self._fault_events.append(event)
        # The pool is where these events originate, so it is the one place
        # they are emitted (the engine only attaches the drained events to
        # its CycleReport).
        self.obs.fault(kind, site, self._cycle, detail, lane=f"worker-{site}")

    def drain_fault_events(self) -> List[FaultEvent]:
        """Fault/recovery events since the last drain (engine hook)."""
        out, self._fault_events = self._fault_events, []
        return out

    def _try_send(self, site: int, msg: tuple) -> bool:
        try:
            self._conns[site].send(msg)
            return True
        except (BrokenPipeError, OSError):
            return False

    def _try_send_bytes(self, site: int, blob: bytes) -> bool:
        """Ship an already-pickled message. ``Connection.recv`` unpickles
        whatever bytes arrive, so ``send_bytes(pickle.dumps(msg))`` is
        wire-identical to ``send(msg)`` — but serialized exactly once,
        which also makes ``len(blob)`` the *exact* IPC byte count."""
        try:
            self._conns[site].send_bytes(blob)
            return True
        except (BrokenPipeError, OSError):
            return False

    def _cycle_message(self) -> tuple:
        """This cycle's increment for a current worker: journal/heap
        cursors plus drained structural changes on the columnar store (a
        few hundred bytes however many WMEs changed), the net wire delta
        on the dict store (also appended to the catch-up log)."""
        if self._shared:
            return ("match-shm", self.wm.cycle_info())
        delta = self._recorder.drain()
        if delta.empty:
            return ("match", [])
        wire = delta.wire()
        self._log.append(wire)
        return ("match", [wire])

    def _catch_up(self) -> Tuple[bytes, ...]:
        """The messages that bring a stale worker current, pickled at most
        once per cycle: the attach spec (the worker scans the shared
        liveness snapshot) plus this cycle's request on the columnar
        store, the whole wire-delta log on the dict store."""
        if self._catchup is None:
            if self._shared:
                spec = ("attach", self.wm.attach_spec())
                self._catchup = (_pickle(spec), self._step_blob)
            else:
                self._catchup = (_pickle(("match", list(self._log))),)
        return self._catchup

    def _request(self, site: int) -> bool:
        """Ask ``site``'s worker for this cycle's matches: a stale worker
        gets the catch-up, every other worker the cycle's increment. The
        bytes sent feed the IPC byte metric. Returns ``False`` when the
        pipe is broken (the worker then goes through respawn)."""
        blobs = self._catch_up() if site in self._stale else (self._step_blob,)
        ok, sent = True, 0
        for blob in blobs:
            ok = self._try_send_bytes(site, blob)
            if not ok:
                break
            sent += len(blob)
        if sent:
            self.obs.request(site, sent)
        if ok:
            self._stale.discard(site)
        return ok

    def _await(self, site: int, timeout: float) -> Optional[tuple]:
        """The next message from ``site``'s worker, or ``None`` when the
        worker is dead or silent for ``timeout`` seconds.

        Polls in short slices so a worker that died *after* the request
        was sent fails over in well under a second instead of burning the
        whole deadline."""
        conn = self._conns[site]
        deadline = time.monotonic() + timeout
        slice_s = min(0.25, timeout / 20)
        try:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None  # wedged past the deadline
                if conn.poll(min(slice_s, remaining)):
                    return conn.recv()
                proc = self._procs.get(site)
                if proc is not None and not proc.is_alive() and not conn.poll(0):
                    return None  # died before replying, nothing buffered
        except (EOFError, OSError):
            return None

    def _recv(self, site: int) -> Optional[List[MatchSummary]]:
        """One reply's match summaries (observability payload ingested as
        a side effect), or ``None`` when the worker is dead or wedged past
        the reply deadline."""
        msg = self._await(site, self.timeout)
        if msg is None:
            return None
        tag, payload = msg
        if tag == "err":
            raise MatchError(f"match worker for site {site} failed: {payload}")
        summaries, obs_payload = payload
        self.obs.reply(site, obs_payload)
        return summaries

    def _probe(self, site: int) -> bool:
        """Ping/pong liveness probe: a healthy worker answers between
        cycles in microseconds; a dead or SIGSTOP'd one cannot. Bounded by
        the policy's ``heartbeat_timeout`` (much shorter than the reply
        deadline — that is the point)."""
        token = self._cycle
        if not self._try_send(site, ("ping", token)):
            return False
        return self._await(site, self.policy.heartbeat_timeout) == ("pong", token)

    def _recv_checked(self, site: int) -> Optional[List[MatchSummary]]:
        """:meth:`_recv` plus the supervision bookkeeping: a healthy reply
        resets the site's failure streak (and closes its circuit breaker,
        emitting ``breaker-close``); a worker-reported error either raises
        :class:`MatchError` (default) or — under a policy with
        ``degrade_on_worker_error`` — counts as a site failure so
        demotion can absorb deterministic worker-side faults (e.g. a chaos
        run unlinking the shared segment a re-attach needs)."""
        try:
            results = self._recv(site)
        except MatchError as exc:
            if not self.policy.degrade_on_worker_error:
                raise
            self._record("worker-error", site, detail=str(exc))
            return None
        if results is not None and self._sup.on_success(site):
            self._record(
                "breaker-close", site, detail="healthy reply at full isolation"
            )
            self.obs.site_mode(site, 0)
        return results

    def _budget_left(self, site: int) -> bool:
        if self.respawn_limit is None:
            return True
        return self.site_respawns.get(site, 0) < self.respawn_limit

    def _degrade(
        self, site: int, reason: str, breaker: bool = False
    ) -> List[MatchSummary]:
        """Stop the site's worker and match the site in-parent.

        The parent working memory holds exactly what the worker's replica
        held (the replica was built from the parent's store), and both
        iterate class buckets in timestamp order, so the in-parent matches
        are byte-identical to what the worker would have returned. With
        ``cooldown_cycles`` set the demotion is temporary — the supervisor
        schedules a promotion back; the default policy makes it
        permanent (historical behaviour).
        """
        if breaker:
            self._record("breaker-open", site, detail=reason)
        self._sup.note_demotion(site)
        self._kill(site)
        self._procs.pop(site, None)
        self._conns.pop(site, None)
        self._record(
            "degrade",
            site,
            detail=(
                f"{reason}; {len(self._site_rules[site])} rule(s) now "
                "matched in-parent"
            ),
        )
        self.obs.site_mode(site, 1)
        return self._parent_match(site)

    def _promote(self, site: int) -> None:
        """Give a demoted site its worker back after its cool-down.

        The respawn is charged against the respawn budget (no budget, no
        promotion); the new worker is stale, so this cycle's dispatch
        sends it the catch-up."""
        if not self._budget_left(site):
            self._sup.cancel_promotion(site)
            return
        self._spawn(site)
        self.site_respawns[site] = self.site_respawns.get(site, 0) + 1
        self._sup.note_promotion(site)
        self._record(
            "promote", site, detail="cool-down elapsed; site back to 'process'"
        )
        self.obs.site_mode(site, 0)

    def _parent_match(self, site: int) -> List[MatchSummary]:
        """Serial in-parent match of one (degraded) site's rules.

        Spans stay on the site's ``worker-<site>`` lane — the lane shows
        where the site's match work went, which after degradation is the
        parent's clock."""
        compiled = self._site_compiled.get(site)
        if compiled is None:
            compiled = compile_rules(tuple(self._site_rules[site]))
            self._site_compiled[site] = compiled
        if self.indexed and self._parent_alpha is None:
            self._parent_alpha = AlphaCache(self.wm)
            self._parent_alpha.attach()
        with self.obs.span(
            "match (degraded, in-parent)", lane=f"worker-{site}", cycle=self._cycle
        ):
            insts, times = match_rules(
                compiled, self.wm, self._parent_alpha, self.indexed
            )
            out = _summaries(insts)
        self.obs.rule_times(site, times)
        return out

    def _respawn_and_match(self, site: int) -> List[MatchSummary]:
        """Replace a dead/wedged worker, catch it up, re-match.

        Every decision — respawn now, respawn after a (seeded, jittered)
        backoff, or stop trying and demote the site — comes from the
        :class:`~repro.resilience.supervisor.SiteSupervisor`; the default
        policy reproduces the historical behaviour exactly (immediate
        respawns; demote on budget exhaustion or after three consecutive
        failed respawns within one cycle — a worker that cannot even come
        up is a deterministic failure no respawn will fix).
        """
        attempts = 0
        while True:
            decision = self._sup.on_failure(
                site, attempts, self._budget_left(site), self.respawn_limit
            )
            if decision.action == "demote":
                return self._degrade(
                    site, decision.reason, breaker=decision.breaker_tripped
                )
            if decision.backoff > 0:
                self._record(
                    "backoff",
                    site,
                    detail=f"sleeping {decision.backoff:.3f}s before respawn",
                )
                self.obs.backoff(site, decision.backoff)
                time.sleep(decision.backoff)
            attempts += 1
            self._kill(site)
            self._spawn(site)
            self.respawns += 1
            self.site_respawns[site] = self.site_respawns.get(site, 0) + 1
            self._record(
                "respawn",
                site,
                detail=f"attempt {self.site_respawns[site]}"
                + (
                    f" of {self.respawn_limit}"
                    if self.respawn_limit is not None
                    else ""
                ),
            )
            if not self._request(site):
                continue
            results = self._recv_checked(site)
            if results is not None:
                return results

    def _inject_faults(self) -> None:
        """Apply this cycle's scheduled worker kills/wedges (real signals)."""
        assert self._injector is not None
        for kill in self._injector.kills_at(self._cycle):
            proc = self._procs.get(kill.site)
            if proc is not None and proc.is_alive():
                proc.kill()
                proc.join()
                self._record("kill", kill.site, detail="injected SIGKILL")
        if hasattr(signal, "SIGSTOP"):
            for wedge in self._injector.wedges_at(self._cycle):
                proc = self._procs.get(wedge.site)
                if proc is not None and proc.is_alive():
                    os.kill(proc.pid, signal.SIGSTOP)
                    self._record("wedge", wedge.site, detail="injected SIGSTOP")

    # -- the conflict set ---------------------------------------------------

    def conflict_set(self) -> List[Instantiation]:
        """Full conflict set, deterministic order (site 0's rules first).

        Every live worker gets this cycle's request (:meth:`_request`);
        per-site results merge in site order. Crashed or unresponsive
        workers are respawned and caught up transparently; demoted sites
        are matched in-parent.
        """
        if self._closed:
            raise MatchError("ProcessMatchPool is closed")
        self._cycle += 1
        # Promotions first: a site whose cool-down elapsed gets its worker
        # back before this cycle's faults/dispatch, so the very cycle it
        # re-joins is already served by the worker.
        for site in self._sup.begin_cycle(self._cycle):
            self._promote(site)
        if self._injector is not None:
            self._inject_faults()
        # Heartbeat probes (policy-gated): catch dead/wedged workers now,
        # in heartbeat_timeout, instead of letting the match request burn
        # the (much longer) reply deadline first.
        unhealthy: Set[int] = set()
        if self.policy.heartbeat_every and (
            self._cycle % self.policy.heartbeat_every == 0
        ):
            for site in self.active_sites:
                if self._sup.demoted(site):
                    continue
                if not self._probe(site):
                    self._record(
                        "heartbeat-miss",
                        site,
                        detail=(
                            f"no pong within {self.policy.heartbeat_timeout}s"
                        ),
                    )
                    unhealthy.add(site)

        # Fan the request out to every live worker before collecting any
        # reply, so sites match concurrently; then merge in deterministic
        # order.
        self._step_blob = _pickle(self._cycle_message())
        self._catchup = None
        sent = {
            site: site not in unhealthy and self._request(site)
            for site in self.active_sites
            if not self._sup.demoted(site)
        }
        merged: List[Instantiation] = []
        for site in self.active_sites:
            if self._sup.demoted(site):
                results = self._parent_match(site)
            else:
                results = self._recv_checked(site) if sent[site] else None
                if results is None:
                    results = self._respawn_and_match(site)
            for summary in results:
                merged.append(self._rebuild(summary))
        return merged

    def _rebuild(self, summary: MatchSummary) -> Instantiation:
        rule_name, timestamps, env = summary
        rule = self._rules_by_name[rule_name]
        wmes = tuple(
            self._wme_by_ts[ts] if ts else None for ts in timestamps
        )
        return Instantiation(rule, wmes, env)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Stop all workers and detach from the working memory (idempotent).

        Bounded: each worker gets a 1 s grace join, then an unconditional
        SIGKILL — SIGKILL interrupts even a SIGSTOP'd worker, so close
        returns promptly no matter what state the workers are in.
        """
        if self._closed:
            return
        self._closed = True
        if self._recorder is not None:
            self._recorder.detach()
        try:
            self.wm.remove_listener(self._ts_listener)
        except ValueError:  # already removed (e.g. the WM was reset)
            pass
        if self._parent_alpha is not None:
            self._parent_alpha.detach()
        for site in list(self._procs):
            self._try_send(site, ("stop",))
        for site, proc in list(self._procs.items()):
            # Whatever joining/killing the worker does, its connection must
            # be closed — leaked pipe fds outlive the pool otherwise.
            try:
                proc.join(timeout=1.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join()
            finally:
                conn = self._conns.get(site)
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:
                        pass

    def __enter__(self) -> "ProcessMatchPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ProcessMatcher(Matcher):
    """The process pool behind the standard :class:`Matcher` interface.

    WM changes only mark the conflict set dirty; the pool ships the
    accumulated delta and recomputes lazily on :meth:`instantiations` —
    once per engine cycle, exactly when the collect phase reads it.
    """

    name = "process"
    _dirty = True

    def __init__(
        self,
        rules: Sequence[Rule],
        wm: WorkingMemory,
        n_workers: Optional[int] = None,
        assignment: "Optional[Assignment | str]" = None,
        timeout: float = DEFAULT_TIMEOUT,
        respawn_limit: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        supervisor: Optional[SupervisorPolicy] = None,
        obs: Optional[Obs] = None,
        indexed: bool = True,
        vector_probe: bool = True,
    ) -> None:
        # The pool's recorder primes itself with the pre-existing WMEs, so
        # it must attach before Matcher.__init__ replays them through
        # _on_add (which only marks the cache dirty here).
        if n_workers is None:
            n_workers = default_worker_count()
        self.pool = ProcessMatchPool(
            rules,
            wm,
            n_workers,
            assignment=assignment,
            timeout=timeout,
            respawn_limit=respawn_limit,
            fault_plan=fault_plan,
            supervisor=supervisor,
            obs=obs,
            indexed=indexed,
            vector_probe=vector_probe,
        )
        super().__init__(rules, wm, indexed=indexed)

    def _on_add(self, wme: WME) -> None:
        self._dirty = True

    def _on_remove(self, wme: WME) -> None:
        self._dirty = True

    def instantiations(self) -> List[Instantiation]:
        if self._dirty:
            fresh = ConflictSet()
            for inst in self.pool.conflict_set():
                fresh.add(inst)
            self.conflict_set = fresh
            self._dirty = False
        return self.conflict_set.instantiations()

    def drain_fault_events(self) -> List[FaultEvent]:
        """Respawn/degrade/injection events since the last drain — the
        engine attaches them to the cycle's report."""
        return self.pool.drain_fault_events()

    def detach(self) -> None:
        super().detach()
        self.pool.close()

    close = detach
