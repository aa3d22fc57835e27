"""One catch-up path: a worker spawned at start, respawned after a kill or
promoted after a demotion is brought up to date by the same message.

On both stores the tests meter each site's request bytes per cycle and
compare them with the catch-up message built independently of the pool:
the attach spec plus the cycle's cursor message on the columnar store,
the whole wire-delta log on the dict store. The cycle after a catch-up
drops back to the increment every current worker gets.
"""

import pickle

import pytest

from repro.faults import FaultPlan, WorkerKill
from repro.lang.parser import parse_program
from repro.match.interface import create_matcher
from repro.obs.emit import Obs
from repro.obs.metrics import MetricsRegistry
from repro.parallel.process import ProcessMatchPool
from repro.resilience.supervisor import SupervisorPolicy
from repro.wm.columnar import ColumnarWorkingMemory
from repro.wm.memory import DeltaRecorder, WorkingMemory

pytestmark = pytest.mark.faults

SRC = """
(p j0 (a0 ^k <k>) (b0 ^k <k>) --> (halt))
(p j1 (a1 ^k <k>) (b1 ^k <k>) --> (halt))
(p j2 (a2 ^k <k>) (b2 ^k <k>) --> (halt))
(p neg (a0 ^k <k>) -(b1 ^k <k>) --> (halt))
"""

KILL_SITE_0_AT_2 = FaultPlan(kills=(WorkerKill(cycle=2, site=0),))


def load(wm, n=6):
    for r in range(3):
        for i in range(n):
            wm.make(f"a{r}", k=i % 3)
            wm.make(f"b{r}", k=i % 3)


def keys(insts):
    return sorted(i.key for i in insts)


def blob_len(msg):
    return len(pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL))


def drive(store, policy, cycles):
    """Run ``cycles`` conflict-set cycles of a 2-site pool that loses site
    0's worker at cycle 2, adding WMEs between cycles. Returns per cycle
    ``(bytes sent to each site, catch-up message size)``, plus the fault
    events."""
    prog = parse_program(SRC)
    wm = ColumnarWorkingMemory() if store == "columnar" else WorkingMemory()
    # A mirror of the store whose recorder rebuilds the dict catch-up log.
    shadow = WorkingMemory()
    for w in (wm, shadow):
        load(w)
    recorder = DeltaRecorder(shadow)
    log = []
    metrics = MetricsRegistry()
    rows = []
    try:
        with ProcessMatchPool(
            prog.rules,
            wm,
            2,
            fault_plan=KILL_SITE_0_AT_2,
            supervisor=policy,
            obs=Obs(metrics=metrics),
        ) as pool:
            before = {0: 0.0, 1: 0.0}
            for cycle in range(1, cycles + 1):
                rete = create_matcher("rete", prog.rules, wm)
                assert keys(pool.conflict_set()) == keys(rete.instantiations())
                rete.detach()
                now = {
                    s: metrics.counter_value("parulel_ipc_bytes_total", site=s)
                    for s in (0, 1)
                }
                sent = {s: now[s] - before[s] for s in (0, 1)}
                before = now
                delta = recorder.drain()
                if not delta.empty:
                    log.append(delta.wire())
                if store == "columnar":
                    # Site 1 is current from cycle 2 on: it got exactly
                    # the cycle's cursor message.
                    catch_up = blob_len(("attach", wm.attach_spec())) + sent[1]
                else:
                    catch_up = blob_len(("match", list(log)))
                rows.append((sent, catch_up))
                for w in (wm, shadow):
                    w.make("a0", k=cycle % 3)
                    w.make("b1", k=cycle % 3)
            events = pool.drain_fault_events()
    finally:
        if store == "columnar":
            wm.close()
    return rows, events


@pytest.mark.parametrize("store", ["dict", "columnar"])
class TestCatchUp:
    @pytest.mark.slow
    @pytest.mark.timeout(60)
    def test_respawned_worker_gets_the_catch_up_then_the_increment(self, store):
        rows, events = drive(store, None, cycles=3)
        assert [e.kind for e in events] == ["kill", "respawn"]
        (sent2, catch_up2), (sent3, _catch_up3) = rows[1], rows[2]
        assert sent2[0] == catch_up2
        assert sent3[0] == sent3[1]  # back to the increment
        assert sent3[0] < catch_up2

    @pytest.mark.slow
    @pytest.mark.timeout(60)
    def test_promoted_worker_gets_the_same_catch_up(self, store):
        policy = SupervisorPolicy(breaker_failures=1, cooldown_cycles=2)
        rows, events = drive(store, policy, cycles=5)
        assert [(e.cycle, e.kind) for e in events] == [
            (2, "kill"),
            (2, "breaker-open"),
            (2, "degrade"),
            (4, "promote"),
            (4, "breaker-close"),
        ]
        # Demoted at cycle 2: nothing crosses site 0's pipe until the
        # promotion at cycle 4 sends the catch-up.
        assert [rows[c - 1][0][0] for c in (2, 3)] == [0, 0]
        sent4, catch_up4 = rows[3]
        assert sent4[0] == catch_up4
        sent5, _catch_up5 = rows[4]
        assert sent5[0] == sent5[1]
        assert sent5[0] < catch_up4
