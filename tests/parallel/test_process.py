"""Tests for the process-parallel match pool (GIL-free backend)."""

import os
import signal

import pytest

from repro.core import EngineConfig, ParulelEngine
from repro.errors import MatchError
from repro.lang.parser import parse_program
from repro.match.compile import compile_rules
from repro.match.interface import MATCHER_NAMES, create_matcher
from repro.obs.flightrec import EV_RULE_BEGIN, EV_RULE_END, FlightRing, decode_ring
from repro.parallel.process import (
    ProcessMatchPool,
    ProcessMatcher,
    default_worker_count,
    match_rules,
)
from repro.wm.memory import WorkingMemory

SRC = """
(p j0 (a0 ^k <k>) (b0 ^k <k>) --> (halt))
(p j1 (a1 ^k <k>) (b1 ^k <k>) --> (halt))
(p j2 (a2 ^k <k>) (b2 ^k <k>) --> (halt))
(p neg (a0 ^k <k>) -(b1 ^k <k>) --> (halt))
"""


def load(wm, n=6):
    for r in range(3):
        for i in range(n):
            wm.make(f"a{r}", k=i % 3)
            wm.make(f"b{r}", k=i % 3)


def keys(insts):
    return sorted(i.key for i in insts)


class TestSiteMatch:
    """The one per-site rule-match loop (workers, degraded sites, the
    threaded pool)."""

    def _fixture(self):
        compiled = compile_rules(parse_program(SRC).rules)
        wm = WorkingMemory()
        load(wm, n=3)
        return compiled, wm

    def test_match_rules_times_each_rule_in_order(self):
        compiled, wm = self._fixture()
        insts, times = match_rules(compiled, wm, None, True)
        assert [name for name, _ in times] == ["j0", "j1", "j2", "neg"]
        assert all(seconds >= 0.0 for _, seconds in times)
        assert [i.rule.name for i in insts] == ["j0"] * 3 + ["j1"] * 3 + ["j2"] * 3

    def test_ring_brackets_each_rule_with_begin_and_end(self):
        compiled, wm = self._fixture()
        ring = FlightRing(capacity=64, shared=False)
        try:
            rule_ids = {"j0": 0, "j1": 1, "j2": 2, "neg": 3}
            match_rules(compiled, wm, None, True, ring, rule_ids, cycle=5)
            recs = [
                (r["kind"], r["cycle"], r["code"], r["a"])
                for r in decode_ring(ring.snapshot())["records"]
            ]
            assert recs == [
                (EV_RULE_BEGIN, 5, 0, 0), (EV_RULE_END, 5, 0, 3),
                (EV_RULE_BEGIN, 5, 1, 0), (EV_RULE_END, 5, 1, 3),
                (EV_RULE_BEGIN, 5, 2, 0), (EV_RULE_END, 5, 2, 3),
                (EV_RULE_BEGIN, 5, 3, 0), (EV_RULE_END, 5, 3, 0),
            ]
        finally:
            ring.close()


class TestProcessMatchPool:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_agrees_with_rete(self, n_workers):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        rete = create_matcher("rete", prog.rules, wm)
        load(wm)
        with ProcessMatchPool(prog.rules, wm, n_workers) as pool:
            assert keys(pool.conflict_set()) == keys(rete.instantiations())

    def test_deterministic_order_and_site_merge(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        load(wm)
        with ProcessMatchPool(prog.rules, wm, 3) as pool:
            first = [i.key for i in pool.conflict_set()]
            second = [i.key for i in pool.conflict_set()]
        assert first == second
        # Same merge order as the threaded pool: site order, and within a
        # site the compiled-rule order.
        with ProcessMatchPool(prog.rules, wm, 3) as again:
            assert [i.key for i in again.conflict_set()] == first

    def test_incremental_deltas_between_calls(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        rete = create_matcher("rete", prog.rules, wm)
        with ProcessMatchPool(prog.rules, wm, 2) as pool:
            assert pool.conflict_set() == []
            live = []
            for i in range(4):
                live.append(wm.make("a0", k=i % 2))
                live.append(wm.make("b0", k=i % 2))
                assert keys(pool.conflict_set()) == keys(rete.instantiations())
            wm.remove(live[0])
            wm.remove(live[1])
            assert keys(pool.conflict_set()) == keys(rete.instantiations())

    def test_instantiations_reference_parent_wme_objects(self):
        # The rebuilt instantiations must carry the parent's exact WME
        # objects so downstream identity (refraction, provenance) holds.
        prog = parse_program(SRC)
        wm = WorkingMemory()
        a = wm.make("a0", k=1)
        b = wm.make("b0", k=1)
        with ProcessMatchPool(prog.rules, wm, 2) as pool:
            insts = [i for i in pool.conflict_set() if i.rule.name == "j0"]
        assert len(insts) == 1
        assert insts[0].wmes[0] is a
        assert insts[0].wmes[1] is b

    def test_empty_sites_get_no_process(self):
        prog = parse_program(SRC)  # 4 rules
        wm = WorkingMemory()
        rete = create_matcher("rete", prog.rules, wm)
        load(wm)
        with ProcessMatchPool(prog.rules, wm, 16) as pool:
            assert pool.active_sites == tuple(range(4))
            assert len(pool._procs) == 4
            assert keys(pool.conflict_set()) == keys(rete.instantiations())

    def test_pool_with_no_rules(self):
        pool = ProcessMatchPool([], WorkingMemory(), 4)
        assert pool.active_sites == ()
        assert pool.conflict_set() == []
        pool.close()

    def test_zero_workers_rejected(self):
        prog = parse_program(SRC)
        with pytest.raises(ValueError):
            ProcessMatchPool(prog.rules, WorkingMemory(), 0)

    def test_close_idempotent_and_closed_pool_raises(self):
        prog = parse_program(SRC)
        pool = ProcessMatchPool(prog.rules, WorkingMemory(), 2)
        pool.close()
        pool.close()
        with pytest.raises(MatchError):
            pool.conflict_set()

    def test_close_detaches_from_working_memory(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        pool = ProcessMatchPool(prog.rules, wm, 2)
        pool.close()
        wm.make("a0", k=0)  # must not notify a closed recorder

    def test_workers_are_daemonic(self):
        prog = parse_program(SRC)
        with ProcessMatchPool(prog.rules, WorkingMemory(), 2) as pool:
            assert all(p.daemon for p in pool._procs.values())


class TestWorkerRobustness:
    def test_survives_worker_crash_mid_run(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        rete = create_matcher("rete", prog.rules, wm)
        load(wm)
        with ProcessMatchPool(prog.rules, wm, 2) as pool:
            before = keys(pool.conflict_set())
            assert before == keys(rete.instantiations())
            # SIGKILL a worker between cycles; the pool must respawn it and
            # replay the cumulative delta log.
            victim = pool.active_sites[0]
            pool._procs[victim].kill()
            pool._procs[victim].join()
            wm.make("a0", k=1)
            wm.make("b0", k=1)
            after = keys(pool.conflict_set())
            assert after == keys(rete.instantiations())
            assert len(after) > len(before)
            assert pool.respawns == 1
            # Subsequent cycles keep working with the respawned worker.
            wm.make("a1", k=2)
            wm.make("b1", k=2)
            assert keys(pool.conflict_set()) == keys(rete.instantiations())
            assert pool.respawns == 1

    def test_all_workers_crashing_still_recovers(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        rete = create_matcher("rete", prog.rules, wm)
        load(wm)
        with ProcessMatchPool(prog.rules, wm, 4) as pool:
            pool.conflict_set()
            for site in pool.active_sites:
                pool._procs[site].kill()
                pool._procs[site].join()
            assert keys(pool.conflict_set()) == keys(rete.instantiations())
            assert pool.respawns == len(pool.active_sites)

    @pytest.mark.skipif(
        not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP (POSIX)"
    )
    def test_wedged_worker_times_out_and_respawns(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        rete = create_matcher("rete", prog.rules, wm)
        load(wm)
        with ProcessMatchPool(prog.rules, wm, 2, timeout=0.5) as pool:
            pool.conflict_set()
            victim = pool.active_sites[0]
            os.kill(pool._procs[victim].pid, signal.SIGSTOP)
            wm.make("a0", k=2)
            wm.make("b0", k=2)
            assert keys(pool.conflict_set()) == keys(rete.instantiations())
            assert pool.respawns >= 1


class TestProcessMatcher:
    def test_registered_backend(self):
        assert "process" in MATCHER_NAMES
        prog = parse_program(SRC)
        wm = WorkingMemory()
        matcher = create_matcher("process:2", prog.rules, wm)
        assert isinstance(matcher, ProcessMatcher)
        assert matcher.pool.n_workers == 2
        matcher.close()

    def test_bad_worker_spec_rejected(self):
        prog = parse_program(SRC)
        with pytest.raises(ValueError):
            create_matcher("process:x", prog.rules, WorkingMemory())

    def test_zero_worker_spec_rejected(self):
        # Regression: an explicit 0 used to fall through a falsy
        # ``n_workers or default`` check and silently get the default.
        prog = parse_program(SRC)
        with pytest.raises(ValueError, match="worker"):
            create_matcher("process:0", prog.rules, WorkingMemory())

    def test_default_worker_count_bounds(self):
        assert 1 <= default_worker_count() <= 4

    def test_attaches_to_populated_memory(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        rete = create_matcher("rete", prog.rules, wm)
        load(wm)
        matcher = create_matcher("process:2", prog.rules, wm)
        try:
            assert keys(matcher.instantiations()) == keys(rete.instantiations())
        finally:
            matcher.close()

    def test_lazy_recompute_only_when_dirty(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        matcher = create_matcher("process:2", prog.rules, wm)
        try:
            wm.make("a0", k=1)
            wm.make("b0", k=1)
            first = matcher.instantiations()
            # No WM change: the cached conflict set is returned as-is.
            assert matcher.instantiations() is not first  # fresh snapshot list
            calls = []
            real = matcher.pool.conflict_set
            matcher.pool.conflict_set = lambda: calls.append(1) or real()
            matcher.instantiations()
            assert calls == []  # clean → no IPC round
            wm.make("a0", k=2)
            matcher.instantiations()
            assert calls == [1]  # dirty → exactly one recompute
        finally:
            matcher.pool.close()

    def test_engine_with_process_matcher_matches_rete(self):
        src = """
        (literalize edge src dst)
        (literalize path src dst)
        (p tc-init (edge ^src <a> ^dst <b>) -(path ^src <a> ^dst <b>)
         --> (make path ^src <a> ^dst <b>))
        (p tc-extend (path ^src <a> ^dst <b>) (edge ^src <b> ^dst <c>)
         -(path ^src <a> ^dst <c>) --> (make path ^src <a> ^dst <c>))
        """
        prog = parse_program(src)
        ref = ParulelEngine(prog)
        eng = ParulelEngine(prog, EngineConfig(matcher="process:2"))
        for e in (ref, eng):
            for i in range(8):
                e.make("edge", src=f"n{i}", dst=f"n{i + 1}")
        r_ref = ref.run()
        r_eng = eng.run()
        eng.matcher.close()
        assert (r_eng.cycles, r_eng.firings) == (r_ref.cycles, r_ref.firings)
        paths = lambda wm: sorted(  # noqa: E731
            (w.get("src"), w.get("dst")) for w in wm.by_class("path")
        )
        assert paths(eng.wm) == paths(ref.wm)
