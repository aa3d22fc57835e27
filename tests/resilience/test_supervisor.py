"""SiteSupervisor policy unit tests (pure state machine, no processes)."""

import pytest

from repro.resilience.supervisor import SiteSupervisor, SupervisorPolicy


def sup(**kw):
    policy = SupervisorPolicy(**kw)
    return SiteSupervisor(policy, sites=[0, 1])


class TestPolicyValidation:
    def test_default_is_legacy(self):
        p = SupervisorPolicy()
        assert p.backoff_base == 0.0
        assert p.heartbeat_every == 0
        assert p.breaker_failures is None
        assert p.cooldown_cycles == 0

    def test_ladder_knob_is_gone(self):
        # A site is on its worker or demoted: there is no rung list to pass.
        with pytest.raises(TypeError):
            SupervisorPolicy(ladder=("process", "serial"))

    @pytest.mark.parametrize(
        "kw",
        [
            {"backoff_base": -1},
            {"backoff_cap": 0},
            {"backoff_jitter": -0.1},
            {"heartbeat_every": -1},
            {"heartbeat_timeout": 0},
            {"breaker_failures": 0},
            {"breaker_window": 0},
            {"cooldown_cycles": -1},
            {"cooldown_cap": 0},
        ],
    )
    def test_bad_knobs_rejected(self, kw):
        with pytest.raises(ValueError):
            SupervisorPolicy(**kw)


class TestLegacyDecisions:
    """The default policy must reproduce the pool's historical behaviour."""

    def test_respawn_immediately_with_budget(self):
        s = sup()
        d = s.on_failure(0, attempts=0, budget_left=True, budget_limit=8)
        assert d.action == "respawn"
        assert d.backoff == 0.0

    def test_budget_exhausted_reason_string(self):
        s = sup()
        d = s.on_failure(0, attempts=0, budget_left=False, budget_limit=8)
        assert d.action == "demote"
        assert d.reason == "respawn budget (8) exhausted"
        assert not d.breaker_tripped

    def test_three_attempts_reason_string(self):
        s = sup()
        d = s.on_failure(0, attempts=3, budget_left=True, budget_limit=None)
        assert d.action == "demote"
        assert d.reason == "3 consecutive respawns failed in one cycle"

    def test_budget_outranks_attempts(self):
        s = sup()
        d = s.on_failure(0, attempts=3, budget_left=False, budget_limit=2)
        assert "budget" in d.reason

    def test_no_promotions_ever(self):
        s = sup()
        s.begin_cycle(1)
        s.on_failure(0, attempts=0, budget_left=False, budget_limit=0)
        s.note_demotion(0)
        assert s.demoted(0)
        for cycle in range(2, 100):
            assert s.begin_cycle(cycle) == []


class TestBackoff:
    def test_doubles_and_caps(self):
        s = sup(backoff_base=0.1, backoff_cap=0.5, backoff_jitter=0.0)
        delays = [
            s.on_failure(0, 0, True, None).backoff for _ in range(5)
        ]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_success_resets_the_doubling(self):
        s = sup(backoff_base=0.1, backoff_jitter=0.0)
        s.on_failure(0, 0, True, None)
        s.on_failure(0, 0, True, None)
        s.on_success(0)
        assert s.on_failure(0, 0, True, None).backoff == pytest.approx(0.1)

    def test_jitter_is_seed_deterministic(self):
        a = sup(backoff_base=0.1, backoff_jitter=0.5, seed=7)
        b = sup(backoff_base=0.1, backoff_jitter=0.5, seed=7)
        c = sup(backoff_base=0.1, backoff_jitter=0.5, seed=8)
        da = [a.on_failure(0, 0, True, None).backoff for _ in range(4)]
        db = [b.on_failure(0, 0, True, None).backoff for _ in range(4)]
        dc = [c.on_failure(0, 0, True, None).backoff for _ in range(4)]
        assert da == db
        assert da != dc
        # jitter only inflates: 1 <= factor <= 1.5
        assert all(0.1 * 2 ** i <= d <= 0.15 * 2 ** i for i, d in enumerate(da))


class TestBreaker:
    def test_trips_after_n_failures_in_window(self):
        s = sup(breaker_failures=3, breaker_window=8)
        s.begin_cycle(1)
        assert s.on_failure(0, 0, True, None).action == "respawn"
        s.begin_cycle(2)
        assert s.on_failure(0, 0, True, None).action == "respawn"
        s.begin_cycle(3)
        d = s.on_failure(0, 0, True, None)
        assert d.action == "demote"
        assert d.breaker_tripped
        assert "circuit breaker" in d.reason

    def test_old_failures_age_out_of_window(self):
        s = sup(breaker_failures=2, breaker_window=4)
        s.begin_cycle(1)
        s.on_failure(0, 0, True, None)
        s.begin_cycle(10)  # cycle 1 is far outside the window now
        assert s.on_failure(0, 0, True, None).action == "respawn"

    def test_sites_are_independent(self):
        s = sup(breaker_failures=2, breaker_window=8)
        s.begin_cycle(1)
        s.on_failure(0, 0, True, None)
        s.begin_cycle(2)
        assert s.on_failure(1, 0, True, None).action == "respawn"

    def test_success_closes_breaker_only_on_the_worker(self):
        s = sup(cooldown_cycles=1)
        s.begin_cycle(1)
        s.note_demotion(0)
        assert s.breaker_open(0)
        assert s.on_success(0) is False  # still demoted: stays open
        assert s.breaker_open(0)
        s.note_promotion(0)  # back on its worker
        assert s.on_success(0) is True  # closes exactly once
        assert not s.breaker_open(0)
        assert s.on_success(0) is False


class TestDemotionAndCooldown:
    def test_demotion_is_two_state(self):
        s = sup()
        assert not s.demoted(0)
        s.note_demotion(0)
        assert s.demoted(0)
        s.note_demotion(0)  # a second demotion stays demoted
        assert s.demoted(0)
        assert not s.demoted(1)

    def test_promotion_due_after_cooldown(self):
        s = sup(cooldown_cycles=3)
        s.begin_cycle(5)
        s.note_demotion(0)
        assert s.begin_cycle(7) == []
        assert s.begin_cycle(8) == [0]  # 5 + 3
        s.note_promotion(0)
        assert not s.demoted(0)
        assert s.begin_cycle(20) == []  # nothing left to promote

    def test_cooldown_doubles_per_trip(self):
        s = sup(cooldown_cycles=2, cooldown_cap=16)
        s.begin_cycle(10)
        s.note_demotion(0)  # trip 1: cool-down 2 -> due at 12
        assert s.begin_cycle(12) == [0]
        s.note_promotion(0)
        s.begin_cycle(13)
        s.note_demotion(0)  # trip 2: cool-down 4 -> due at 17
        assert s.begin_cycle(16) == []
        assert s.begin_cycle(17) == [0]

    def test_cooldown_capped(self):
        s = sup(cooldown_cycles=4, cooldown_cap=8)
        s.begin_cycle(0)
        for _ in range(6):  # many trips: 4, 8, 8, 8...
            s.note_demotion(0)
        assert s.begin_cycle(7) == []
        assert s.begin_cycle(8) == [0]

    def test_cancel_promotion(self):
        s = sup(cooldown_cycles=1)
        s.begin_cycle(1)
        s.note_demotion(0)
        s.cancel_promotion(0)
        assert s.begin_cycle(50) == []

    def test_repeated_demotion_promotes_straight_back(self):
        s = sup(cooldown_cycles=2)
        s.begin_cycle(0)
        s.note_demotion(0)
        s.note_demotion(0)  # 2 trips: cool-down 4
        assert s.demoted(0)
        assert s.begin_cycle(3) == []
        assert s.begin_cycle(4) == [0]
        s.note_promotion(0)
        assert not s.demoted(0)
        # Back on its worker in one step: nothing further is scheduled.
        assert all(s.begin_cycle(c) == [] for c in range(5, 50))
