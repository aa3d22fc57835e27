"""The one emit point (:class:`repro.obs.emit.Obs`), method by method.

Each event kind must reach exactly the sinks attached to it — the phase
timer, the span tracer, the metrics registry, the flight ring — and cost
nothing but a branch when a sink is detached.
"""

from types import SimpleNamespace

from repro.obs import MetricsRegistry, Tracer, validate_chrome_trace
from repro.obs.emit import Obs
from repro.obs.flightrec import (
    EV_CHECKPOINT,
    EV_CYCLE,
    EV_FAULT,
    EV_FIRE,
    EV_HALT,
    EV_PHASE,
    EV_REPLAY,
    PHASE_CODES,
    FlightRecorder,
    decode_ring,
)
from repro.obs.metrics import NULL_METRICS
from repro.obs.profile import PHASE_SECONDS, RULE_EVAL_SECONDS, RULE_MATCH_SECONDS
from repro.obs.trace import NULL_TRACER

TC_SRC = """
(literalize edge src dst)
(literalize path src dst)
(p tc-init (edge ^src <a> ^dst <b>) --> (make path ^src <a> ^dst <b>))
(p tc-extend (path ^src <a> ^dst <b>) (edge ^src <b> ^dst <c>)
   --> (make path ^src <a> ^dst <c>))
"""


def ring_records(recorder):
    return decode_ring(recorder.ring.snapshot())["records"]


def cycle_report(cycle, fired, halted=False):
    return SimpleNamespace(
        cycle=cycle, fired=fired, delta_removes=1, delta_makes=2,
        conflicts_resolved=0, conflict_set_size=fired + 1, halted=halted,
    )


class TestDetachedSinks:
    def test_defaults_are_the_null_sinks(self):
        obs = Obs()
        assert obs.tracer is NULL_TRACER
        assert obs.metrics is NULL_METRICS
        assert obs.flightrec is None
        assert obs.ships is False

    def test_every_event_is_a_no_op_without_sinks(self):
        obs = Obs()
        with obs.phase("match", "collect", 1):
            pass
        obs.fire(1, "r", 10)
        obs.replay()
        obs.race(1, "a", "b")
        obs.cycle(cycle_report(1, 2, halted=True), [])
        obs.checkpoint(1, True)
        obs.fault("respawn", 0, 1, "killed", lane="supervisor")
        obs.request(0, 128)
        obs.reply(0, None)
        obs.vspan("match", "site-0", 0.0, 5.0)
        assert obs.worker_spec(0, ["r"]) is None
        assert obs.dump(None, "test", {}) is None
        obs.close()
        # The phase timer behind phase_times is always on.
        assert obs.timer.entries["collect"] == 1

    def test_worker_ships_nothing_when_parent_records_nothing(self):
        worker = Obs.for_worker(False, None)
        assert worker.payload([("r", 0.1)], None) is None


class TestPhase:
    def test_one_measurement_reaches_every_sink(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        rec = FlightRecorder(shared=False)
        try:
            obs = Obs(tracer, metrics, rec)
            with obs.phase("redact", "redact", 3):
                pass
            events = tracer.events()
            assert [(e[0], e[1], e[2]) for e in events] == [
                ("B", "redact", "engine"), ("E", "redact", "engine"),
            ]
            validate_chrome_trace(tracer.to_chrome())
            assert obs.timer.entries["redact"] == 1
            summary = metrics.histogram_summary(PHASE_SECONDS, phase="redact")
            assert summary["count"] == 1
            [r] = ring_records(rec)
            assert (r["kind"], r["cycle"], r["code"]) == (
                EV_PHASE, 3, PHASE_CODES["redact"]
            )
            # The ring's duration and the timer's seconds are one reading.
            assert r["a"] == int(obs.timer.seconds["redact"] * 1e9)
        finally:
            rec.close()


class TestFiringAndCycle:
    def test_fire_records_rule_id_and_eval_time(self):
        metrics = MetricsRegistry()
        rec = FlightRecorder(["a", "b"], shared=False)
        try:
            obs = Obs(metrics=metrics, flightrec=rec)
            obs.fire(2, "b", 5_000)
            [r] = ring_records(rec)
            assert (r["kind"], r["cycle"], r["code"], r["a"]) == (EV_FIRE, 2, 1, 5_000)
            summary = metrics.histogram_summary(RULE_EVAL_SECONDS, rule="b")
            assert summary["count"] == 1
        finally:
            rec.close()

    def test_replays_flush_once_per_cycle_before_the_boundary(self):
        metrics = MetricsRegistry()
        rec = FlightRecorder(shared=False)
        try:
            obs = Obs(metrics=metrics, flightrec=rec)
            for _ in range(3):
                obs.replay()
            obs.cycle(cycle_report(1, 2), ["w1", "w2"])
            obs.cycle(cycle_report(2, 0, halted=True), ["w1", "w2"])
            kinds = [(r["kind"], r["cycle"], r["a"]) for r in ring_records(rec)]
            assert kinds == [
                (EV_REPLAY, 1, 3), (EV_CYCLE, 1, 2), (EV_CYCLE, 2, 0), (EV_HALT, 2, 0),
            ]
            # Counts come only from cycles that fired.
            assert metrics.counter_value("parulel_firings_total") == 2
            assert metrics.counter_value("parulel_delta_makes_total") == 2
            assert metrics.gauge_value("parulel_wm_size") == 2
        finally:
            rec.close()

    def test_checkpoint_code_marks_delta(self):
        rec = FlightRecorder(shared=False)
        try:
            obs = Obs(flightrec=rec)
            obs.checkpoint(4, False)
            obs.checkpoint(5, True)
            assert [(r["kind"], r["code"]) for r in ring_records(rec)] == [
                (EV_CHECKPOINT, 0), (EV_CHECKPOINT, 1),
            ]
        finally:
            rec.close()


class TestFault:
    def test_fault_reaches_lane_counters_and_ring(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        rec = FlightRecorder(shared=False)
        try:
            obs = Obs(tracer, metrics, rec)
            obs.fault("respawn", 1, 7, "worker died", lane="supervisor")
            [event] = tracer.events()
            assert (event[0], event[1], event[2]) == ("i", "respawn", "supervisor")
            assert event[4] == {"cycle": 7, "detail": "worker died"}
            assert metrics.counter_value("parulel_fault_events_total", kind="respawn") == 1
            assert metrics.counter_value("parulel_worker_respawns_total", site=1) == 1
            [r] = ring_records(rec)
            assert (r["kind"], r["cycle"], r["a"]) == (EV_FAULT, 7, 1)
            assert rec.manifest()["strings"][r["code"]] == "respawn"
        finally:
            rec.close()

    def test_virtual_fault_lands_on_the_cost_model_timeline(self):
        tracer = Tracer()
        obs = Obs(tracer)
        obs.fault("crash", 0, 2, "injected", lane="site-0", at_us=4.0)
        [event] = tracer.events()
        assert (event[0], event[2]) == ("i", "site-0")
        assert event[3] == tracer.origin_ns + 4000


class TestIPC:
    def test_request_and_reply_count_ipc_and_fold_rule_times(self):
        metrics = MetricsRegistry()
        obs = Obs(metrics=metrics)
        obs.request(2, 100)
        obs.request(2, 50)
        obs.reply(2, ([], [("tc-init", 0.25)], None))
        assert metrics.counter_value("parulel_ipc_messages_total", direction="request") == 2
        assert metrics.counter_value("parulel_ipc_bytes_total", site=2) == 150
        assert metrics.counter_value("parulel_ipc_messages_total", direction="reply") == 1
        summary = metrics.histogram_summary(RULE_MATCH_SECONDS, rule="tc-init", site=2)
        assert (summary["count"], summary["sum"]) == (1, 0.25)


class TestVirtualTimeline:
    def test_vspan_renders_ticks_as_microseconds(self):
        tracer = Tracer()
        obs = Obs(tracer)
        obs.vspan("match", "site-1", 10.0, 2.5, cycle=1)
        begin, end = tracer.events()
        assert (begin[0], begin[1], begin[2]) == ("B", "match", "site-1")
        assert begin[3] == tracer.origin_ns + 10_000
        assert end[3] == tracer.origin_ns + 12_500
        assert begin[4] == {"cycle": 1}
        validate_chrome_trace(tracer.to_chrome())
