"""Metrics registry: exact counts (threaded), worker payloads, expositions."""

import json
import pickle
import threading

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MAX_OBSERVATIONS,
    NULL_METRICS,
    MetricsRegistry,
    NullMetrics,
)
from repro.obs.emit import Obs
from repro.obs.profile import RULE_MATCH_SECONDS, VECTOR_SCAN_ROWS


class TestBasics:
    def test_counter_gauge_histogram(self):
        m = MetricsRegistry()
        m.inc("requests_total")
        m.inc("requests_total", 2)
        m.set_gauge("wm_size", 10)
        m.set_gauge("wm_size", 7)
        for v in (0.1, 0.2, 0.3):
            m.observe("latency_seconds", v)

        assert m.counter_value("requests_total") == 3
        assert m.gauge_value("wm_size") == 7.0
        summary = m.histogram_summary("latency_seconds")
        assert summary["count"] == 3
        assert abs(summary["sum"] - 0.6) < 1e-9
        assert summary["min"] == 0.1 and summary["max"] == 0.3
        assert summary["p50"] == 0.2

    def test_labels_make_distinct_series(self):
        m = MetricsRegistry()
        m.inc("fired_total", rule="a")
        m.inc("fired_total", 5, rule="b")
        assert m.counter_value("fired_total", rule="a") == 1
        assert m.counter_value("fired_total", rule="b") == 5
        assert m.counter_value("fired_total") == 0
        series = m.series("fired_total")
        assert series[(("rule", "a"),)] == 1
        assert series[(("rule", "b"),)] == 5

    def test_label_order_is_canonical(self):
        m = MetricsRegistry()
        m.inc("x_total", rule="r", site=1)
        assert m.counter_value("x_total", site=1, rule="r") == 1

    def test_histogram_observation_cap_keeps_exact_count(self):
        m = MetricsRegistry()
        for i in range(MAX_OBSERVATIONS + 10):
            m.observe("big", float(i % 7))
        summary = m.histogram_summary("big")
        assert summary["count"] == MAX_OBSERVATIONS + 10


class TestMergeAcrossProcesses:
    def test_merge_is_exact_and_pickle_safe(self):
        # A worker ships (spans, per-rule match seconds, vector deltas) with
        # each reply; the parent's emit point folds it into the registry.
        worker = Obs.for_worker(True, None)
        with worker.span("match", lane="worker"):
            pass
        vec = {"scanned": 7, "materialized": 1, "fallback": 0, "probes": 2}
        payload = worker.payload([("a", 0.5), ("b", 0.25)], vec)
        metrics = MetricsRegistry()
        parent = Obs(metrics=metrics)

        # The payload crosses a process boundary in real use.
        for _ in range(2):
            parent.reply(1, pickle.loads(pickle.dumps(payload)))

        a = metrics.histogram_summary(RULE_MATCH_SECONDS, rule="a", site=1)
        assert (a["count"], a["sum"]) == (2, 1.0)
        assert metrics.counter_value(VECTOR_SCAN_ROWS, site=1) == 14
        assert metrics.counter_value(
            "parulel_ipc_messages_total", direction="reply"
        ) == 2


class TestExposition:
    def test_snapshot_and_json_roundtrip(self, tmp_path):
        m = MetricsRegistry()
        m.inc("fired_total", 2, rule="a")
        m.set_gauge("wm_size", 5)
        m.observe("lat", 0.25)
        path = tmp_path / "metrics.json"
        m.write_json(str(path))
        doc = json.loads(path.read_text())
        assert doc["counters"]['fired_total{rule="a"}'] == 2
        assert doc["gauges"]["wm_size"] == 5
        assert doc["histograms"]["lat"]["count"] == 1

    def test_prometheus_exposition_shape(self):
        m = MetricsRegistry()
        m.inc("fired_total", 2, rule="a")
        m.set_gauge("wm_size", 5)
        m.observe("lat_seconds", 0.003)
        m.observe("lat_seconds", 2.0)
        text = m.to_prometheus()
        lines = text.splitlines()
        assert "# TYPE fired_total counter" in lines
        assert 'fired_total{rule="a"} 2' in lines
        assert "# TYPE wm_size gauge" in lines
        assert "# TYPE lat_seconds histogram" in lines
        assert 'lat_seconds_bucket{le="+Inf"} 2' in lines
        assert "lat_seconds_sum 2.003" in lines
        assert "lat_seconds_count 2" in lines
        # Buckets are cumulative and non-decreasing over the bounds.
        counts = [
            int(l.rsplit(" ", 1)[1])
            for l in lines
            if l.startswith('lat_seconds_bucket{le="')
        ]
        assert counts == sorted(counts)
        assert len(counts) == len(DEFAULT_BUCKETS) + 1
        # 0.003 <= 0.005 bound; 2.0 only lands in 5.0/10.0/+Inf.
        assert 'lat_seconds_bucket{le="0.005"} 1' in lines
        assert 'lat_seconds_bucket{le="5"} 2' in lines


class TestNullMetrics:
    def test_inert(self):
        null = NullMetrics()
        null.inc("x")
        null.set_gauge("y", 1)
        null.observe("z", 0.5)
        assert null.counter_value("x") == 0.0
        assert null.gauge_value("y") is None
        assert null.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        assert not NULL_METRICS.enabled


class TestThreadSafety:
    def test_eight_threads_hammering_counts_exactly(self):
        m = MetricsRegistry()
        n_threads, per_thread = 8, 5_000

        def work(tid: int) -> None:
            for i in range(per_thread):
                m.inc("hits_total")
                m.inc("hits_total", 1, thread=tid)
                m.observe("work_seconds", 0.001, thread=tid)
                m.set_gauge("last_i", i, thread=tid)

        threads = [
            threading.Thread(target=work, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert m.counter_value("hits_total") == n_threads * per_thread
        for t in range(n_threads):
            assert m.counter_value("hits_total", thread=t) == per_thread
            assert m.histogram_summary("work_seconds", thread=t)["count"] == per_thread
            assert m.gauge_value("last_i", thread=t) == per_thread - 1
