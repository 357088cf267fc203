"""Telemetry: registry, instruments, sampling collector, exposition."""

import json

import pytest

from repro.observability import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Observers,
    Telemetry,
    check_prometheus_text,
    driver_rss_bytes,
)


class TestCounter:
    def test_inc_accumulates(self):
        counter = Counter("repro_things_total", "things")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5

    def test_labelled_series_are_independent(self):
        counter = Counter("repro_things_total", "things")
        counter.inc(2, labels={"job": "a"})
        counter.inc(3, labels={"job": "b"})
        assert counter.value(labels={"job": "a"}) == 2
        assert counter.value(labels={"job": "b"}) == 3
        assert counter.value() == 0  # the unlabelled series is its own

    def test_negative_increment_rejected(self):
        counter = Counter("repro_things_total", "things")
        with pytest.raises(ValueError, match="decrease"):
            counter.inc(-1)

    def test_exposition_lines(self):
        counter = Counter("repro_things_total", "counted things")
        counter.inc(2, labels={"job": "a"})
        assert counter.exposition_lines() == [
            'repro_things_total{job="a"} 2'
        ]

    def test_registry_adds_help_and_type(self):
        registry = MetricsRegistry()
        registry.counter("repro_things_total", "counted things").inc(2)
        text = registry.prometheus_text()
        assert "# HELP repro_things_total counted things" in text
        assert "# TYPE repro_things_total counter" in text


class TestGauge:
    def test_set_then_inc(self):
        gauge = Gauge("repro_depth", "depth")
        gauge.set(10)
        gauge.inc(-3)
        assert gauge.value() == 7

    def test_type_line_comes_from_registry(self):
        registry = MetricsRegistry()
        registry.gauge("repro_depth", "depth").set(1)
        assert "# TYPE repro_depth gauge" in registry.prometheus_text()


class TestHistogram:
    def test_observe_fills_buckets(self):
        hist = Histogram("repro_h", "h", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.count() == 3
        assert hist.sum() == 55.5
        # Cumulative: le=1 -> 1, le=10 -> 2, +Inf -> 3.
        assert hist.cumulative_counts() == [1, 2, 3]

    def test_buckets_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            Histogram("repro_h", "h", buckets=(10.0, 1.0))

    def test_exposition_has_cumulative_buckets_and_count(self):
        hist = Histogram("repro_h", "h", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(3.0)
        lines = hist.exposition_lines()
        assert 'repro_h_bucket{le="1"} 1' in lines
        assert 'repro_h_bucket{le="10"} 2' in lines
        assert 'repro_h_bucket{le="+Inf"} 2' in lines
        assert "repro_h_sum 3.5" in lines
        assert "repro_h_count 2" in lines

    def test_default_buckets_are_fixed_and_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert len(set(DEFAULT_BUCKETS)) == len(DEFAULT_BUCKETS)


class TestMetricsRegistry:
    def test_register_once_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_x_total", "x")
        again = registry.counter("repro_x_total")
        assert first is again

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "x")
        with pytest.raises(ValueError, match="registered"):
            registry.gauge("repro_x_total", "x")

    def test_prometheus_text_passes_own_checker(self):
        registry = MetricsRegistry()
        registry.counter("repro_jobs_total", "jobs").inc(3)
        registry.gauge("repro_depth", "queue depth").set(2, {"backend": "s"})
        registry.histogram("repro_secs", "s", buckets=(1.0, 5.0)).observe(2)
        assert check_prometheus_text(registry.prometheus_text()) == []

    def test_round_trips_through_dict(self):
        registry = MetricsRegistry()
        registry.counter("repro_jobs_total", "jobs").inc(3, {"job": "a"})
        registry.histogram("repro_secs", "s", buckets=(1.0,)).observe(0.5)
        clone = MetricsRegistry.from_dict(registry.to_dict())
        assert clone.prometheus_text() == registry.prometheus_text()


class TestNullTelemetry:
    def test_disabled_and_inert(self, detached_run):
        """With no telemetry on the hub, the trace and the alerts are
        still complete."""
        observers, records = detached_run("telemetry")
        kinds = [record["kind"] for record in records]
        assert kinds[-1] == "run"
        assert "checkpoint_write" in kinds and "round_resume" in kinds
        alerts = observers.watchdog.alerts
        assert alerts
        assert [k for k in kinds if k in {a["kind"] for a in alerts}] == [
            alert["kind"] for alert in alerts
        ]


class TestTelemetrySampling:
    def test_samples_record_series_value_time_source(self):
        telemetry = Telemetry(run_id="r")
        telemetry.sample("shuffle_bytes", 100, labels={"job": "j"}, at=0.0)
        telemetry.sample("shuffle_bytes", 200, labels={"job": "j"}, at=5.0)
        records = telemetry.samples
        assert [r["value"] for r in records] == [100, 200]
        assert [r["t"] for r in records] == [0.0, 5.0]
        assert all(r["source"] == "sim" for r in records)
        assert records[0]["labels"] == {"job": "j"}

    def test_explicit_timestamp_overrides_clock(self):
        telemetry = Telemetry()
        telemetry.sample("s", 1, at=42.5)
        assert telemetry.samples[0]["t"] == 42.5

    def test_host_source_tagged(self):
        telemetry = Telemetry()
        telemetry.sample("driver_rss_bytes", 1, at=0.0, source="host")
        assert telemetry.samples[0]["source"] == "host"

    def test_unknown_source_rejected(self):
        telemetry = Telemetry()
        with pytest.raises(ValueError, match="source"):
            telemetry.sample("s", 1, at=0.0, source="wall")

    def test_cadence_drops_dense_samples_deterministically(self):
        telemetry = Telemetry(cadence=1.0)
        for tick in range(10):
            telemetry.sample("s", tick, at=tick * 0.25)
        kept = [r["t"] for r in telemetry.samples]
        # Only samples >= 1.0 logical second apart survive.
        assert kept == [0.0, 1.0, 2.0]
        assert telemetry.dropped_samples == 7

    def test_cadence_is_per_series_and_label_set(self):
        telemetry = Telemetry(cadence=10.0)
        telemetry.sample("s", 1, labels={"job": "a"}, at=0.0)
        telemetry.sample("s", 2, labels={"job": "b"}, at=0.5)
        assert len(telemetry.samples) == 2  # different keys: both kept

    def test_negative_cadence_rejected(self):
        with pytest.raises(ValueError, match="cadence"):
            Telemetry(cadence=-1.0)


class TestTimelineArtifact:
    def test_records_have_meta_then_samples_then_registry(self):
        telemetry = Telemetry(run_id="run-1")
        telemetry.counter("repro_jobs_total", "jobs").inc()
        telemetry.sample("s", 1, at=0.0)
        records = telemetry.timeline_records(clock=2.5)
        assert records[0]["type"] == "meta"
        assert records[0]["run_id"] == "run-1"
        assert records[0]["clock"] == 2.5
        assert records[1]["type"] == "sample"
        assert records[-1]["type"] == "registry"

    def test_write_timeline_is_valid_jsonl(self, tmp_path):
        telemetry = Telemetry(run_id="run-1")
        telemetry.sample("s", 1, at=0.0)
        path = tmp_path / "timeline.jsonl"
        telemetry.write_timeline(path, clock=0.0)
        lines = path.read_text().strip().splitlines()
        assert [json.loads(line)["type"] for line in lines] == [
            "meta", "sample", "registry",
        ]


class TestDriverRss:
    def test_reports_positive_bytes_or_none(self):
        rss = driver_rss_bytes()
        assert rss is None or rss > 1024 * 1024  # > 1 MiB if measurable


class TestEmitRunTelemetry:
    """Run-level series, emitted through the hub at run end."""

    def run_metrics(self):
        from repro.mapreduce import JobMetrics, RunMetrics

        run = RunMetrics(algorithm="X", output_groups=42)
        run.jobs.append(JobMetrics(name="j", total_seconds=3.0))
        run.extras["sketch_bytes"] = 512
        return run

    def test_null_cluster_is_a_no_op(self):
        Observers().end_run(self.run_metrics(), base=0.0)  # must not raise

    def test_records_run_level_series(self):
        observers = Observers(telemetry=Telemetry(run_id="t"))
        observers.advance(3.0)
        observers.end_run(self.run_metrics(), base=0.0)
        samples = observers.telemetry.samples
        names = {r["series"] for r in samples}
        assert "cube_groups" in names
        assert "sketch_bytes" in names
        assert {r["t"] for r in samples} == {3.0}  # stamped at the clock
        registry = observers.telemetry.registry
        assert registry.get("repro_runs_total").value({"run": "X"}) == 1
        assert (
            registry.get("repro_cube_groups").value({"run": "X"}) == 42
        )


class TestPrometheusChecker:
    def test_flags_malformed_lines(self):
        bad = "\n".join([
            "# TYPE repro_x counter",
            "repro_x notanumber",
            "9bad_name 1",
            'repro_y{le=} 3',
        ])
        problems = check_prometheus_text(bad)
        assert len(problems) >= 3

    def test_flags_noncumulative_histogram(self):
        bad = "\n".join([
            "# TYPE repro_h histogram",
            'repro_h_bucket{le="1"} 5',
            'repro_h_bucket{le="10"} 3',
            'repro_h_bucket{le="+Inf"} 5',
            "repro_h_sum 1",
            "repro_h_count 5",
        ])
        problems = check_prometheus_text(bad)
        assert any("cumulative" in p or "monoton" in p for p in problems)

    def test_flags_duplicate_series(self):
        bad = "repro_x 1\nrepro_x 2"
        assert any("duplicate" in p for p in check_prometheus_text(bad))

    def test_accepts_empty_text(self):
        assert check_prometheus_text("") == []
