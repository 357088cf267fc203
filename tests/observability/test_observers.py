"""The observation hub: subscribers, the one logical clock, routing."""

import pytest

from repro.core import SPCube
from repro.datagen import gen_binomial
from repro.mapreduce import ClusterConfig, JobMetrics, RunMetrics
from repro.observability import (
    LEVEL_DEBUG,
    LEVEL_JOB,
    LEVEL_OFF,
    LineageRecorder,
    MemorySink,
    Observers,
    Telemetry,
    Tracer,
    Watchdog,
)


@pytest.fixture(scope="module")
def relation():
    return gen_binomial(300, 0.3, seed=4)


def run_metrics():
    run = RunMetrics(algorithm="X", output_groups=7)
    run.jobs.append(JobMetrics(name="j", total_seconds=3.0))
    return run


class TestClock:
    def test_clock_accumulates(self):
        observers = Observers()
        observers.advance(10.0)
        observers.advance(5.5)
        assert observers.clock == 15.5

    def test_one_advance_per_round(self, relation):
        """The clock covers every round of every run on the hub."""
        observers = Observers()
        cluster = ClusterConfig(num_machines=4, observers=observers)
        first = SPCube(cluster).compute(relation)
        second = SPCube(cluster).compute(relation)
        assert observers.clock == (
            first.metrics.total_seconds + second.metrics.total_seconds
        )

    def test_runs_lay_out_back_to_back(self, relation):
        sink = MemorySink()
        observers = Observers(tracer=Tracer([sink], level="job"))
        cluster = ClusterConfig(num_machines=4, observers=observers)
        SPCube(cluster).compute(relation)
        SPCube(cluster).compute(relation)
        runs = [r for r in sink.records if r["kind"] == "run"]
        assert runs[0]["t0"] == 0.0
        assert runs[1]["t0"] == runs[0]["t1"]
        assert runs[1]["t1"] == observers.clock


class TestDetachedHub:
    def test_inert_without_subscribers(self, relation):
        """A hub with nothing attached accepts every call and records
        nothing — but still keeps time."""
        observers = Observers()
        assert not observers.trace_tasks
        run = SPCube(
            ClusterConfig(num_machines=4, observers=observers)
        ).compute(relation)
        observers.event("sketch", job="j", fields={})
        observers.checkpoint_written(0, run.metrics.jobs[0], 4, 1.0)
        observers.round_resumed(0, run.metrics.jobs[0], {})
        observers.end_run(run_metrics(), base=0.0)
        observers.close()
        assert observers.clock == run.metrics.total_seconds


class TestRouting:
    def test_trace_tasks_follows_the_tracer_level(self):
        assert not Observers(tracer=Tracer([], level=LEVEL_JOB)).trace_tasks
        assert not Observers(tracer=Tracer([], level=LEVEL_OFF)).trace_tasks
        assert Observers(tracer=Tracer([], level=LEVEL_DEBUG)).trace_tasks

    def test_driver_events_stamp_the_clock(self):
        sink = MemorySink()
        observers = Observers(tracer=Tracer([sink]))
        observers.advance(4.0)
        observers.event("sketch", job="sp-sketch", fields={"bytes": 1})
        observers.checkpoint_written(
            2, JobMetrics(name="j", total_seconds=1.0), 3, 9.0
        )
        assert [(r["kind"], r["at"]) for r in sink.records] == [
            ("sketch", 4.0), ("checkpoint_write", 4.0),
        ]
        assert sink.records[1]["fields"] == {
            "round": 2, "num_parts": 3, "run_clock": 9.0,
        }

    def test_run_span_covers_base_to_run_end(self):
        sink = MemorySink()
        observers = Observers(tracer=Tracer([sink]))
        observers.end_run(run_metrics(), base=2.0)
        (span,) = sink.records
        assert (span["kind"], span["t0"], span["t1"]) == ("run", 2.0, 5.0)
        assert span["counters"]["output_groups"] == 7

    def test_alerts_fan_out_to_every_subscriber(self):
        """One watchdog alert reaches the lineage artifact, the trace
        and the telemetry counter."""
        relation = gen_binomial(1500, 0.9, seed=11)
        sink = MemorySink()
        observers = Observers(
            tracer=Tracer([sink], level="job"),
            telemetry=Telemetry(),
            lineage=LineageRecorder(),
            watchdog=Watchdog(),
        )
        SPCube(
            ClusterConfig(num_machines=4, memory_records=32,
                          observers=observers)
        ).compute(relation)
        alerts = observers.watchdog.alerts
        assert alerts
        assert observers.lineage.alerts == alerts
        kinds = {alert["kind"] for alert in alerts}
        traced = [r["kind"] for r in sink.records if r["kind"] in kinds]
        assert traced == [alert["kind"] for alert in alerts]
        counter = observers.telemetry.registry.get(
            "repro_watchdog_alerts_total"
        )
        assert sum(counter.value({"kind": k}) for k in kinds) == len(alerts)
