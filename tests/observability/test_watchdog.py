"""The online watchdog: typed alerts from synthetic flow jobs."""

from types import SimpleNamespace

import pytest

from repro.observability import (
    ALERT_KINDS,
    Watchdog,
)


def metrics(seconds=4.0, aborted=False):
    return SimpleNamespace(total_seconds=seconds, aborted=aborted)


def flow_job(reduces, flows=None, maps=None, name="job", memory=10):
    """A synthetic merge-point flow record.

    ``reduces`` is ``{reducer: records_in}``; ``flows`` a list of
    ``(map_task, reducer, records, cuboids)``.
    """
    return {
        "job": name,
        "num_reducers": len(reduces),
        "map_tasks": len(maps or []),
        "memory_records": memory,
        "completed_reducers": [],
        "maps": maps or [],
        "flows": [
            {"map_task": m, "reducer": r, "records": n, "bytes": 10 * n,
             "cuboids": dict(cuboids)}
            for m, r, n, cuboids in (flows or [])
        ],
        "reduces": [
            {"task": task, "records_in": records, "records_out": records,
             "seconds": 1.0}
            for task, records in sorted(reduces.items())
        ],
    }


class TestSkew:
    def test_balanced_job_stays_quiet(self):
        watchdog = Watchdog()
        job = flow_job({0: 10, 1: 11, 2: 9})
        assert watchdog.inspect_job(job, metrics(), t0=0.0) == []

    def test_hot_reducer_fires_with_band_fields(self):
        watchdog = Watchdog()
        # n=120 over k=3 → band 40+10=50, ceiling 100; reducer 2 is 110.
        job = flow_job({0: 5, 1: 5, 2: 110})
        alerts = watchdog.inspect_job(job, metrics(), t0=0.0)
        assert [a["kind"] for a in alerts] == ["skew_alert"]
        alert = alerts[0]
        assert alert["reducer"] == 2
        assert alert["observed"] == 110
        assert alert["bound"] == 50.0
        assert alert["ratio"] == 2.2
        assert alert["at"] == 4.0
        assert alert["type"] == "alert"

    def test_expectation_exempts_skew_reducer_zero(self):
        watchdog = Watchdog()
        watchdog.expect("job", n=30, k=2, m=10, predicted={})
        # Reducer 0 is huge but is the designated skew reducer; the
        # ranged reducers 1..2 are balanced (band 15+10).
        job = flow_job({0: 500, 1: 15, 2: 15})
        assert watchdog.inspect_job(job, metrics(), t0=0.0) == []

    def test_tolerance_knob_scales_the_ceiling(self):
        strict = Watchdog(skew_tolerance=1.0)
        job = flow_job({0: 10, 1: 10, 2: 45})  # band ~31.7, ceiling 1×
        alerts = strict.inspect_job(job, metrics(), t0=0.0)
        assert [a["kind"] for a in alerts] == ["skew_alert"]

    def test_tolerances_must_be_positive(self):
        with pytest.raises(ValueError):
            Watchdog(skew_tolerance=0)
        with pytest.raises(ValueError):
            Watchdog(straggler_factor=-1)


class TestMisannotation:
    def test_requires_an_expectation(self):
        watchdog = Watchdog()
        job = flow_job(
            {0: 5, 1: 200},
            flows=[(0, 1, 200, {7: 200})],
        )
        kinds = [
            a["kind"] for a in watchdog.inspect_job(job, metrics(), t0=0.0)
        ]
        assert "misannotation_alert" not in kinds

    def test_ranged_cuboid_over_band_is_named(self):
        watchdog = Watchdog()
        watchdog.expect("job", n=40, k=2, m=10, predicted={})
        # Band 40/2+10=30, ceiling 60; cuboid 7 drops 100 on reducer 1.
        job = flow_job(
            {0: 5, 1: 105, 2: 5},
            flows=[(0, 1, 100, {7: 100}), (0, 1, 5, {3: 5}),
                   (0, 0, 5, {7: 5})],
        )
        alerts = [
            a for a in watchdog.inspect_job(job, metrics(), t0=0.0)
            if a["kind"] == "misannotation_alert"
        ]
        assert len(alerts) == 1
        assert alerts[0]["cuboid"] == 7
        assert alerts[0]["reducer"] == 1
        assert alerts[0]["observed"] == 100
        # Flows into the skew reducer 0 never count against the band.


class TestStragglers:
    def make_job(self, seconds):
        job = flow_job({i: 10 for i in range(len(seconds))})
        for task, duration in zip(job["reduces"], seconds):
            task["seconds"] = duration
        return job

    def test_needs_minimum_task_count(self):
        watchdog = Watchdog()
        job = self.make_job([1.0, 1.0, 30.0])  # 3 < MIN_STRAGGLER_TASKS
        assert watchdog.inspect_job(job, metrics(), t0=0.0) == []

    def test_slow_task_over_three_times_median_fires(self):
        watchdog = Watchdog()
        job = self.make_job([1.0, 1.0, 1.0, 3.5])
        alerts = watchdog.inspect_job(job, metrics(), t0=0.0)
        assert [a["kind"] for a in alerts] == ["straggler_alert"]
        assert alerts[0]["phase"] == "reduce"
        assert alerts[0]["task"] == 3
        assert alerts[0]["ratio"] == 3.5

    def test_map_phase_checked_too(self):
        watchdog = Watchdog()
        job = flow_job(
            {0: 10},
            maps=[{"task": i, "records_in": 1, "records_out": 1,
                   "seconds": 1.0} for i in range(4)],
        )
        job["maps"][2]["seconds"] = 10.0
        alerts = watchdog.inspect_job(job, metrics(), t0=0.0)
        assert [(a["kind"], a["phase"], a["task"]) for a in alerts] == [
            ("straggler_alert", "map", 2)
        ]


class TestLifecycle:
    def test_aborted_executions_counted_but_not_inspected(self):
        watchdog = Watchdog()
        hot = flow_job({0: 5, 1: 5, 2: 110})
        assert watchdog.inspect_job(
            hot, metrics(aborted=True), t0=0.0
        ) == []
        alerts = watchdog.inspect_job(flow_job({0: 5, 1: 5, 2: 110}),
                                      metrics(), t0=0.0)
        # The aborted run consumed execution 0; the retry is execution 1.
        assert alerts[0]["execution"] == 1

    def test_clock_advances_alert_timestamps(self):
        # Alerts land at the job's end: its start on the hub clock plus
        # its duration.
        alerts = Watchdog().inspect_job(
            flow_job({0: 5, 1: 5, 2: 110}), metrics(seconds=2.0), t0=10.0
        )
        assert alerts[0]["at"] == 12.0

    def test_alert_kinds_are_the_public_taxonomy(self):
        watchdog = Watchdog()
        watchdog.expect("job", n=40, k=2, m=10, predicted={})
        job = flow_job(
            {0: 5, 1: 205, 2: 5, 3: 5},
            flows=[(0, 1, 200, {7: 200})],
        )
        job["reduces"][1]["seconds"] = 50.0
        kinds = [
            a["kind"] for a in watchdog.inspect_job(job, metrics(), t0=0.0)
        ]
        assert kinds == list(ALERT_KINDS)
        assert watchdog.alerts[-len(kinds):] == watchdog.alerts

    def test_comparison_spans_the_reducer_union(self):
        watchdog = Watchdog()
        watchdog.expect("job", n=30, k=2, m=10,
                        predicted={0: 4, 1: 16, 2: 10})
        watchdog.inspect_job(
            flow_job({0: 4, 1: 18, 2: 8}), metrics(), t0=0.0
        )
        comparison = watchdog.comparisons["job"]
        assert comparison["observed"] == {0: 4, 1: 18, 2: 8}
        assert comparison["deltas"] == {0: 0, 1: 2, 2: -2}
        assert comparison["execution"] == 0

    def test_null_watchdog_is_inert(self, detached_run):
        """With no watchdog on the hub, the recorder still captures every
        round and no alert is raised anywhere."""
        observers, records = detached_run("watchdog")
        assert observers.lineage.jobs
        assert observers.lineage.alerts == []
        assert observers.telemetry.registry.get(
            "repro_watchdog_alerts_total"
        ) is None
        assert not set(ALERT_KINDS) & {record["kind"] for record in records}
