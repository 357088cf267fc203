"""Shared fixtures for the observation hub's subscribers."""

import pytest

from repro.core import SPCube
from repro.datagen import gen_binomial
from repro.mapreduce import ClusterConfig
from repro.observability import (
    LineageRecorder,
    MemorySink,
    Observers,
    Telemetry,
    Tracer,
    Watchdog,
)


@pytest.fixture
def detached_run():
    """Run a skewed cube on a hub with one subscriber left out.

    ``detached_run(missing)`` attaches every subscriber but ``missing``,
    runs SP-Cube on data that trips the watchdog, drives each
    driver-level hub call, and returns ``(observers, trace records)``.
    The left-out subscriber must stay ``None`` and the clock must still
    cover the run: nothing on the hub reaches for an absent subscriber.
    """

    def run(missing):
        sink = MemorySink()
        subscribers = {
            "tracer": Tracer([sink], level="debug"),
            "telemetry": Telemetry(),
            "lineage": LineageRecorder(),
            "watchdog": Watchdog(),
        }
        del subscribers[missing]
        observers = Observers(**subscribers)
        result = SPCube(
            ClusterConfig(num_machines=4, memory_records=32,
                          observers=observers)
        ).compute(gen_binomial(1500, 0.9, seed=11))
        job = result.metrics.jobs[0]
        observers.event("sketch", job=job.name, fields={})
        observers.checkpoint_written(0, job, 4, 1.0)
        observers.round_resumed(0, job, {})
        observers.end_run(result.metrics, base=0.0)
        observers.close()
        assert getattr(observers, missing) is None
        assert observers.clock == result.metrics.total_seconds
        return observers, sink.records

    return run
