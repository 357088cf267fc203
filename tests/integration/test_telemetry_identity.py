"""Telemetry is observation-only: it may never change a run.

Two invariants of the telemetry layer, enforced for every engine:

* **on/off identity** — a run with a :class:`Telemetry` collector
  attached produces the same cube and the same simulated metrics as a
  run without one, serial and parallel alike.  Instrumentation reads the
  simulation; it never feeds back into it.
* **serial/parallel sample identity** — every sample on the logical-time
  axis (``source == "sim"``) is bit-identical between a serial and a
  parallel run of the same workload.  Host-source samples (RSS, wall
  clock, executor depth) are explicitly excluded: they measure the real
  machine.
"""

import json
from dataclasses import asdict

import pytest

from repro.baselines import HiveCube, MRCube, NaiveCube, PipeSortMR
from repro.core import SPCube
from repro.datagen import gen_binomial
from repro.mapreduce import (
    ClusterConfig,
    CostModel,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.observability import (
    ALERT_KINDS,
    LineageRecorder,
    MemorySink,
    Observers,
    Telemetry,
    Tracer,
    Watchdog,
)

ENGINES = {
    "spcube": SPCube,
    "naive": NaiveCube,
    "hive": HiveCube,
    "mrcube": MRCube,
    "pipesort": PipeSortMR,
}

#: JobMetrics fields describing the backend, not the simulation.
BACKEND_FIELDS = (
    "executor", "map_phase_wall_seconds", "reduce_phase_wall_seconds",
)

CRASH_PLAN = FaultPlan([FaultSpec("crash", phase="map", task=0, attempt=0)])


@pytest.fixture(scope="module")
def binomial():
    return gen_binomial(400, 0.3, seed=9)


def make_cluster(telemetry=None, parallelism=None, fault_plan=None,
                 tracer=None):
    return ClusterConfig(
        num_machines=4,
        memory_records=64,
        cost_model=CostModel(speculation_launch_seconds=1e-4),
        fault_plan=fault_plan,
        retry_policy=RetryPolicy(),
        parallelism=parallelism,
        observers=(
            Observers(tracer=tracer, telemetry=telemetry)
            if tracer is not None or telemetry is not None else None
        ),
    )


def assert_same_simulation(plain_run, telemetered_run):
    assert telemetered_run.cube == plain_run.cube
    assert len(telemetered_run.metrics.jobs) == len(plain_run.metrics.jobs)
    for plain_job, telem_job in zip(
        plain_run.metrics.jobs, telemetered_run.metrics.jobs
    ):
        plain_dict, telem_dict = asdict(plain_job), asdict(telem_job)
        for backend_field in BACKEND_FIELDS:
            plain_dict.pop(backend_field)
            telem_dict.pop(backend_field)
        assert telem_dict == plain_dict, plain_job.name
    assert telemetered_run.metrics.extras == plain_run.metrics.extras
    assert (
        telemetered_run.metrics.output_groups
        == plain_run.metrics.output_groups
    )


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_telemetry_does_not_change_serial_runs(binomial, engine_name):
    engine_cls = ENGINES[engine_name]
    plain = engine_cls(make_cluster()).compute(binomial)
    telemetry = Telemetry(run_id=engine_name)
    telemetered = engine_cls(make_cluster(telemetry)).compute(binomial)
    assert_same_simulation(plain, telemetered)
    assert telemetry.samples  # the collector actually collected


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_telemetry_does_not_change_parallel_runs(binomial, engine_name):
    engine_cls = ENGINES[engine_name]
    plain = engine_cls(make_cluster(parallelism=3)).compute(binomial)
    telemetered = engine_cls(
        make_cluster(Telemetry(run_id=engine_name), parallelism=3)
    ).compute(binomial)
    assert_same_simulation(plain, telemetered)


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_sim_samples_identical_serial_vs_parallel(binomial, engine_name):
    """The logical-time axis is deterministic: a parallel run must emit
    exactly the serial run's sim samples (host samples may differ)."""
    engine_cls = ENGINES[engine_name]
    serial_telemetry = Telemetry(run_id=engine_name)
    parallel_telemetry = Telemetry(run_id=engine_name)
    serial = make_cluster(serial_telemetry)
    parallel = make_cluster(parallel_telemetry, parallelism=3)
    engine_cls(serial).compute(binomial)
    engine_cls(parallel).compute(binomial)

    def sim_only(telemetry):
        return [
            {k: v for k, v in record.items() if k != "source"}
            for record in telemetry.samples
            if record["source"] == "sim"
        ]

    assert sim_only(parallel_telemetry) == sim_only(serial_telemetry)
    assert parallel.observers.clock == serial.observers.clock


def test_sim_samples_identical_under_faults(binomial):
    """Crash-retry chains land on the logical clock too, so the sample
    identity must survive fault injection."""
    serial_telemetry = Telemetry(run_id="faulted")
    parallel_telemetry = Telemetry(run_id="faulted")
    SPCube(
        make_cluster(serial_telemetry, fault_plan=CRASH_PLAN)
    ).compute(binomial)
    SPCube(
        make_cluster(parallel_telemetry, parallelism=3,
                     fault_plan=CRASH_PLAN)
    ).compute(binomial)
    serial_sim = [
        r for r in serial_telemetry.samples if r["source"] == "sim"
    ]
    parallel_sim = [
        r for r in parallel_telemetry.samples if r["source"] == "sim"
    ]
    assert parallel_sim == serial_sim


def test_samples_independent_of_tracer(binomial):
    """Sample times ride the hub's one clock, which advances whichever
    subscribers are attached: a run with a trace sink attached must emit
    exactly the samples of an untraced run."""
    untraced_telemetry = Telemetry(run_id="multi-round")
    traced_telemetry = Telemetry(run_id="multi-round")
    untraced = make_cluster(untraced_telemetry)
    traced = make_cluster(
        traced_telemetry, tracer=Tracer(sinks=[MemorySink()])
    )
    SPCube(untraced).compute(binomial)
    SPCube(traced).compute(binomial)
    sim = lambda t: [r for r in t.samples if r["source"] == "sim"]
    assert sim(traced_telemetry) == sim(untraced_telemetry)
    assert traced.observers.clock == untraced.observers.clock


def test_telemetry_off_by_default(binomial):
    """A bare cluster carries no collector: nothing to pay, nothing
    recorded."""
    cluster = make_cluster()
    assert cluster.observers is None
    run = SPCube(cluster).compute(binomial)
    assert run.metrics.output_groups > 0


#: Registry metrics observing the host, excluded like host samples.
HOST_METRICS = (
    "repro_driver_rss_bytes",
    "repro_executor_queue_depth",
    "repro_executor_inflight_batches",
)

#: What a channel receives only from a companion subscriber: watchdog
#: alerts fanned out to the trace and the telemetry alert counter, and
#: the lineage recorder's per-job summary event.
COMPANION_KINDS = ("lineage",) + ALERT_KINDS
COMPANION_METRICS = ("repro_watchdog_alerts_total",)


def artifact_bytes(channel, observers, sink):
    """The channel's own artifact as bytes.

    Host observations and companion records (see above) are set aside;
    every timestamp stays in.  Trace ``seq`` numbers are dropped because
    companion events interleave with the channel's own records.
    """
    if channel == "tracer":
        records = [
            {k: v for k, v in record.items() if k != "seq"}
            for record in sink.records
            if record["kind"] not in COMPANION_KINDS
        ]
    else:
        records = []
        for record in observers.telemetry.timeline_records(observers.clock):
            if record.get("source") == "host":
                continue
            if record["type"] == "registry":
                record["registry"]["metrics"] = [
                    metric for metric in record["registry"]["metrics"]
                    if metric["name"] not in HOST_METRICS + COMPANION_METRICS
                ]
            records.append(record)
    return "\n".join(json.dumps(r, sort_keys=True) for r in records).encode()


def observed_run(engine_cls, relation, channel, attach_all):
    sink = MemorySink()
    subscribers = {
        "tracer": Tracer([sink], level="debug"),
        "telemetry": Telemetry(run_id="one-clock"),
        "lineage": LineageRecorder(run_id="one-clock"),
        "watchdog": Watchdog(),
    }
    if not attach_all:
        subscribers = {channel: subscribers[channel]}
    cluster = make_cluster(fault_plan=CRASH_PLAN)
    cluster.observers = Observers(**subscribers)
    engine_cls(cluster).compute(relation)
    return artifact_bytes(channel, cluster.observers, sink)


@pytest.mark.parametrize("channel", ["tracer", "telemetry"])
@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_one_clock_artifact_alone_equals_with_all_four(
    binomial, engine_name, channel
):
    """The hub's one clock advances the same way whichever subscribers
    are attached, so a channel's artifact cannot depend on its company."""
    alone = observed_run(ENGINES[engine_name], binomial, channel, False)
    together = observed_run(ENGINES[engine_name], binomial, channel, True)
    assert alone
    assert together == alone
