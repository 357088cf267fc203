"""The flight recorder and watchdog are deterministic observers.

The lineage artifact is recorded at the engine's driver-side merge
point, so its byte sequence — and the watchdog alerts derived from it —
must be **bit-identical** between the serial and parallel backends for
every engine, clean and under injected task and node faults.  And like
telemetry, attaching either may never change the simulation itself.
"""

import json
from dataclasses import replace

import pytest

from repro.analysis import paper_cluster
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
from repro.mapreduce.faults import NodeFaultSpec
from repro.observability import (
    LineageRecorder,
    MemorySink,
    Observers,
    Telemetry,
    TraceAnalysis,
    Tracer,
    Watchdog,
    attribute_load,
)

ENGINES = {
    "spcube": SPCube,
    "naive": NaiveCube,
    "hive": HiveCube,
    "mrcube": MRCube,
    "pipesort": PipeSortMR,
}

CRASH_PLAN = FaultPlan([FaultSpec("crash", phase="map", task=0, attempt=0)])


@pytest.fixture(scope="module")
def binomial():
    return gen_binomial(400, 0.3, seed=9)


def make_cluster(lineage=None, watchdog=None, parallelism=None,
                 fault_plan=None):
    return ClusterConfig(
        num_machines=4,
        memory_records=64,
        cost_model=CostModel(speculation_launch_seconds=1e-4),
        fault_plan=fault_plan,
        retry_policy=RetryPolicy(),
        parallelism=parallelism,
        observers=(
            Observers(lineage=lineage, watchdog=watchdog)
            if lineage is not None or watchdog is not None else None
        ),
    )


def recorded_run(engine_cls, relation, parallelism=None, fault_plan=None):
    lineage = LineageRecorder(run_id="identity")
    watchdog = Watchdog()
    engine_cls(
        make_cluster(lineage, watchdog, parallelism=parallelism,
                     fault_plan=fault_plan)
    ).compute(relation)
    return lineage, watchdog


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_serial_parallel_identity_clean(binomial, engine_name):
    serial_lin, serial_dog = recorded_run(ENGINES[engine_name], binomial)
    par_lin, par_dog = recorded_run(
        ENGINES[engine_name], binomial, parallelism=3
    )
    assert par_lin.to_records() == serial_lin.to_records()
    assert par_dog.alerts == serial_dog.alerts
    assert par_dog.comparisons == serial_dog.comparisons


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_serial_parallel_identity_under_task_faults(binomial, engine_name):
    serial_lin, serial_dog = recorded_run(
        ENGINES[engine_name], binomial, fault_plan=CRASH_PLAN
    )
    par_lin, par_dog = recorded_run(
        ENGINES[engine_name], binomial, parallelism=3,
        fault_plan=CRASH_PLAN,
    )
    assert par_lin.to_records() == serial_lin.to_records()
    assert par_dog.alerts == serial_dog.alerts


def node_cluster(parallelism=None):
    """A checkpointing multi-node cluster that loses node 1 mid-round."""
    base = paper_cluster(2000, num_machines=6, num_nodes=3)
    plan = FaultPlan(seed=11, node_specs=[
        NodeFaultSpec(node=1, at_seconds=0.5, job="mrcube-materialize"),
    ])
    return replace(
        base,
        fault_plan=plan,
        parallelism=parallelism,
        observers=Observers(
            lineage=LineageRecorder(run_id="identity"), watchdog=Watchdog()
        ),
    )


def test_serial_parallel_identity_under_node_faults():
    """A node loss re-executes the round; the aborted execution and the
    resume both appear in the artifact identically for both backends."""
    relation = gen_binomial(2000, 0.5, seed=3)
    serial = node_cluster()
    parallel = node_cluster(parallelism=3)
    serial_run = MRCube(serial).compute(relation)
    parallel_run = MRCube(parallel).compute(relation)
    assert serial_run.metrics.nodes_lost == 1
    assert parallel_run.cube == serial_run.cube
    assert (
        parallel.observers.lineage.to_records()
        == serial.observers.lineage.to_records()
    )
    assert (
        parallel.observers.watchdog.alerts
        == serial.observers.watchdog.alerts
    )
    # The killed round is present as an aborted execution 0 followed by
    # a clean execution 1 of the same job name.
    executions = [
        (r["job"], r["execution"], r["aborted"])
        for r in serial.observers.lineage.to_records() if r["type"] == "job"
        and r["job"] == "mrcube-materialize"
    ]
    assert ("mrcube-materialize", 0, True) in executions
    assert ("mrcube-materialize", 1, False) in executions


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_recording_does_not_change_runs(binomial, engine_name):
    engine_cls = ENGINES[engine_name]
    plain = engine_cls(make_cluster()).compute(binomial)
    recorded = engine_cls(
        make_cluster(LineageRecorder(), Watchdog())
    ).compute(binomial)
    assert recorded.cube == plain.cube
    assert len(recorded.metrics.jobs) == len(plain.metrics.jobs)
    for plain_job, rec_job in zip(
        plain.metrics.jobs, recorded.metrics.jobs
    ):
        assert rec_job.total_seconds == plain_job.total_seconds
        assert rec_job.map_output_records == plain_job.map_output_records


def test_lineage_off_by_default(binomial):
    cluster = make_cluster()
    assert cluster.observers is None
    run = SPCube(cluster).compute(binomial)
    assert run.metrics.output_groups > 0


def test_every_engine_classifies_cuboids(binomial):
    """Every cube round's flows carry a per-cuboid breakdown; only the
    classifier-less sample round (key ``0``) may record empty ones."""
    for engine_name, engine_cls in sorted(ENGINES.items()):
        lineage, _ = recorded_run(engine_cls, binomial)
        for job in lineage.jobs:
            if job["job"] in ("sp-sketch", "mrcube-sample"):
                continue
            assert any(flow["cuboids"] for flow in job["flows"]), (
                engine_name, job["job"],
            )


class TestWatchdogMatchesDoctor:
    """Acceptance: on a fault-free run the watchdog's predicted-vs-
    observed comparison must match ``attribute_load`` exactly."""

    @pytest.fixture(scope="class")
    def run(self):
        relation = gen_binomial(1500, 0.9, seed=11)
        sink = MemorySink()
        cluster = paper_cluster(len(relation), num_machines=4)
        observers = Observers(
            tracer=Tracer([sink], level="task"),
            lineage=LineageRecorder(run_id="doctor"),
            watchdog=Watchdog(),
        )
        cluster = replace(cluster, observers=observers)
        cube_run = SPCube(cluster).compute(relation)
        return relation, observers, cube_run, sink.records

    def test_deltas_are_zero_and_sides_match_attribution(self, run):
        relation, observers, cube_run, records = run
        comparison = observers.watchdog.comparisons["sp-cube"]
        attribution = attribute_load(
            relation, cube_run.sketch, TraceAnalysis(records)
        )
        assert attribution.matches is True
        assert comparison["predicted"] == attribution.predicted
        assert comparison["observed"] == attribution.actual
        assert all(d == 0 for d in comparison["deltas"].values())

    def test_explain_reducer_names_doctor_flagged_cuboids(self, run):
        """The hottest ranged reducer's explain walk must surface the
        cuboids the doctor's attribution says routed its load."""
        from repro.observability import explain_reducer

        relation, observers, cube_run, _records = run
        attribution = attribute_load(relation, cube_run.sketch)
        result = explain_reducer(
            observers.lineage.to_records(), job="sp-cube"
        )
        flagged = attribution.by_cuboid.get(result["reducer"], {})
        explained = {int(mask) for mask in result["by_cuboid"]}
        assert explained  # the walk names cuboids at all
        assert {m for m in flagged if flagged[m] > 0} <= explained


def channel_bytes(channel, observers):
    """The channel's own artifact as bytes.  The lineage artifact's
    alert records come from the companion watchdog and are set aside."""
    if channel == "lineage":
        records = [
            record for record in observers.lineage.to_records()
            if record["type"] != "alert"
        ]
    else:
        records = observers.watchdog.alerts + [observers.watchdog.comparisons]
    return "\n".join(json.dumps(r, sort_keys=True) for r in records).encode()


def observed_run(engine_cls, relation, channel, attach_all):
    subscribers = {
        "tracer": Tracer([MemorySink()], level="debug"),
        "telemetry": Telemetry(run_id="one-clock"),
        "lineage": LineageRecorder(run_id="one-clock"),
        "watchdog": Watchdog(),
    }
    if not attach_all:
        subscribers = {channel: subscribers[channel]}
    cluster = make_cluster(fault_plan=CRASH_PLAN)
    cluster.observers = Observers(**subscribers)
    engine_cls(cluster).compute(relation)
    return channel_bytes(channel, cluster.observers)


@pytest.mark.parametrize("channel", ["lineage", "watchdog"])
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
