"""Build phase: timed ``SPCube.compute`` runs, their checks and ledger.

Builds use the user's default path — serial executor, no tracer,
telemetry, lineage or watchdog — on the paper's 20-machine cluster with
``count``.  Every build is checked outside the timed region:

* its cube equals the ``sequential_cube`` oracle;
* its simulated counters equal those of the run's first build (builds
  of one input are deterministic, traced or not);
* round 2 delivered exactly the per-reducer records the sketch predicts
  (:func:`~repro.observability.diagnostics.predicted_reducer_loads`),
  every range-partitioned cuboid stays within the Prop 4.2(2) band
  ``n/k + m`` (times the watchdog's tolerance), and round 2's emitted
  tuples stay under the Theorem 5.3 ceiling ``2^d n``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.aggregates import Count
from repro.analysis import paper_cluster
from repro.core import SPCube
from repro.core import spcube as spcube_module
from repro.cubing.naive import sequential_cube
from repro.cubing.result import CubeResult
from repro.mapreduce.checkpoint import RoundRunner
from repro.mapreduce.dfs import DistributedFileSystem
from repro.observability.diagnostics import predicted_reducer_loads
from repro.observability.watchdog import SKEW_TOLERANCE
from repro.theory.bounds import worst_case_traffic

from spans import SpanRecorder, instrumented

#: Host-time fields of ``JobMetrics``; everything else is simulated and
#: must repeat exactly between builds of one input.
HOST_FIELDS = ("executor", "map_phase_wall_seconds", "reduce_phase_wall_seconds")

CUBE_JOB = "sp-cube"
SKETCH_JOB = "sp-sketch"


def timed_build(relation) -> Tuple[object, float]:
    """One default-path build; returns ``(CubeRun, compute seconds)``."""
    engine = SPCube(paper_cluster(len(relation)), Count())
    started = time.perf_counter()
    run = engine.compute(relation)
    return run, time.perf_counter() - started


def traced_build(relation, recorder: SpanRecorder) -> Tuple[object, float]:
    """A build with spans around the public calls of each build layer."""
    targets = [
        (SPCube, "compute", "SPCube.compute"),
        (RoundRunner, "run", "RoundRunner.run"),
        (spcube_module, "build_sketch_from_sample", "build_sketch_from_sample"),
        (CubeResult, "add_pairs", "CubeResult.add_pairs"),
        (DistributedFileSystem, "write", "DistributedFileSystem.write"),
    ]
    with instrumented(recorder, targets):
        return timed_build(relation)


def sim_signature(metrics) -> Dict:
    """The run's simulated counters, host wall times stripped."""
    data = metrics.to_dict()
    for job in data["jobs"]:
        for name in HOST_FIELDS:
            job.pop(name, None)
    return data


def _job(metrics, name: str):
    return next(job for job in metrics.jobs if job.name == name)


class BuildChecker:
    """Checks every build of one relation; see the module docstring."""

    def __init__(self, relation):
        self.relation = relation
        n = len(relation)
        cluster = paper_cluster(n)
        #: Prop 4.2(2)'s per-partition promise, times the tolerance the
        #: watchdog and the doctor allow.
        self.band = SKEW_TOLERANCE * (
            n / cluster.num_machines + cluster.derive_memory(n)
        )
        self._oracle: Optional[CubeResult] = None
        self._signature: Optional[Dict] = None
        self._predicted = None

    def check(self, run) -> List[str]:
        metrics = run.metrics
        if metrics.failed or metrics.aborted:
            return [
                f"build failed: {metrics.fatal_error or 'aborted or OOM round'}"
            ]
        problems = []
        if self._oracle is None:
            self._oracle = sequential_cube(self.relation, Count())
        if run.cube != self._oracle:
            diff = "; ".join(run.cube.diff(self._oracle, limit=3))
            problems.append(f"cube differs from the sequential oracle: {diff}")
        signature = sim_signature(metrics)
        if self._signature is None:
            self._signature = signature
            self._predicted = predicted_reducer_loads(
                self.relation, run.sketch,
                num_mappers=len(_job(metrics, CUBE_JOB).map_tasks),
            )
        elif signature != self._signature:
            problems.append("simulated counters differ from the first build")
        problems.extend(self._bound_problems(metrics))
        return problems

    def _bound_problems(self, metrics) -> List[str]:
        problems = []
        predicted = self._predicted
        job = _job(metrics, CUBE_JOB)
        observed = job.reducer_input_records
        expected = [predicted.predicted.get(r, 0) for r in range(len(observed))]
        if observed != expected:
            problems.append(
                f"reducer loads {observed} differ from the sketch's "
                f"prediction {expected}"
            )
        for reducer, cuboids in sorted(predicted.by_cuboid.items()):
            if reducer == 0:
                continue
            for mask, load in sorted(cuboids.items()):
                if load > self.band:
                    problems.append(
                        f"Prop 4.2(2): cuboid {mask} put {load} records on "
                        f"reducer {reducer} (band {self.band:.0f})"
                    )
        emitted = sum(expected[1:])
        n = len(self.relation)
        d = self.relation.schema.num_dimensions
        if emitted > worst_case_traffic(d, n):
            problems.append(
                f"Thm 5.3: {emitted} emitted tuples exceed 2^d n = "
                f"{worst_case_traffic(d, n)}"
            )
        return problems


def deterministic_layers(metrics) -> Dict[str, float]:
    """Per-layer counters the program returns; identical on every build."""
    job = _job(metrics, CUBE_JOB)

    def ratio(tasks, hits: str, misses: str) -> float:
        h = sum(t.counters.get(hits, 0) for t in tasks)
        total = h + sum(t.counters.get(misses, 0) for t in tasks)
        return h / total if total else 0.0

    return {
        "core.sketch.skewed_groups": metrics.extras["num_skewed_groups"],
        "core.sketch.bytes": metrics.extras["sketch_bytes"],
        "mapreduce.engine.shuffle_records": metrics.intermediate_records,
        "mapreduce.engine.shuffle_bytes": metrics.intermediate_bytes,
        "mapreduce.engine.max_reducer_records": job.max_reducer_input_records,
        "mapreduce.engine.reducer_balance": metrics.reducer_balance,
        "core.spcube.lattice_plan_hit_ratio": ratio(
            job.map_tasks, "lattice_plan_hits", "lattice_plan_misses"
        ),
        "core.spcube.covered_walk_hit_ratio": ratio(
            job.reduce_tasks, "covered_walk_hits", "covered_walk_misses"
        ),
        "mapreduce.engine.attempts": metrics.attempts,
        "mapreduce.engine.killed_tasks": metrics.killed_tasks,
    }


def timed_layers(metrics, recorder: SpanRecorder) -> Dict[str, float]:
    """Host seconds per build layer for the one traced build in ``recorder``.

    ``round_s + map_s + reduce_s + assembly_s`` is the traced compute
    wall exactly: assembly is everything outside round 1 and outside
    round 2's map and reduce phases (shuffle merge, checkpoints, cube
    assembly, DFS output).
    """
    (compute,) = recorder.all("SPCube.compute")
    rounds = {}
    for span, job in zip(recorder.all("RoundRunner.run"), metrics.jobs):
        rounds[job.name] = (span, job)
    sketch_span, _ = rounds[SKETCH_JOB]
    _, cube_job = rounds[CUBE_JOB]
    writes = recorder.all("DistributedFileSystem.write")
    round_self = 0.0
    for span, job in rounds.values():
        inner = sum(
            w.duration for w in writes if span.start <= w.start <= span.end
        )
        round_self += (
            span.duration - job.map_phase_wall_seconds
            - job.reduce_phase_wall_seconds - inner
        )
    layers = {
        "compute_s": compute.duration,
        "core.sketch.round_s": sketch_span.duration,
        "core.sketch.build_s": sum(
            s.duration for s in recorder.all("build_sketch_from_sample")
        ),
        "mapreduce.engine.map_s": cube_job.map_phase_wall_seconds,
        "mapreduce.engine.reduce_s": cube_job.reduce_phase_wall_seconds,
        "cubing.result.add_pairs_s": sum(
            s.duration for s in recorder.all("CubeResult.add_pairs")
        ),
        "mapreduce.dfs.write_s": sum(w.duration for w in writes),
        "mapreduce.checkpoint.round_self_s": round_self,
    }
    layers["core.spcube.assembly_s"] = (
        compute.duration - sketch_span.duration
        - cube_job.map_phase_wall_seconds - cube_job.reduce_phase_wall_seconds
    )
    return layers
