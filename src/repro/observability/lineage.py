"""The shuffle flight recorder — per-flow lineage of every shuffle edge.

Traces (PR 3) record *what ran* and telemetry (PR 8) records *how much*,
but neither can answer the operator question the ROADMAP's production
north-star demands: *why is this reducer hot — which cuboid's groups
landed on it, emitted by which map tasks, fed by which input splits?*
This module records exactly that join key: one **flow edge** per
``(map task, reducer partition)`` pair of every job, carrying the
record/byte volume of the edge and a per-cuboid breakdown classified by
the job's :attr:`~repro.mapreduce.engine.MapReduceJob.cuboid_of`
function.

Like the tracer and the telemetry collector, the recorder is:

* **driver-side** — flows are taken from the engine's deterministic
  task-index-order merge loop, never from workers, so the artifact is
  bit-identical between the serial and parallel backends (including
  under injected task and node faults);
* **logical-clock stamped** — job records carry ``t0`` from the
  observation hub's one clock (:mod:`repro.observability.observers`),
  the same clock every other subscriber stamps.

Re-executed rounds (the checkpoint layer's node-loss resume) appear as
distinct *executions* of the same job name; salvaged partitions that did
not re-run are listed in the job record's ``completed_reducers`` so the
explain walk knows their flows live in the previous execution.

The artifact is JSONL: a ``lineage_meta`` record, then per job a ``job``
record followed by its ``map_task``, ``flow`` and ``reduce_task``
records, then the watchdog's ``alert`` records (if a watchdog ran).
:func:`load_lineage` reads it back with line-numbered errors, mirroring
:func:`repro.observability.analyze.load_trace`.
"""

from __future__ import annotations

import json
from typing import Dict, List

#: Artifact format version, bumped on incompatible record changes.
LINEAGE_VERSION = 1

#: Record types a lineage artifact may contain, in document order.
LINEAGE_RECORD_TYPES = (
    "lineage_meta",
    "job",
    "map_task",
    "flow",
    "reduce_task",
    "alert",
)


def cuboid_of_mask_key(key):
    """Cuboid (lattice mask) of a ``(mask, values[, shard])`` shuffle key.

    The emission-key shape shared by the naive, Hive, MR-Cube and
    PipeSort-MR engines; module-level so parallel workers can pickle the
    job it is attached to.
    """
    return key[0]


class LineageRecorder:
    """Accumulate per-job shuffle flows into one deterministic artifact.

    The observation hub builds one *flow job* dict per round (see
    :class:`~repro.observability.observers.JobObservation`) holding ``maps`` / ``flows`` /
    ``reduces`` lists in merge order; the recorder stamps it with an
    execution index and a logical start time, collects it on finish, and
    serializes everything with sorted keys so two runs that did the same
    work produce byte-identical files.
    """

    def __init__(self, run_id: str = "run"):
        self.run_id = run_id
        #: Finished flow-job dicts, in completion order.
        self.jobs: List[Dict] = []
        #: Watchdog alert dicts, in emission order (hub-appended).
        self.alerts: List[Dict] = []
        self._executions: Dict[str, int] = {}

    # -- recording (engine-facing) -------------------------------------------

    def begin_job(self, flow_job: Dict, t0: float) -> None:
        """Stamp a new flow job with its execution index and start time."""
        name = flow_job["job"]
        execution = self._executions.get(name, 0)
        self._executions[name] = execution + 1
        flow_job["execution"] = execution
        flow_job["t0"] = round(t0, 9)

    def finish_job(self, flow_job: Dict, metrics) -> None:
        """Collect a completed (or aborted) flow job."""
        flow_job["seconds"] = round(metrics.total_seconds, 9)
        flow_job["aborted"] = metrics.aborted
        self.jobs.append(flow_job)

    # -- serialization -------------------------------------------------------

    def to_records(self) -> List[Dict]:
        """The artifact as a flat record list (the JSONL line sequence)."""
        records: List[Dict] = [
            {
                "type": "lineage_meta",
                "version": LINEAGE_VERSION,
                "run_id": self.run_id,
            }
        ]
        for job in self.jobs:
            name, execution = job["job"], job["execution"]
            records.append(
                {
                    "type": "job",
                    "job": name,
                    "execution": execution,
                    "t0": job["t0"],
                    "seconds": job["seconds"],
                    "aborted": job["aborted"],
                    "num_reducers": job["num_reducers"],
                    "map_tasks": job["map_tasks"],
                    "completed_reducers": job["completed_reducers"],
                }
            )
            for task in job["maps"]:
                record = {"type": "map_task", "job": name,
                          "execution": execution}
                record.update(task)
                records.append(record)
            for flow in job["flows"]:
                records.append(
                    {
                        "type": "flow",
                        "job": name,
                        "execution": execution,
                        "map_task": flow["map_task"],
                        "reducer": flow["reducer"],
                        "records": flow["records"],
                        "bytes": flow["bytes"],
                        "cuboids": {
                            str(mask): count
                            for mask, count in flow["cuboids"].items()
                        },
                    }
                )
            for task in job["reduces"]:
                record = {"type": "reduce_task", "job": name,
                          "execution": execution}
                record.update(task)
                records.append(record)
        records.extend(self.alerts)
        return records

    def write(self, path) -> str:
        """Write the artifact as JSON lines; returns ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.to_records():
                handle.write(json.dumps(record, sort_keys=True))
                handle.write("\n")
        return path


def load_lineage(path) -> List[Dict]:
    """Read a lineage artifact back as its record list.

    Raises :class:`ValueError` naming the offending line on damaged
    files (truncated writes, non-JSON garbage, JSON scalars) so CLI
    consumers can exit with a one-line reason instead of a traceback.
    """
    records: List[Dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{line_number}: not valid JSON: {error}"
                ) from None
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{line_number}: lineage record must be a JSON "
                    f"object, got {type(record).__name__}"
                )
            records.append(record)
    if not records:
        raise ValueError(f"{path}: empty lineage artifact")
    head = records[0]
    if head.get("type") != "lineage_meta":
        raise ValueError(
            f"{path}:1: first record must be lineage_meta, "
            f"got {head.get('type')!r}"
        )
    return records
