"""One observation hub: the run's subscribers and their logical clock.

A run can be watched by up to four subscribers — the
:class:`~repro.observability.tracer.Tracer` (typed spans and events),
the :class:`~repro.observability.telemetry.Telemetry` collector (metric
series), the :class:`~repro.observability.lineage.LineageRecorder`
(shuffle flow edges) and the
:class:`~repro.observability.watchdog.Watchdog` (skew / misannotation /
straggler alerts).  :class:`Observers` holds whichever are attached and
owns the **one** logical clock they all stamp: the cumulative simulated
seconds of every round run so far, advanced once per round by the
round's ``total_seconds``.  Multi-round engines, and several engines
sharing one cluster, therefore lay out on a single global timeline, and
no subscriber's timestamps depend on which other subscribers happen to
be attached.

The engine drives the hub at its task-index-ordered merge points (see
:func:`repro.mapreduce.engine.run_job`): :meth:`Observers.begin_job`
opens a :class:`JobObservation`, which receives each merged map and
reduce task chain, the shuffle, any abort, and the job end; the
checkpoint layer reports checkpoint writes, round resumes and the run
end through the hub as well.  Because every call happens driver-side in
merge order, all four artifacts are bit-identical between the serial and
parallel backends.  Which subscriber sees what, at which time and in
which order is decided here and nowhere else.

A cluster with no observers carries ``None``: the engine then pays one
``is None`` check per task and builds no record at all.
"""

from __future__ import annotations

from typing import Dict, Optional

from .telemetry import SECONDS_BUCKETS, SOURCE_HOST, driver_rss_bytes
from .tracer import LEVEL_DEBUG, LEVEL_TASK


def _status(metrics) -> str:
    if metrics.aborted:
        return "aborted"
    if metrics.failed:
        return "failed"
    return "ok"


class Observers:
    """The attached subscribers of a run, plus the shared logical clock.

    Any subset of the four may be attached; the others stay ``None``.
    """

    def __init__(self, tracer=None, telemetry=None, lineage=None,
                 watchdog=None):
        self.tracer = tracer
        self.telemetry = telemetry
        self.lineage = lineage
        self.watchdog = watchdog
        #: Cumulative simulated seconds of every round observed so far.
        self.clock = 0.0

    @property
    def trace_tasks(self) -> bool:
        """Whether task chains should buffer attempt-level trace records."""
        return self.tracer is not None and self.tracer.level >= LEVEL_TASK

    def advance(self, seconds: float) -> None:
        """Advance the logical clock (one round finished)."""
        self.clock += seconds

    def close(self) -> None:
        """Flush and close the tracer's sinks, if a tracer is attached."""
        if self.tracer is not None:
            self.tracer.close()

    # -- per-round ------------------------------------------------------------

    def begin_job(self, job, *, num_reducers: int, map_tasks: int,
                  memory_records: int, completed_reducers,
                  startup_seconds: float) -> "JobObservation":
        """Open the observation of one round execution at the clock."""
        return JobObservation(
            self, job, num_reducers, map_tasks, memory_records,
            completed_reducers, startup_seconds,
        )

    # -- driver-level events --------------------------------------------------

    def event(self, kind: str, job: str, fields: Dict) -> None:
        """A driver-side trace event at the current clock."""
        if self.tracer is not None:
            self.tracer.event(kind, at=self.clock, job=job, fields=fields)

    def checkpoint_written(self, index: int, job_metrics, num_parts: int,
                           run_clock: float) -> None:
        """A completed round was persisted as checkpoint ``index``."""
        if self.tracer is not None:
            self.tracer.event(
                "checkpoint_write", at=self.clock, job=job_metrics.name,
                fields={
                    "round": index,
                    "num_parts": num_parts,
                    "run_clock": run_clock,
                },
            )
        telemetry = self.telemetry
        if telemetry is not None:
            # The reduce outputs being checkpointed are exactly what the
            # reduce tasks emitted, so their already-accounted bytes_out
            # is the checkpoint volume — no re-estimation pass over the
            # (possibly huge) cube.
            ckpt_bytes = sum(t.bytes_out for t in job_metrics.reduce_tasks)
            telemetry.counter(
                "repro_checkpoint_writes_total",
                "Rounds checkpointed to the DFS",
            ).inc()
            telemetry.counter(
                "repro_checkpoint_bytes_total",
                "Reduce-output bytes persisted as checkpoints",
            ).inc(ckpt_bytes)
            telemetry.sample(
                "checkpoint_bytes", ckpt_bytes,
                labels={"round": index}, at=self.clock,
            )

    def round_resumed(self, index: int, job_metrics, salvaged) -> None:
        """Round ``index`` lost nodes and re-runs its lost partitions."""
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.counter(
                "repro_round_resumes_total",
                "Rounds resumed from a checkpoint after node loss",
            ).inc()
            up = telemetry.gauge(
                "repro_node_up", "Node liveness (1 = serving, 0 = dead)"
            )
            for node in sorted(job_metrics.dead_nodes):
                # The dead domain is re-provisioned for the rerun.
                up.set(1, labels={"node": node})
                telemetry.sample(
                    "node_up", 1, labels={"node": node}, at=self.clock,
                )
        if self.tracer is not None:
            self.tracer.event(
                "round_resume", at=self.clock, job=job_metrics.name,
                fields={
                    "round": index,
                    "salvaged_partitions": sorted(salvaged),
                    "replaced_nodes": sorted(job_metrics.dead_nodes),
                },
            )

    def end_run(self, metrics, base: float, dfs=None) -> None:
        """One algorithm execution finished: its run span and run series.

        ``base`` is the clock when the run started; the span covers
        ``[base, base + total_seconds]``.  The run series capture what
        only exists at run end — output cube groups, sketch bytes, DFS
        volume (when ``dfs`` is given), driver RSS.
        """
        if self.tracer is not None:
            self.tracer.span(
                "run", name=metrics.algorithm,
                t0=base, t1=base + metrics.total_seconds,
                status=_status(metrics),
                counters={
                    "jobs": len(metrics.jobs),
                    "output_groups": metrics.output_groups,
                    "intermediate_bytes": metrics.intermediate_bytes,
                    "intermediate_records": metrics.intermediate_records,
                    "attempts": metrics.attempts,
                    "killed_tasks": metrics.killed_tasks,
                    "speculative_wins": metrics.speculative_wins,
                    "recovered": metrics.recovered,
                    "recovery_overhead_seconds": metrics.recovery_overhead(),
                },
            )
        telemetry = self.telemetry
        if telemetry is None:
            return
        at = self.clock
        labels = {"run": metrics.algorithm}
        telemetry.counter(
            "repro_runs_total", "Cube algorithm executions"
        ).inc(labels=labels)
        telemetry.gauge(
            "repro_cube_groups", "Output cube groups of the last execution"
        ).set(metrics.output_groups, labels=labels)
        telemetry.sample("cube_groups", metrics.output_groups,
                         labels=labels, at=at)
        sketch_bytes = metrics.extras.get("sketch_bytes")
        if sketch_bytes is not None:
            telemetry.gauge(
                "repro_sketch_bytes", "Serialized SP-Sketch size"
            ).set(sketch_bytes, labels=labels)
            telemetry.sample("sketch_bytes", sketch_bytes, labels=labels,
                             at=at)
        if dfs is not None:
            # Driver-side DFS accounting is deterministic (writes happen
            # in the merge order, read-drop coins are seeded), hence sim.
            telemetry.sample("dfs_writes", dfs.writes, labels=labels, at=at)
            telemetry.sample("dfs_records_written", dfs.records_written,
                             labels=labels, at=at)
            if dfs.read_retries:
                telemetry.sample("dfs_read_retries", dfs.read_retries,
                                 labels=labels, at=at)
            telemetry.gauge(
                "repro_dfs_files", "Files in the simulated DFS"
            ).set(len(dfs), labels=labels)
        _sample_driver_rss(telemetry, at)


def _sample_driver_rss(telemetry, at: float) -> None:
    rss = driver_rss_bytes()
    if rss is not None:
        telemetry.gauge(
            "repro_driver_rss_bytes", "Peak driver resident-set size"
        ).set(rss)
        telemetry.sample("driver_rss_bytes", rss, at=at, source=SOURCE_HOST)


class JobObservation:
    """The observation of one round execution, opened at the hub's clock.

    Times are laid out from the job's start on the hub clock: map tasks
    start after the round start-up cost, reduce tasks after the map
    phase, the shuffle and another start-up cost.  :meth:`finish`
    advances the hub clock by the round's ``total_seconds``.
    """

    def __init__(self, hub: Observers, job, num_reducers: int,
                 map_tasks: int, memory_records: int, completed_reducers,
                 startup_seconds: float):
        self.hub = hub
        self.name = job.name
        self.cuboid_of = job.cuboid_of
        self.startup_seconds = startup_seconds
        self.base = hub.clock
        self.map_start = self.base + startup_seconds
        self.reduce_base: Optional[float] = None
        self.reduce_start = 0.0
        tracer = hub.tracer
        self.trace_tasks = hub.trace_tasks
        self.trace_debug = (
            tracer is not None and tracer.level >= LEVEL_DEBUG
        )
        # One flow record per job feeds both the flight recorder and the
        # watchdog, built from the merge-order calls below.
        self.flow_job: Optional[Dict] = None
        self._cuboid_cache: Dict[object, Optional[int]] = {}
        if hub.lineage is not None or hub.watchdog is not None:
            self.flow_job = {
                "job": job.name,
                "num_reducers": num_reducers,
                "map_tasks": map_tasks,
                "memory_records": memory_records,
                "completed_reducers": (
                    sorted(completed_reducers) if completed_reducers else []
                ),
                "maps": [],
                "flows": [],
                "reduces": [],
            }
            if hub.lineage is not None:
                hub.lineage.begin_job(self.flow_job, t0=self.base)

    # -- merge points ---------------------------------------------------

    def map_task(self, machine: int, outcome) -> None:
        """One map task chain merged (in task-index order)."""
        if self.trace_tasks:
            self._emit_chain(outcome, self.map_start)
        task = outcome.task
        if task is None:
            return
        flow_job = self.flow_job
        if flow_job is not None:
            self._record_flows(machine, outcome.payload)
            flow_job["maps"].append({
                "task": machine,
                "records_in": task.records_in,
                "records_out": task.records_out,
                "seconds": round(task.seconds, 9),
            })
        if self.trace_debug:
            # Shards arrive in first-seen target order — the insertion
            # order a per-pair counting loop would produce.
            targets = {
                str(target): len(pairs)
                for target, pairs, _shard_bytes in outcome.payload
            }
            self.hub.tracer.event(
                "route", at=self.map_start + task.seconds, job=self.name,
                phase="map", task=machine, fields={"targets": targets},
            )

    def reduce_task(self, machine: int, outcome) -> None:
        """One reduce task chain merged (in partition order)."""
        if self.trace_tasks:
            self._emit_chain(outcome, self.reduce_start)
        task = outcome.task
        if task is None:
            return
        tracer = self.hub.tracer
        if tracer is not None:
            at = self.reduce_start + task.seconds
            if outcome.payload[1]:
                tracer.event(
                    "oom", at=at, job=self.name, phase="reduce",
                    task=machine, fields={"records_in": task.records_in},
                )
            if self.trace_debug and task.spilled_records:
                tracer.event(
                    "spill", at=at, job=self.name, phase="reduce",
                    task=machine, fields={"records": task.spilled_records},
                )
        if self.flow_job is not None:
            self.flow_job["reduces"].append({
                "task": machine,
                "records_in": task.records_in,
                "records_out": task.records_out,
                "seconds": round(task.seconds, 9),
            })

    def abort(self, phase: str, machine: int, chain_seconds: float,
              reason: str) -> None:
        """A task chain exhausted its attempts; the job aborts."""
        if self.hub.tracer is not None:
            start = self.map_start if phase == "map" else self.reduce_start
            self.hub.tracer.event(
                "abort", at=start + chain_seconds, job=self.name,
                phase=phase, task=machine, fields={"reason": reason},
            )

    def map_phase(self, metrics) -> None:
        """The map phase's tasks are all merged."""
        if self.hub.tracer is not None:
            self._phase_span("map", self.base, metrics)

    def shuffle(self, metrics, max_reducer_bytes: int) -> None:
        """The shuffle is costed; the reduce phase starts after it."""
        self.reduce_base = (
            self.base + metrics.map_phase_seconds + metrics.shuffle_seconds
        )
        self.reduce_start = self.reduce_base + self.startup_seconds
        if self.hub.tracer is not None:
            self.hub.tracer.event(
                "shuffle", at=self.base + metrics.map_phase_seconds,
                job=self.name,
                fields={
                    "seconds": metrics.shuffle_seconds,
                    "max_reducer_bytes": max_reducer_bytes,
                },
            )

    def finish(self, metrics, node_kills: Dict[int, float], topology,
               executor) -> None:
        """The round ended (completed or aborted): close it out.

        Order: node losses, the reduce phase span (when the reduce phase
        ran), the job span, the flow record and its watchdog alerts, the
        round's telemetry — then the hub clock advances.
        """
        hub = self.hub
        tracer = hub.tracer
        telemetry = hub.telemetry
        fired = metrics.dead_nodes
        if telemetry is not None and fired:
            lost = telemetry.counter(
                "repro_nodes_lost_total", "Failure domains lost to node kills"
            )
            up = telemetry.gauge(
                "repro_node_up", "Node liveness (1 = serving, 0 = dead)"
            )
            for node in fired:
                lost.inc()
                up.set(0, labels={"node": node})
                telemetry.sample(
                    "node_up", 0, labels={"node": node},
                    at=self.base + node_kills[node],
                )
        if tracer is not None:
            for node in fired:
                tracer.event(
                    "node_lost", at=self.base + node_kills[node],
                    job=self.name,
                    fields={
                        "node": node,
                        "machines": list(topology.machines_on(node)),
                    },
                )
            if self.reduce_base is not None:
                self._phase_span("reduce", self.reduce_base, metrics)
            tracer.span(
                "job", name=self.name, job=self.name,
                t0=self.base, t1=self.base + metrics.total_seconds,
                status=_status(metrics),
                counters={
                    "map_output_records": metrics.map_output_records,
                    "map_output_bytes": metrics.map_output_bytes,
                    "attempts": metrics.attempts,
                    "killed_tasks": metrics.killed_tasks,
                    "speculative_wins": metrics.speculative_wins,
                    "recovered": metrics.recovered,
                    "oom_reducers": len(metrics.oom_reducers),
                },
            )
        if self.flow_job is not None:
            self._finish_flows(metrics)
        if telemetry is not None:
            self._sample_job(telemetry, metrics, executor)
        hub.advance(metrics.total_seconds)

    # -- helpers --------------------------------------------------------

    def _emit_chain(self, outcome, phase_start: float) -> None:
        """Shift a chain's buffered records onto the timeline and emit.

        Chains buffer records with chain-relative times (they may have
        run in a worker process); merge order makes the stream identical
        across execution backends.
        """
        tracer = self.hub.tracer
        for record in outcome.trace or ():
            if record["type"] == "span":
                record["t0"] += phase_start
                record["t1"] += phase_start
            else:
                record["at"] += phase_start
            tracer.emit(record)

    def _phase_span(self, phase: str, base: float, metrics) -> None:
        if phase == "map":
            tasks, seconds = metrics.map_tasks, metrics.map_phase_seconds
        else:
            tasks, seconds = metrics.reduce_tasks, metrics.reduce_phase_seconds
        self.hub.tracer.span(
            "phase", name=phase, job=self.name, phase=phase,
            t0=base, t1=base + seconds,
            status="aborted" if metrics.aborted else "ok",
            counters={
                "tasks": len(tasks),
                "records_out": sum(t.records_out for t in tasks),
                "bytes_out": sum(t.bytes_out for t in tasks),
            },
        )

    def _record_flows(self, machine: int, payload) -> None:
        """One flow per ``(map task, reducer)`` shard, in shard order.

        The cuboid breakdown is classified through a per-job
        equality-keyed cache: emission keys repeat heavily (and the hot
        engines intern them), so the common case is one dict probe per
        pair.
        """
        flows = self.flow_job["flows"]
        cuboid_of = self.cuboid_of
        cache = self._cuboid_cache
        cache_get = cache.get
        for target, pairs, shard_bytes in payload:
            cuboids: Dict[int, int] = {}
            if cuboid_of is not None:
                for key, _value in pairs:
                    mask = cache_get(key)
                    if mask is None:
                        mask = cuboid_of(key)
                        cache[key] = mask
                    cuboids[mask] = cuboids.get(mask, 0) + 1
            flows.append({
                "map_task": machine,
                "reducer": target,
                "records": len(pairs),
                "bytes": shard_bytes,
                "cuboids": cuboids,
            })

    def _finish_flows(self, metrics) -> None:
        """Collect the flow record, inspect it, fan the alerts out.

        Alerts reach the trace (typed events → ProgressSink lines), the
        telemetry alert counter and the lineage artifact's alert stream.
        """
        hub = self.hub
        tracer, lineage = hub.tracer, hub.lineage
        flow_job = self.flow_job
        job_end = self.base + metrics.total_seconds
        if lineage is not None:
            lineage.finish_job(flow_job, metrics)
            if tracer is not None:
                flows = flow_job["flows"]
                tracer.event(
                    "lineage", at=job_end, job=self.name,
                    fields={
                        "execution": flow_job["execution"],
                        "flows": len(flows),
                        "records": sum(flow["records"] for flow in flows),
                        "bytes": sum(flow["bytes"] for flow in flows),
                    },
                )
        if hub.watchdog is None:
            return
        for alert in hub.watchdog.inspect_job(flow_job, metrics, t0=self.base):
            if lineage is not None:
                lineage.alerts.append(alert)
            if tracer is not None:
                fields = {
                    name: value for name, value in alert.items()
                    if name not in ("type", "kind", "job", "at")
                }
                tracer.event(
                    alert["kind"], at=job_end, job=alert["job"],
                    fields=fields,
                )
            if hub.telemetry is not None:
                hub.telemetry.counter(
                    "repro_watchdog_alerts_total",
                    "Watchdog alerts emitted, by kind",
                ).inc(labels={"kind": alert["kind"]})

    def _sample_job(self, telemetry, metrics, executor) -> None:
        """The round's metric series and registry updates.

        Every ``"sim"`` sample is a pure function of the job metrics and
        the logical clock, so serial and parallel backends record
        bit-identical points; backend- and wall-clock-dependent
        quantities (executor shape, phase wall seconds, driver RSS) are
        tagged ``"host"`` and excluded from identity comparisons.
        """
        name = self.name
        labels = {"job": name}
        t_map = self.base + metrics.map_phase_seconds
        t_shuffle = t_map + metrics.shuffle_seconds
        t_end = self.base + metrics.total_seconds

        telemetry.counter(
            "repro_jobs_total", "MapReduce rounds executed"
        ).inc(labels=labels)
        telemetry.counter(
            "repro_shuffle_bytes_total", "Bytes shuffled from map to reduce"
        ).inc(metrics.map_output_bytes, labels=labels)
        telemetry.counter(
            "repro_shuffle_records_total", "Pairs shuffled from map to reduce"
        ).inc(metrics.map_output_records, labels=labels)
        telemetry.counter(
            "repro_task_attempts_total", "Task attempts including retries"
        ).inc(metrics.attempts, labels=labels)
        if metrics.killed_tasks:
            telemetry.counter(
                "repro_tasks_killed_total",
                "Attempts killed by injected faults",
            ).inc(metrics.killed_tasks, labels=labels)

        phase_hist = telemetry.histogram(
            "repro_phase_seconds", "Simulated seconds per phase",
            buckets=SECONDS_BUCKETS,
        )
        for phase, seconds in (
            ("map", metrics.map_phase_seconds),
            ("shuffle", metrics.shuffle_seconds),
            ("reduce", metrics.reduce_phase_seconds),
        ):
            phase_hist.observe(seconds, labels={"phase": phase})
        reduce_hist = telemetry.histogram(
            "repro_reduce_task_records", "Input records per reduce task"
        )
        for task in metrics.reduce_tasks:
            reduce_hist.observe(task.records_in, labels=labels)

        telemetry.sample("shuffle_bytes", metrics.map_output_bytes,
                         labels=labels, at=t_map)
        telemetry.sample("shuffle_records", metrics.map_output_records,
                         labels=labels, at=t_map)
        telemetry.sample("phase_seconds", metrics.map_phase_seconds,
                         labels={"job": name, "phase": "map"}, at=t_map)
        telemetry.sample("phase_seconds", metrics.shuffle_seconds,
                         labels={"job": name, "phase": "shuffle"},
                         at=t_shuffle)
        telemetry.sample("phase_seconds", metrics.reduce_phase_seconds,
                         labels={"job": name, "phase": "reduce"}, at=t_end)
        for task in metrics.reduce_tasks:
            telemetry.sample(
                "reducer_records", task.records_in,
                labels={"job": name, "task": task.machine}, at=t_end,
            )

        # Host-side diagnostics: real memory, real time, backend shape.
        wall = (
            metrics.map_phase_wall_seconds + metrics.reduce_phase_wall_seconds
        )
        telemetry.sample("job_wall_seconds", wall, labels=labels,
                         at=t_end, source=SOURCE_HOST)
        stats = getattr(executor, "last_run_stats", None)
        if stats:
            backend = {"backend": stats["backend"]}
            telemetry.gauge(
                "repro_executor_queue_depth",
                "Batches waiting behind busy workers in the last phase",
            ).set(stats["max_queue_depth"], labels=backend)
            telemetry.gauge(
                "repro_executor_inflight_batches",
                "Batches concurrently in flight in the last phase",
            ).set(stats["max_in_flight"], labels=backend)
            telemetry.sample("executor_queue_depth",
                             stats["max_queue_depth"], labels=labels,
                             at=t_end, source=SOURCE_HOST)
            telemetry.sample("executor_inflight_batches",
                             stats["max_in_flight"], labels=labels,
                             at=t_end, source=SOURCE_HOST)
        _sample_driver_rss(telemetry, t_end)
