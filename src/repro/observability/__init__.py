"""Observability for the simulated cluster: tracing, counters, analysis.

The paper's evaluation is an observability exercise — running time,
per-task averages, shuffled bytes, sketch size — and the fault layer and
parallel executor add per-task dynamics (retries, speculation, spills)
that post-hoc aggregates cannot show.  This package provides:

* :class:`Tracer` + sinks — structured span/event records emitted by the
  engine and the cube engines (:mod:`repro.observability.tracer`);
* the record schema and its validator
  (:mod:`repro.observability.schema`);
* :class:`TraceAnalysis` — per-reducer load, attempt chains and
  straggler timelines reconstructed from a trace file
  (:mod:`repro.observability.analyze`);
* :class:`Telemetry` — a metrics registry (counters/gauges/histograms)
  plus a logical-clock sampling collector with JSONL timeline and
  Prometheus text exporters (:mod:`repro.observability.telemetry`);
* :class:`TimelineAnalysis` — per-series analysis of a telemetry
  timeline artifact (:mod:`repro.observability.timeline`);
* :class:`LineageRecorder` — the shuffle flight recorder capturing one
  flow edge per (map task, reducer) pair, the artifact the
  ``explain-group`` / ``explain-reducer`` queries walk
  (:mod:`repro.observability.lineage` / ``.explain``);
* :class:`Watchdog` — online skew / misannotation / straggler alerts
  comparing observed flows against the sketch's ``n/k + m`` promise
  (:mod:`repro.observability.watchdog`);
* :class:`Observers` — the one hub a cluster carries: it holds whichever
  of those four subscribers are attached and the single logical clock
  they all stamp (:mod:`repro.observability.observers`).

Attach a hub to a :class:`~repro.mapreduce.ClusterConfig` and every job
run on that cluster is observed::

    from repro.observability import JsonlSink, Observers, Tracer

    observers = Observers(
        tracer=Tracer([JsonlSink("run.trace.jsonl")], level="task")
    )
    cluster = ClusterConfig(num_machines=20, observers=observers)
    SPCube(cluster).compute(relation)
    observers.close()

or use the CLI: ``python -m repro cube data.tsv --trace run.trace.jsonl``
then ``python -m repro analyze-trace run.trace.jsonl``.
"""

from .analyze import (
    SUMMARY_SCHEMA,
    TraceAnalysis,
    load_trace,
    summary_problems,
)
from .diagnostics import (
    BalanceStats,
    CuboidAudit,
    LoadAttribution,
    SketchAudit,
    SkewConfusion,
    TheoryChecks,
    attribute_load,
    audit_sketch,
    format_doctor_markdown,
    predicted_reducer_loads,
    run_doctor,
)
from .explain import (
    ExplainError,
    LineageIndex,
    explain_group,
    explain_reducer,
    format_explain_markdown,
    parse_cuboid,
)
from .lineage import (
    LINEAGE_RECORD_TYPES,
    LINEAGE_VERSION,
    LineageRecorder,
    cuboid_of_mask_key,
    load_lineage,
)
from .telemetry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Telemetry,
    check_prometheus_text,
    driver_rss_bytes,
)
from .observers import JobObservation, Observers
from .timeline import TimelineAnalysis, TimelineError
from .watchdog import (
    ALERT_KINDS,
    SKEW_TOLERANCE,
    STRAGGLER_FACTOR,
    Watchdog,
    WatchdogExpectation,
)
from .schema import (
    EVENT_KINDS,
    SPAN_KINDS,
    SPAN_STATUSES,
    TraceSchemaError,
    record_problems,
    validate_record,
    validate_records,
)
from .tracer import (
    LEVEL_DEBUG,
    LEVEL_JOB,
    LEVEL_OFF,
    LEVEL_TASK,
    JsonlSink,
    MemorySink,
    ProgressSink,
    Tracer,
    attempt_counters,
    level_from_name,
)

__all__ = [
    "SUMMARY_SCHEMA",
    "TraceAnalysis",
    "load_trace",
    "summary_problems",
    "BalanceStats",
    "CuboidAudit",
    "LoadAttribution",
    "SketchAudit",
    "SkewConfusion",
    "TheoryChecks",
    "attribute_load",
    "audit_sketch",
    "format_doctor_markdown",
    "predicted_reducer_loads",
    "run_doctor",
    "EVENT_KINDS",
    "SPAN_KINDS",
    "SPAN_STATUSES",
    "TraceSchemaError",
    "record_problems",
    "validate_record",
    "validate_records",
    "LEVEL_DEBUG",
    "LEVEL_JOB",
    "LEVEL_OFF",
    "LEVEL_TASK",
    "JsonlSink",
    "MemorySink",
    "ProgressSink",
    "Tracer",
    "attempt_counters",
    "level_from_name",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Telemetry",
    "check_prometheus_text",
    "driver_rss_bytes",
    "JobObservation",
    "Observers",
    "TimelineAnalysis",
    "TimelineError",
    "ExplainError",
    "LineageIndex",
    "explain_group",
    "explain_reducer",
    "format_explain_markdown",
    "parse_cuboid",
    "LINEAGE_RECORD_TYPES",
    "LINEAGE_VERSION",
    "LineageRecorder",
    "cuboid_of_mask_key",
    "load_lineage",
    "ALERT_KINDS",
    "SKEW_TOLERANCE",
    "STRAGGLER_FACTOR",
    "Watchdog",
    "WatchdogExpectation",
]
