"""The online skew/straggler watchdog — typed runtime alerts per round.

The SP-Sketch makes its partitioning decisions *before* round 2 runs;
the cube doctor (PR 4) audits them *after* the run.  This module closes
the gap the ISSUE's motivating papers (SharesSkew, the marginal-cube
work) treat as first-class: detecting, **while the run is in flight**,
that a reducer is drifting past the load the theory promised, and saying
which cuboid put it there.

The watchdog inspects every job's flow record (built by the observation hub for
the :mod:`~repro.observability.lineage` recorder) at the job's merge
point and emits three typed alerts:

``skew_alert``
    A reducer's delivered records exceed ``tolerance`` times the
    Prop 4.2(2) band ``n/k + m``, with ``n``/``k`` the job's *observed*
    reduce totals and ``m`` the configured reducer memory.  For jobs
    with a registered sketch expectation (SP-Cube's round 2) the skew
    reducer 0 is exempt — it is *supposed* to absorb the heavy groups —
    and the band uses the ranged reducers only.

``misannotation_alert``
    Only for expectation jobs: a value-partitioned (ranged) cuboid put
    more than ``tolerance × (n/k + m)`` records on one reducer — it is
    behaving like a batch cuboid, i.e. the sketch missed a skewed group
    and range-routed it whole.  Named per cuboid so the operator can
    jump straight to ``explain-group``.

``straggler_alert``
    A task's (simulated) duration exceeds ``straggler_factor`` times the
    median of its phase — the attempt-duration-quantile rule, guarded by
    a minimum task count so tiny phases cannot alarm.

Alerts are plain dicts (the lineage artifact's ``alert`` records); the
observation hub surfaces each through the tracer (typed trace events →
ProgressSink ``[watch]`` lines), the telemetry counter
``repro_watchdog_alerts_total{kind}``, and the lineage artifact.  Like
every observability layer the watchdog is observation-only; alert times
come from the observation hub's one logical clock
(:mod:`repro.observability.observers`).

For expectation jobs the watchdog also retains the predicted-vs-observed
per-reducer comparison (:attr:`Watchdog.comparisons`); on a fault-free
run the deltas are all zero and the observed side equals
:func:`repro.observability.diagnostics.attribute_load`'s ``actual``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List

#: Multiple of the ``n/k + m`` band a reducer (or a cuboid's flow into
#: one reducer) may reach before alerting — matches the doctor's
#: :data:`repro.observability.diagnostics.BALANCE_TOLERANCE`.
SKEW_TOLERANCE = 2.0

#: Multiple of the phase-median task duration that flags a straggler.
STRAGGLER_FACTOR = 3.0

#: Phases with fewer tasks than this are never straggler-checked.
MIN_STRAGGLER_TASKS = 4

#: Alert kinds, in the order checks run.
ALERT_KINDS = ("skew_alert", "misannotation_alert", "straggler_alert")


@dataclass
class WatchdogExpectation:
    """Sketch-predicted reducer loads registered for one job by name."""

    job: str
    #: Input rows of the round (Prop 4.2's ``n``).
    n: int
    #: Sketch partitions (ranged reducers ``1..k``).
    k: int
    #: Reducer memory in records (the skew threshold ``m``).
    m: int
    #: Predicted delivered records per reducer id.
    predicted: Dict[int, int] = field(default_factory=dict)


class Watchdog:
    """Compare observed shuffle flows against the theory, per round."""

    def __init__(
        self,
        skew_tolerance: float = SKEW_TOLERANCE,
        straggler_factor: float = STRAGGLER_FACTOR,
        min_straggler_tasks: int = MIN_STRAGGLER_TASKS,
    ):
        if skew_tolerance <= 0 or straggler_factor <= 0:
            raise ValueError("watchdog tolerances must be positive")
        self.skew_tolerance = skew_tolerance
        self.straggler_factor = straggler_factor
        self.min_straggler_tasks = min_straggler_tasks
        #: Every alert emitted, in order.
        self.alerts: List[Dict] = []
        #: Per expectation job: predicted/observed/delta reducer loads.
        self.comparisons: Dict[str, Dict] = {}
        self._expectations: Dict[str, WatchdogExpectation] = {}
        self._executions: Dict[str, int] = {}

    # -- configuration -------------------------------------------------------

    def expect(self, job: str, *, n: int, k: int, m: int,
               predicted: Dict[int, int]) -> None:
        """Register sketch-predicted loads for ``job`` (SP-Cube round 2)."""
        self._expectations[job] = WatchdogExpectation(
            job=job, n=n, k=k, m=m, predicted=dict(predicted)
        )

    # -- inspection (engine-facing) ------------------------------------------

    def inspect_job(self, flow_job: Dict, metrics, t0: float) -> List[Dict]:
        """Check one finished job's flows; returns the new alerts.

        Called for *every* job a watchdog-carrying cluster runs (so
        execution indices track re-executed rounds); aborted executions
        are counted but never inspected — their flows are partial by
        definition.  ``t0`` is the job's start on the logical clock;
        alerts are stamped at the job's end.
        """
        name = flow_job["job"]
        execution = self._executions.get(name, 0)
        self._executions[name] = execution + 1
        if metrics.aborted:
            return []
        at = round(t0 + metrics.total_seconds, 9)
        expectation = self._expectations.get(name)
        alerts: List[Dict] = []

        def alert(kind: str, **fields) -> None:
            record = {
                "type": "alert",
                "kind": kind,
                "job": name,
                "execution": execution,
                "at": at,
            }
            record.update(fields)
            alerts.append(record)

        self._check_skew(flow_job, expectation, alert)
        if expectation is not None:
            self._check_misannotation(flow_job, expectation, alert)
            self._record_comparison(flow_job, expectation)
        self._check_stragglers(flow_job, alert)

        self.alerts.extend(alerts)
        return alerts

    # -- checks --------------------------------------------------------------

    def _check_skew(self, flow_job, expectation, alert) -> None:
        """Observed per-reducer records vs the ``n/k + m`` band."""
        reduces = flow_job["reduces"]
        if expectation is not None:
            # Reducer 0 absorbs the sketch-flagged skewed groups by
            # design; the Prop 4.2(2) promise covers the ranged ones.
            reduces = [task for task in reduces if task["task"] != 0]
        if not reduces:
            return
        n_observed = sum(task["records_in"] for task in reduces)
        k_active = len(reduces)
        bound = n_observed / k_active + flow_job["memory_records"]
        ceiling = self.skew_tolerance * bound
        for task in reduces:
            observed = task["records_in"]
            if observed > ceiling:
                alert(
                    "skew_alert",
                    reducer=task["task"],
                    observed=observed,
                    bound=round(bound, 2),
                    ratio=round(observed / bound, 2),
                    tolerance=self.skew_tolerance,
                )

    def _check_misannotation(self, flow_job, expectation, alert) -> None:
        """Per-cuboid flow into one ranged reducer vs its own band."""
        loads: Dict[int, Dict[int, int]] = {}
        for flow in flow_job["flows"]:
            reducer = flow["reducer"]
            if reducer == 0:
                continue
            for mask, count in flow["cuboids"].items():
                if mask is None:
                    continue
                per_reducer = loads.setdefault(mask, {})
                per_reducer[reducer] = per_reducer.get(reducer, 0) + count
        bound = expectation.n / expectation.k + expectation.m
        ceiling = self.skew_tolerance * bound
        for mask in sorted(loads):
            for reducer in sorted(loads[mask]):
                observed = loads[mask][reducer]
                if observed > ceiling:
                    alert(
                        "misannotation_alert",
                        cuboid=mask,
                        reducer=reducer,
                        observed=observed,
                        bound=round(bound, 2),
                        ratio=round(observed / bound, 2),
                        tolerance=self.skew_tolerance,
                    )

    def _check_stragglers(self, flow_job, alert) -> None:
        """Winning-attempt durations vs the phase median."""
        for phase, tasks in (
            ("map", flow_job["maps"]),
            ("reduce", flow_job["reduces"]),
        ):
            if len(tasks) < self.min_straggler_tasks:
                continue
            typical = median(task["seconds"] for task in tasks)
            if typical <= 0:
                continue
            ceiling = self.straggler_factor * typical
            for task in tasks:
                if task["seconds"] > ceiling:
                    alert(
                        "straggler_alert",
                        phase=phase,
                        task=task["task"],
                        seconds=round(task["seconds"], 9),
                        median_seconds=round(typical, 9),
                        ratio=round(task["seconds"] / typical, 2),
                        factor=self.straggler_factor,
                    )

    def _record_comparison(self, flow_job, expectation) -> None:
        """Retain predicted vs observed loads for post-run attribution."""
        observed = {
            task["task"]: task["records_in"]
            for task in flow_job["reduces"]
        }
        reducers = sorted(
            set(expectation.predicted) | set(observed)
            | set(range(flow_job["num_reducers"]))
        )
        self.comparisons[flow_job["job"]] = {
            "execution": flow_job.get("execution", 0),
            "predicted": dict(expectation.predicted),
            "observed": observed,
            "deltas": {
                reducer: (
                    observed.get(reducer, 0)
                    - expectation.predicted.get(reducer, 0)
                )
                for reducer in reducers
            },
        }

