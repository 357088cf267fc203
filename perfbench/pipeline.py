"""One benchmark run: set up, build, persist, serve, check, report.

A run calibrates the host and generates the seeded relation, then goes
through three *cycles*, one query server each.  A cycle:

1. **builds and persists** — timed ``SPCube.compute`` runs for a
   ninth of the build share of ``--seconds`` (at least two), with a
   timed ``CubeStore.write`` of the cube after each half of them;
2. **sets up** — starts ``python -m repro serve-cube`` on that store at
   its default settings and sends each head spec and one drilldown per
   tail cuboid (the relation was regenerated at the cycle's start);
3. **serves** — closed-loop clients for a ninth of the serve share,
   continuing their request streams, until a ninth of the samples
   every reported percentile needs has arrived;
4. builds, persists and serves twice more in turn, then stops the
   server.

Interleaving the kinds of work across the whole run, instead of one
block per kind, lets every metric sample the same stretches of a host
whose speed drifts.  Every build is checked outside the timed region,
and after the cycles every answer is checked against the in-memory
``CubeView``.

A traced run (``--trace 1``) also follows each untraced build with a
traced one and, after the cycles, replays the last cycle's request
stream in-process on a fresh ``StoredCubeView`` — once untraced, once
traced — to produce the per-layer ledger.  End-to-end metrics come only
from untraced work.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import shutil
import time
from collections import Counter
from typing import Dict, List

from repro.query.view import CubeView
from repro.serving import CubeStore, StoredCubeView, execute_query

import build as build_phase
from serve import ServerProcess, client_count, run_closed_loop, wrong_answers
from spans import SpanRecorder, instrumented
from stats import calibrate, mean, median, percentile
from workloads import (
    WORKLOADS, CubeIndex, client_stream, head_specs, make_relation,
    segment_warm_up, spec_key, tail_stream,
)

CYCLES = 3
SLICES = 3
#: Timed store writes per slice, each after an equal share of the
#: slice's builds.
WRITES_PER_SLICE = 2
#: Share of ``--seconds`` spent in the timed build loop; the rest goes
#: to the closed-loop serve phase.
BUILD_SHARE = 0.3
#: Head answers for a p99 and tail answers for a p90, ten beyond each.
MIN_HEAD = 1000
MIN_TAIL = 100
#: A serve slice stops here even if its sample minimums are unmet (the
#: percentile helper then refuses the undersized sample).
MAX_SLICE_SECONDS = 10.0


class Outcome:
    """Attempted/failed operation counts and the failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: str) -> Dict:
    """Run one workload; returns ``{"report": ..., "result": ...}``."""
    work = os.path.join(root, ".bench_build", f"perfbench-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return _Run(WORKLOADS[name], seed, seconds, trace, root, work).go()
    finally:
        shutil.rmtree(work, ignore_errors=True)


class _Run:
    def __init__(self, workload, seed, seconds, trace, root, work):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.root = root
        self.work = work
        self.outcome = Outcome()
        self.phases: Counter = Counter()
        self.untraced: List[float] = []
        self.traced: List[float] = []
        self.traced_layers: List[Dict] = []
        self.writes: List[float] = []
        self.setups: List[float] = []
        self.warm_ups: List = []
        self.chunks: List[Dict] = []
        self.servers: List[Dict] = []
        self.first_run = None
        self.store_bytes = None
        self.bench_rss_mb = 0.0

    def _phase(self, name: str, started: float) -> None:
        self.phases[name] += time.perf_counter() - started

    def go(self) -> Dict:
        report: Dict = {"workload": self.workload.name, "seed": self.seed,
                        "seconds": self.seconds, "trace": self.trace}
        started = time.perf_counter()
        report["calibration_s"] = calibrate()
        self._phase("calibrate", started)

        started = time.perf_counter()
        self.relation = make_relation(self.workload, self.seed)
        generated = time.perf_counter() - started
        self._phase("set_up", started)
        self.checker = build_phase.BuildChecker(self.relation)

        slices = CYCLES * SLICES
        build_budget = self.seconds * BUILD_SHARE / slices
        serve_budget = self.seconds * (1 - BUILD_SHARE) / slices
        for cycle in range(CYCLES):
            if cycle:
                started = time.perf_counter()
                make_relation(self.workload, self.seed)
                generated = time.perf_counter() - started
                self._phase("set_up", started)
            self._cycle(cycle, generated, build_budget, serve_budget)

        started = time.perf_counter()
        self._check_answers()
        self._phase("check", started)
        end_to_end = self._end_to_end()
        report["end_to_end"] = {k: v for k, (v, _u) in end_to_end.items()}
        report["medians"] = {"build_s": median(self.untraced),
                             "store_write_s": median(self.writes)}
        if self.trace:
            started = time.perf_counter()
            ledger = self._ledger()
            self._phase("ledger", started)
            report["ledger"] = ledger
            chosen = {k: (ledger[k], unit) for k, unit in PER_LAYER_UNITS.items()}
        else:
            chosen = end_to_end

        samples = [s for chunk in self.chunks for s in chunk["load"].samples]
        report["samples"] = {
            "setup_s": len(self.setups), "build_s": len(self.untraced),
            "traced_builds": len(self.traced),
            "store_write_s": len(self.writes),
            "serve_head_ms": sum(s.kind == "head" for s in samples),
            "serve_tail_ms": sum(s.kind == "tail" for s in samples),
            "distinct_specs": len({s.key for s in samples}),
        }
        report["serve"] = {
            "clients": self.chunks[0]["load"].clients,
            "peak_connections": max(
                c["load"].peak_connections for c in self.chunks
            ),
            "wall_s": sum(c["load"].wall for c in self.chunks),
            "cube_groups": self.cube.num_groups,
        }
        report["phase_s"] = dict(self.phases)
        report["problems"] = self.outcome.problems
        result = {
            "correct": not self.outcome.problems,
            "attempted": self.outcome.attempted,
            "failed": self.outcome.failed,
            "metrics": {
                k: {"value": value, "unit": unit}
                for k, (value, unit) in chosen.items()
            },
        }
        return {"report": report, "result": result}

    # -- phases ----------------------------------------------------------------

    def _builds(self, budget: float) -> None:
        started = time.perf_counter()
        spent = 0.0
        while True:
            run, wall = build_phase.timed_build(self.relation)
            self.untraced.append(wall)
            spent += wall
            if self.first_run is None:
                self.bench_rss_mb = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    * 1024 / 1e6
                )
                self.first_run = run
                self.cube = run.cube
            self.outcome.record(self.checker.check(run))
            if self.trace:
                recorder = SpanRecorder()
                run, wall = build_phase.traced_build(self.relation, recorder)
                self.traced.append(wall)
                spent += wall
                self.outcome.record(self.checker.check(run))
                self.traced_layers.append(
                    build_phase.timed_layers(run.metrics, recorder)
                )
            del run
            if spent >= budget:
                break
        self._phase("build", started)

    def _prepare_requests(self) -> None:
        started = time.perf_counter()
        index = CubeIndex(self.cube)
        self.head = head_specs(index, self.seed)
        self.warm_up = self.head + segment_warm_up(index)
        clients = client_count()
        self.streams = [
            client_stream(
                self.head,
                tail_stream(index, self.seed, c, clients, self.warm_up),
                self.seed, c,
            )
            for c in range(clients)
        ]
        self.reference = CubeView(index)
        self._phase("set_up", started)

    def _persist(self, name: str) -> str:
        started = time.perf_counter()
        store = os.path.join(self.work, f"cube-{name}.store")
        written = CubeStore.write(self.cube, store, aggregate="count")
        self.writes.append(time.perf_counter() - started)
        # Every write is of the same cube, so of the same size.
        self.outcome.record(
            [] if self.store_bytes in (None, written) else
            [f"store write {name} gave {written} bytes, "
             f"not {self.store_bytes}"]
        )
        self.store_bytes = written
        self._phase("persist", started)
        return store

    def _build_and_persist(self, name: str, budget: float) -> str:
        """A slice's builds with its timed writes spread through them,
        so that builds and writes sample the same stretches of the run.
        Every write of a slice goes to the same path, which is returned."""
        for _ in range(WRITES_PER_SLICE):
            self._builds(budget / WRITES_PER_SLICE)
            store = self._persist(name)
        return store

    def _cycle(self, cycle, generated, build_budget, serve_budget) -> None:
        """One server's lifetime: SLICES rounds of builds and timed
        writes, then serving.  The server answers from the cycle's first
        slice's store."""
        store = self._build_and_persist(f"{cycle}-0", build_budget)
        if cycle == 0:
            self._prepare_requests()
        started = time.perf_counter()
        log = os.path.join(self.work, f"server-{cycle}.log")
        with ServerProcess(self.root, store, log) as server:
            self.warm_ups.append(run_closed_loop(
                server.port, [(("warm_up", spec) for spec in self.warm_up)],
                done=lambda heads, tails, elapsed: False,
            ))
            self.setups.append(generated + time.perf_counter() - started)
            self._phase("serve_set_up", started)
            for part in range(SLICES):
                if part:
                    self._build_and_persist(f"{cycle}-{part}", build_budget)
                self._serve(cycle, store, server, serve_budget)
            self.servers.append(server.stats()["counters"])

    def _serve(self, cycle, store, server, budget) -> None:
        started = time.perf_counter()
        served = [s for c in self.chunks for s in c["load"].samples]
        share = (len(self.chunks) + 1) / (CYCLES * SLICES)
        need_heads = (math.ceil(MIN_HEAD * share)
                      - sum(s.kind == "head" for s in served))
        need_tails = (math.ceil(MIN_TAIL * share)
                      - sum(s.kind == "tail" for s in served))

        def done(heads: int, tails: int, elapsed: float) -> bool:
            return elapsed >= MAX_SLICE_SECONDS or (
                elapsed >= budget and heads >= need_heads
                and tails >= need_tails
            )

        # Frozen objects are skipped by the collector, so the clients
        # are not stalled by full collections over the cubes this
        # process holds.
        gc.freeze()
        try:
            load = run_closed_loop(server.port, self.streams, done)
        finally:
            gc.unfreeze()
        self.chunks.append({"cycle": cycle, "store": store, "load": load})
        self._phase("serve", started)

    def _check_answers(self) -> None:
        expected_cache: Dict[str, object] = {}

        def expected(spec):
            key = spec_key(spec)
            if key not in expected_cache:
                expected_cache[key] = execute_query(self.reference, spec)
            return expected_cache[key]

        loads = self.warm_ups + [chunk["load"] for chunk in self.chunks]
        for load in loads:
            wrong = wrong_answers(load, expected)
            refused = sum(s.status != 200 for s in load.samples)
            self.outcome.attempted += len(load.samples)
            self.outcome.failed += wrong + refused
            if wrong:
                self.outcome.problems.append(
                    f"{wrong} served answers differ from CubeView"
                )
            if refused:
                self.outcome.problems.append(
                    f"{refused} requests not answered 200"
                )

    # -- metrics -----------------------------------------------------------------

    def _end_to_end(self) -> Dict:
        samples = [s for chunk in self.chunks for s in chunk["load"].samples]
        heads = [s.latency * 1e3 for s in samples if s.kind == "head"]
        tails = [s.latency * 1e3 for s in samples if s.kind == "tail"]
        answered = sum(s.status == 200 for s in samples)
        wall = sum(chunk["load"].wall for chunk in self.chunks)
        metrics = self.first_run.metrics
        # Builds and writes are single-threaded CPU work, which a shared
        # virtual CPU can run at two speeds, for stretches of seconds, in
        # a proportion that changes from run to run.  The fastest sample
        # is the program's cost outside the slow stretches; the medians
        # are in the report.
        return {
            "setup_s": (median(self.setups), "s"),
            "peak_rss_mb": (self.bench_rss_mb, "MB"),
            "build_s": (min(self.untraced), "s"),
            "sim_total_s": (metrics.total_seconds, "sim_s"),
            "shuffle_mb": (metrics.intermediate_bytes / 1e6, "MB"),
            "store_write_s": (min(self.writes), "s"),
            "store_bytes_per_group": (
                self.store_bytes / self.cube.num_groups, "B"
            ),
            "serve_qps": (answered / wall, "1/s"),
            "serve_head_p50_ms": (percentile(heads, 0.50), "ms"),
            "serve_head_p99_ms": (percentile(heads, 0.99), "ms"),
            "serve_tail_p50_ms": (percentile(tails, 0.50), "ms"),
            "serve_tail_p90_ms": (percentile(tails, 0.90), "ms"),
        }

    def _ledger(self) -> Dict:
        ledger: Dict = dict(
            build_phase.deterministic_layers(self.first_run.metrics)
        )
        for key in self.traced_layers[0]:
            ledger[key] = mean([layers[key] for layers in self.traced_layers])
        ledger["build_parts_sum_s"] = sum(ledger[k] for k in (
            "core.sketch.round_s", "mapreduce.engine.map_s",
            "mapreduce.engine.reduce_s", "core.spcube.assembly_s",
        ))
        ledger["build_untraced_mean_s"] = mean(self.untraced)
        ledger["build_trace_overhead_ratio"] = (
            mean(self.traced) / mean(self.untraced)
        )
        negative = [
            (k, v) for layers in self.traced_layers
            for k, v in layers.items() if v < 0
        ]
        if negative:
            self.outcome.problems.append(f"negative build layers: {negative}")

        ledger["serving.store.write_us_per_group"] = (
            min(self.writes) / self.cube.num_groups * 1e6
        )
        counters = Counter()
        for server in self.servers:
            counters.update(server)
        loads = counters["serving.segment_load"]
        segment_hits = counters["serving.segment_hit"]
        cache_hits = counters["serving.cache_hit"]
        lookups = cache_hits + counters["serving.cache_miss"]
        ledger.update({
            "serving.store.segment_loads": loads,
            "serving.store.segment_hit_ratio": (
                segment_hits / (segment_hits + loads) if loads else 1.0
            ),
            "serving.store.bytes_read": counters["serving.bytes_read"],
            "serving.view.cache_hit_ratio": (
                cache_hits / lookups if lookups else 0.0
            ),
            "serving.server.shed": counters["serving.shed"],
            "serving.server.deadline_exceeded": (
                counters["serving.deadline_exceeded"]
            ),
            "serving.server.query_errors": counters["serving.query_errors"],
        })

        # The replay covers the last server's stream: a third of the
        # requests, each answered twice more in-process.
        last = [c for c in self.chunks if c["cycle"] == CYCLES - 1]
        samples = [s for c in last for s in c["load"].samples]
        specs = [c["load"].specs[s.key] for c in last for s in c["load"].samples]
        store = last[0]["store"]
        plain_wall, timings = _replay(store, self.warm_up, specs, None)
        http = [
            (s.kind, s.latency * 1e3 - inproc)
            for s, inproc in zip(samples, timings)
        ]
        traced_wall, requests = _replay(
            store, self.warm_up, specs, SpanRecorder()
        )
        ledger.update(_serve_layers(requests))
        ledger["serving.server.http_ms"] = mean([v for _k, v in http])
        for kind in ("head", "tail"):
            ledger[f"serving.server.http_ms.{kind}"] = mean(
                [v for k, v in http if k == kind]
            )
        ledger["serve_replay_untraced_s"] = plain_wall
        ledger["serve_replay_traced_s"] = traced_wall
        ledger["trace_overhead_ratio"] = (
            (sum(self.traced) + traced_wall)
            / (sum(self.untraced) + plain_wall)
        )
        return ledger


# -- the traced replay ---------------------------------------------------------

PER_LAYER_UNITS = {
    "core.sketch.round_s": "s",
    "core.sketch.skewed_groups": "count",
    "core.sketch.bytes": "B",
    "mapreduce.engine.map_s": "s",
    "mapreduce.engine.reduce_s": "s",
    "mapreduce.engine.shuffle_records": "count",
    "mapreduce.engine.shuffle_bytes": "B",
    "mapreduce.engine.max_reducer_records": "count",
    "mapreduce.engine.reducer_balance": "ratio",
    "core.spcube.lattice_plan_hit_ratio": "ratio",
    "core.spcube.covered_walk_hit_ratio": "ratio",
    "core.spcube.assembly_s": "s",
    "cubing.result.add_pairs_s": "s",
    "mapreduce.dfs.write_s": "s",
    "mapreduce.checkpoint.round_self_s": "s",
    "mapreduce.engine.attempts": "count",
    "mapreduce.engine.killed_tasks": "count",
    "serving.store.write_us_per_group": "us",
    "serving.store.segment_load_ms": "ms",
    "serving.store.segment_loads": "count",
    "serving.store.segment_hit_ratio": "ratio",
    "serving.store.bytes_read": "B",
    "serving.view.cache_hit_ratio": "ratio",
    "serving.view.hit_ms": "ms",
    "query.view.plan_ms": "ms",
    "serving.server.execute_self_ms": "ms",
    "serving.server.encode_ms": "ms",
    "serving.server.response_kb": "KB",
    "serving.server.http_ms": "ms",
    "serving.server.shed": "count",
    "serving.server.deadline_exceeded": "count",
    "serving.server.query_errors": "count",
    "trace_overhead_ratio": "ratio",
}

VIEW_OPS = ("rollup", "total", "slice", "drilldown", "top", "pivot")


def _replay(store: str, warm_up, specs, recorder):
    """Answer ``specs`` in-process on a fresh view of ``store``, after
    the warm-up the server got.

    Untraced (``recorder`` is None): returns the wall time of the specs
    and each request's execute + encode milliseconds.  Traced: returns
    the wall time of the specs and the span trees — one ``warm_up``
    root (where a lattice that fits the segment LRU does all its
    segment loads), then one ``request`` root per spec.
    """
    view = StoredCubeView.open(store)
    try:
        if recorder is None:
            for spec in warm_up:
                execute_query(view, spec)
            timings = []
            started = time.perf_counter()
            for spec in specs:
                begin = time.perf_counter()
                json.dumps({"ok": True, "result": execute_query(view, spec)},
                           sort_keys=True)
                timings.append((time.perf_counter() - begin) * 1e3)
            return time.perf_counter() - started, timings

        counters = view.counters

        def probe():
            return (counters.value("serving.cache_hit"),
                    counters.value("serving.cache_miss"),
                    counters.value("serving.segment_load"))

        targets = [(StoredCubeView, op, f"view.{op}") for op in VIEW_OPS]
        targets.append((CubeView, "cuboid_sizes", "view.cuboid_sizes"))
        targets.append((CubeStore, "cuboid", "store.cuboid"))
        with instrumented(recorder, targets, probe):
            with recorder.span("warm_up"):
                for spec in warm_up:
                    execute_query(view, spec)
            started = time.perf_counter()
            for spec in specs:
                with recorder.span("request"):
                    with recorder.span("execute_query"):
                        result = execute_query(view, spec)
                    with recorder.span("encode") as encode:
                        text = json.dumps({"ok": True, "result": result},
                                          sort_keys=True)
                    encode.attrs["bytes"] = len(text)
            wall = time.perf_counter() - started
        return wall, recorder.roots
    finally:
        view.close()


HIT, MISS, LOAD = 0, 1, 2  # probe counter positions


def _serve_layers(roots) -> Dict[str, float]:
    """Mean milliseconds per serve layer from the traced replay.

    Segment loads count wherever they happen, warm-up included; every
    other layer is taken over the replayed requests only.
    """
    loads = [
        s.duration * 1e3 for root in roots for s in root.walk()
        if s.name == "store.cuboid" and s.delta(LOAD)
    ]
    hits, plans, executes, encodes, sizes = [], [], [], [], []
    for request in roots:
        if request.name != "request":
            continue
        execute, encode = request.children
        executes.append(execute.self_time * 1e3)
        encodes.append(encode.duration * 1e3)
        sizes.append(encode.attrs["bytes"] / 1e3)
        for op in execute.children:
            cuboids = [s for s in op.walk() if s.name == "store.cuboid"]
            if op.delta(HIT) and not op.delta(MISS):
                hits.append(op.duration * 1e3)
            else:
                plans.append(
                    (op.duration - sum(s.duration for s in cuboids)) * 1e3
                )
    return {
        "serving.view.hit_ms": mean(hits),
        "query.view.plan_ms": mean(plans),
        "serving.store.segment_load_ms": mean(loads),
        "serving.server.execute_self_ms": mean(executes),
        "serving.server.encode_ms": mean(encodes),
        "serving.server.response_kb": mean(sizes),
        "replay_hits": len(hits),
        "replay_misses": len(plans),
        "replay_segment_loads": len(loads),
    }
