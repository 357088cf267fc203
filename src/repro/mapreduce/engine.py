"""The simulated MapReduce execution engine.

One :class:`MapReduceJob` describes a round: a mapper, a reducer, and
optionally a combiner and a custom partitioner — the same knobs Hadoop
exposes and the paper's algorithms rely on (custom range partitioner for
SP-Cube, combiners for Pig's MR-Cube).

Execution is deterministic and faithful to the distributed data flow:

* the input arrives pre-split into ``k`` chunks (one per map task);
* each map task runs its own mapper instance (so map-side state such as
  SP-Cube's partial aggregates is per-machine, exactly as on a cluster);
* an optional combiner runs over each map task's buffered output;
* pairs are routed by the partitioner and charged per-reducer;
* each reduce task processes its keys in deterministic sorted order and may
  spill (with a time penalty) or be flagged OOM when its input exceeds the
  machine's physical memory.

The engine returns the reduce output plus a :class:`JobMetrics` with all the
counters the paper's figures are built from.

**Execution backends.**  Each phase's tasks are self-contained
:class:`_MapTask`/:class:`_ReduceTask` objects executed by the cluster's
task executor (see :mod:`repro.mapreduce.executor`): the default
:class:`~repro.mapreduce.executor.SerialExecutor` runs them in-process one
by one, while a :class:`~repro.mapreduce.executor.ParallelExecutor`
(enabled via ``ClusterConfig.parallelism`` or ``REPRO_PARALLELISM``) fans
them out across worker processes.  Outcomes are merged in task-index
order, so cubes, metrics and fault chains are bit-identical across
backends.  Jobs that feed results back to the driver through shared
objects (``MapReduceJob.driver_state``) always run serially.

**Fault tolerance.**  When the cluster carries a
:class:`~repro.mapreduce.faults.FaultPlan`, every task runs as a chain of
attempts governed by the cluster's
:class:`~repro.mapreduce.faults.RetryPolicy`:

* a crashed attempt's output is discarded and the task re-runs from its
  input chunk with a **fresh mapper/reducer instance** (so ``setup``/
  ``close`` state is rebuilt per attempt — map-side partial aggregates
  are flushed exactly once, by the winning attempt);
* a straggling attempt whose slowdown reaches the policy's threshold gets
  a speculative backup copy; the first finisher wins, the loser is killed,
  and only the winner's output is kept;
* failed attempts charge their lost runtime, the framework's crash
  detection delay, and the scheduler's exponential backoff to the task's
  chain, so phase times remain the max over *successful* attempt chains;
* a task that exhausts ``max_attempts`` aborts the job: ``run_job``
  returns normally with empty output and ``JobMetrics.aborted`` set —
  never an exception.

Injected faults may only change the simulated clock and the fault
counters; the data flow (and therefore the cube) is bit-identical to a
fault-free run unless the job aborts.

**Observation.**  When the cluster carries an
:class:`~repro.observability.Observers` hub, ``run_job`` reports every
merge point to it — job start, each merged map task, the shuffle, each
merged reduce task, aborts, node losses and the job end — and the hub
projects them onto whichever tracer, telemetry collector, flight
recorder and watchdog are attached.  Task chains buffer their trace
records locally (safe in worker processes) and the merge loops hand them
over in task-index order, so every artifact is bit-identical across
execution backends.  With no hub attached the engine pays one ``None``
check per task — metrics and outputs are identical either way.
"""

from __future__ import annotations

import gc
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .cluster import ClusterConfig
from .costmodel import CostModel
from .executor import SerialExecutor, TaskOutcome, run_task_chain
from .faults import NO_FAULTS, FaultPlan, RetryPolicy
from .metrics import JobMetrics, TaskMetrics
from .sizes import estimate_bytes, pair_bytes

Pair = Tuple[object, object]

_crc32 = zlib.crc32


class PairFormatError(TypeError):
    """User code emitted something that is not a ``(key, value)`` pair.

    Subclasses :class:`TypeError` so callers that caught the old opaque
    unpack error keep working, but the message names the job, phase, task
    and the offending record.
    """

#: Fraction of a machine's physical memory that one key-group's buffered
#: values may occupy before the group counts as *oversized*.  Hadoop-era
#: engines (Pig bags, Hive's generic UDAF evaluation) materialize each
#: key's value list while aggregating it.
DEFAULT_VALUE_BUFFER_FRACTION = 0.75

#: A reduce task is flagged as failing when more than this fraction of its
#: input records sit in oversized groups: the task then spends most of its
#: heap churning giant value runs (the JVM GC death spiral), blows its task
#: timeout, and is killed/retried.  One oversized run among plenty of
#: normal work amortizes; domination does not.
DEFAULT_OVERSIZED_DOMINANCE = 1.0 / 3.0

#: A job is declared failed ("stuck", as the paper describes Hive for
#: p >= 0.4 in Figure 6a) when at least this fraction of its reduce tasks
#: are flagged (with an absolute floor of 2).  A single struggling reducer
#: is survivable through spilling and speculative retries; widespread
#: overload is not.
DEFAULT_OOM_QUORUM_FRACTION = 0.25


#: Bounded memo for :func:`stable_hash` over *strings only*.  Strings are
#: the one key type where memoization is both safe and profitable: a str
#: can only ever equal another str (no ``1 == 1.0 == True`` cross-type
#: collisions), and a dict hit costs ~6x less than repr+CRC32.  Tuples are
#: deliberately not memoized — building a type-strict memo key costs more
#: than the C-speed ``repr`` it would save (measured; see DESIGN.md §9) —
#: and repeated tuple keys are already deduplicated by the routing cache
#: in :func:`_route_pairs`.
_HASH_MEMO: Dict[str, int] = {}
_HASH_MEMO_LIMIT = 1 << 16


def stable_hash(obj) -> int:
    """Deterministic, process-independent hash (Python's ``hash`` is salted).

    Bit-identical to ``zlib.crc32(repr(obj).encode())`` — the engine's
    historical definition, pinned by regression tests so partition
    assignments never shift — with string keys served from a bounded memo
    (skewed workloads re-hash the same dimension values millions of
    times).
    """
    if type(obj) is str:
        cached = _HASH_MEMO.get(obj)
        if cached is None:
            if len(_HASH_MEMO) >= _HASH_MEMO_LIMIT:
                _HASH_MEMO.clear()
            cached = _crc32(repr(obj).encode())
            _HASH_MEMO[obj] = cached
        return cached
    return _crc32(repr(obj).encode())


def hash_partitioner(key, num_reducers: int) -> int:
    """Hadoop's default routing: stable hash of the key modulo reducers."""
    return stable_hash(key) % num_reducers


class TaskContext:
    """Per-task handle giving user code access to cluster facts and counters."""

    def __init__(self, machine: int, num_machines: int, memory_records: int):
        self.machine = machine
        self.num_machines = num_machines
        self.memory_records = memory_records
        self._extra_cpu = 0
        self.counters: Dict[str, int] = {}

    def add_cpu(self, ops: int) -> None:
        """Charge additional CPU work (e.g. lattice-node visits) to the task."""
        self._extra_cpu += ops

    def incr(self, counter: str, amount: int = 1) -> None:
        """Bump a named user counter (exposed for tests and diagnostics)."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    @property
    def extra_cpu(self) -> int:
        return self._extra_cpu


class Mapper:
    """Base mapper.  Subclasses override :meth:`map` and optionally
    :meth:`setup`/:meth:`close`; ``close`` may emit final pairs (SP-Cube
    flushes its skew partial aggregates there).

    :meth:`map_chunk` is the whole-chunk entry point the engine actually
    calls; the default simply drives :meth:`map` record by record, so
    existing mappers are unaffected, while hot mappers may override it
    to amortize per-record work (SP-Cube's round-2 mapper memoizes its
    lattice walk there).  An override must produce the byte-identical
    pair stream the per-record loop would.
    """

    def setup(self, context: TaskContext) -> None:
        self.context = context

    def map(self, record) -> Iterable[Pair]:
        raise NotImplementedError

    def map_chunk(self, chunk) -> Tuple[int, List[Pair]]:
        """Map every record of ``chunk``: ``(records_in, buffered pairs)``."""
        buffered: List[Pair] = []
        extend = buffered.extend
        mapper_map = self.map
        records_in = 0
        for record in chunk:
            records_in += 1
            extend(mapper_map(record))
        return records_in, buffered

    def close(self) -> Iterable[Pair]:
        return ()


class Reducer:
    """Base reducer.  ``reduce`` is called once per key with all its values,
    in deterministic key order; ``close`` may emit trailing pairs."""

    def setup(self, context: TaskContext) -> None:
        self.context = context

    def reduce(self, key, values: List) -> Iterable[Pair]:
        raise NotImplementedError

    def close(self) -> Iterable[Pair]:
        return ()


class FunctionMapper(Mapper):
    """Adapter turning a plain ``record -> iterable[(k, v)]`` function into
    a :class:`Mapper`."""

    def __init__(self, fn: Callable[[object], Iterable[Pair]]):
        self._fn = fn

    def map(self, record) -> Iterable[Pair]:
        return self._fn(record)


class FunctionReducer(Reducer):
    """Adapter turning a plain ``(key, values) -> iterable[(k, v)]``
    function into a :class:`Reducer`."""

    def __init__(self, fn: Callable[[object, List], Iterable[Pair]]):
        self._fn = fn

    def reduce(self, key, values: List) -> Iterable[Pair]:
        return self._fn(key, values)


class TaskFactory:
    """Picklable task factory: ``TaskFactory(Cls, *args)() == Cls(*args)``.

    Engines historically built mappers with ``lambda: Cls(...)``, which
    cannot cross a process boundary; a :class:`TaskFactory` can, as long
    as the class is module-level and the arguments pickle.
    """

    __slots__ = ("_cls", "_args", "_kwargs")

    def __init__(self, cls, *args, **kwargs):
        self._cls = cls
        self._args = args
        self._kwargs = kwargs

    def __call__(self):
        return self._cls(*self._args, **self._kwargs)

    def __repr__(self) -> str:
        return f"TaskFactory({self._cls.__name__}, ...)"


@dataclass
class MapReduceJob:
    """Description of one MapReduce round.

    ``mapper_factory`` / ``reducer_factory`` are called once per task so
    per-machine state is isolated, mirroring separate JVMs on a cluster.
    ``combiner`` has the Hadoop signature ``(key, values) -> pairs`` and
    runs over each map task's buffered output before the shuffle.
    """

    name: str
    mapper_factory: Callable[[], Mapper]
    reducer_factory: Callable[[], Reducer]
    num_reducers: Optional[int] = None
    partitioner: Callable[[object, int], int] = hash_partitioner
    combiner: Optional[Callable[[object, List], Iterable[Pair]]] = None
    #: Per-group value-buffer limit as a fraction of physical memory;
    #: groups above it are *oversized*.  ``None`` (the default) disables
    #: the failure check: real engines aggregate common functions in a
    #: streaming fashion, so giant groups cost time (spills), not
    #: correctness.  Engines that genuinely buffer per-group value lists
    #: can opt in.
    value_buffer_fraction: Optional[float] = None
    #: A reducer is flagged when oversized groups hold more than this
    #: fraction of its input records.
    oversized_dominance: float = DEFAULT_OVERSIZED_DOMINANCE
    #: Fraction of flagged reduce tasks at which the job counts as failed.
    oom_quorum_fraction: float = DEFAULT_OOM_QUORUM_FRACTION
    #: True for rounds whose mapper/reducer feeds results back to the
    #: driver through a shared in-memory object (e.g. a sketch holder
    #: list).  Such side channels do not survive a process boundary, so
    #: the engine always runs these rounds on the serial executor.
    driver_state: bool = False
    #: Classifier mapping one *map emission key* to the cuboid (lattice
    #: mask) it belongs to, used by the shuffle flight recorder to break
    #: each flow edge down per cuboid.  Must be a module-level function
    #: (parallel workers pickle the job) and a pure function of the key.
    #: ``None`` for rounds whose keys carry no cuboid (sampling rounds).
    cuboid_of: Optional[Callable[[object], int]] = None

    @classmethod
    def from_functions(
        cls,
        name: str,
        map_fn: Callable[[object], Iterable[Pair]],
        reduce_fn: Callable[[object, List], Iterable[Pair]],
        **kwargs,
    ) -> "MapReduceJob":
        """Convenience constructor from bare functions."""
        return cls(
            name=name,
            mapper_factory=TaskFactory(FunctionMapper, map_fn),
            reducer_factory=TaskFactory(FunctionReducer, reduce_fn),
            **kwargs,
        )


#: Rank table for :func:`_sort_token`: every key type the engines emit
#: maps into a totally-ordered band, so mixed-type reduce buckets sort
#: identically in every process (``repr``-keyed sorting was only stable
#: within one interpreter for types whose repr embeds object addresses).
def _sort_token(key):
    """A totally-ordered, process-independent sort token for a reduce key.

    Bands: None < numbers (compared numerically, bools included) < str <
    bytes < tuples (recursively tokenized) < everything else (by type
    name, then repr).  Only used for buckets whose keys are not mutually
    comparable; homogeneous buckets take the plain ``sorted`` path.
    """
    kind = type(key)
    if kind is tuple:
        return (4, "", tuple(_sort_token(item) for item in key))
    if kind is str:
        return (2, "", key)
    if key is None:
        return (0, "", 0)
    if kind is bytes:
        return (3, "", key)
    if isinstance(key, (int, float)):  # bool included via int
        return (1, "", key)
    if isinstance(key, tuple):
        return (4, "", tuple(_sort_token(item) for item in key))
    if isinstance(key, str):
        return (2, "", key)
    if isinstance(key, bytes):
        return (3, "", key)
    return (5, f"{kind.__module__}.{kind.__qualname__}", repr(key))


def _ordered_keys(keys) -> List:
    """Keys in a deterministic order, tolerating non-comparable mixes."""
    try:
        return sorted(keys)
    except TypeError:
        return sorted(keys, key=_sort_token)


@dataclass
class JobResult:
    """Reduce output plus the round's metrics."""

    output: List[Pair]
    metrics: JobMetrics
    reducer_outputs: List[List[Pair]] = field(default_factory=list)
    #: On a reduce-side abort: outputs of the partitions that *did*
    #: complete before the merge hit the dead chain, keyed by partition
    #: index.  The checkpoint layer salvages these so a resume reruns
    #: only the lost partitions.  Empty on success and on map aborts.
    partial_reducer_outputs: Dict[int, List[Pair]] = field(
        default_factory=dict
    )


def _unpack_pair(item, job_name: str, phase: str, machine: int) -> Pair:
    """Unpack an emitted item, raising a named error when it is no pair."""
    try:
        key, value = item
    except (TypeError, ValueError):
        raise PairFormatError(
            f"job {job_name!r}: {phase} task {machine} emitted {item!r}; "
            "mappers, combiners and reducers must yield (key, value) pairs"
        ) from None
    return key, value


def _validated_pairs(
    items: List, job_name: str, phase: str, machine: int
) -> List[Pair]:
    """Repack emitted items as ``(key, value)`` tuples, naming offenders.

    Items that are already 2-tuples — every mapper and reducer in this
    repository — pass through unchanged: the scan is two C-level checks
    per item versus an unpack-and-repack allocation.  Anything else (a
    generator of lists, say) falls back to the repacking comprehension,
    and only when *that* trips does the slow rescan run to attribute the
    error to the first malformed item.
    """
    if type(items) is list:  # the scan must not consume a generator
        for item in items:
            if type(item) is not tuple or len(item) != 2:
                break
        else:
            return items
    try:
        return [(key, value) for key, value in items]
    except (TypeError, ValueError):
        for item in items:
            _unpack_pair(item, job_name, phase, machine)
        raise


def _route_pairs(
    buffered: List,
    job: MapReduceJob,
    num_reducers: int,
    machine: int,
) -> Tuple[List[Tuple[int, List[Pair], int]], int]:
    """Partition a map task's buffer into per-target shards.

    Returns ``([(target, pairs, shard_bytes)], total_bytes)`` with one
    shard per distinct target, in first-seen target order, each shard's
    pairs in emission order — the exact pair stream a per-pair routing
    loop would deliver to that reducer, without a ``(target, pair,
    size)`` wrapper tuple per record.  The shards are what crosses the
    process-pool boundary, so the compact representation cuts both the
    driver's merge loop (one ``extend`` per shard) and the IPC volume
    (~40% fewer tuples than the historical per-pair triples).

    This is the engine's hottest loop — once per shuffled pair — so it
    runs batched with local bindings and a per-key routing cache
    (partitioners must be pure functions of the key, as in Hadoop, and
    skewed workloads re-emit the same keys millions of times).  Error
    attribution is deferred: when anything trips, :func:`_replay_routing`
    reproduces the first failure with full diagnostics.
    """
    # Mutable [target, pairs, bytes] shards, frozen to tuples on return.
    shards: List[List] = []
    by_target: Dict[int, List] = {}
    target_get = by_target.get
    partitioner = job.partitioner
    key_cache: Dict[object, Tuple[int, List]] = {}
    cache_get = key_cache.get
    # Values are sized through an identity cache: a mapper that emits one
    # record object under several keys (SP-Cube's ancestor covering does
    # this 3-5x per record) pays the estimator once.  id() keys are safe
    # here because every value is kept alive by ``buffered`` for the
    # whole loop, and identical objects trivially have identical sizes.
    value_sizes: Dict[int, int] = {}
    value_size_get = value_sizes.get
    bytes_out = 0
    try:
        for key, value in buffered:
            info = cache_get(key)
            if info is None:
                target = partitioner(key, num_reducers)
                if not 0 <= target < num_reducers:
                    raise ValueError(
                        f"partitioner routed key {key!r} to reducer "
                        f"{target} of {num_reducers}"
                    )
                shard = target_get(target)
                if shard is None:
                    shard = [target, [], 0]
                    by_target[target] = shard
                    shards.append(shard)
                info = (estimate_bytes(key), shard)
                key_cache[key] = info
            value_id = id(value)
            value_size = value_size_get(value_id)
            if value_size is None:
                value_size = estimate_bytes(value)
                value_sizes[value_id] = value_size
            size = info[0] + value_size
            bytes_out += size
            shard = info[1]
            shard[1].append((key, value))
            shard[2] += size
    except (TypeError, ValueError) as error:
        _replay_routing(buffered, job, num_reducers, machine, error)
    return [(t, pairs, size) for t, pairs, size in shards], bytes_out


def _replay_routing(
    buffered: List,
    job: MapReduceJob,
    num_reducers: int,
    machine: int,
    error: BaseException,
) -> None:
    """Re-run a failed routing pass step by step to name the offender.

    Mirrors the fast loop's evaluation order exactly, so the first item
    to fail here is the one that tripped the batched loop; a failure the
    replay cannot reproduce (e.g. an unhashable key that only the cache
    probe touched) re-raises the original error.
    """
    for item in buffered:
        key, _value = _unpack_pair(item, job.name, "map", machine)
        target = job.partitioner(key, num_reducers)
        if not 0 <= target < num_reducers:
            raise ValueError(
                f"partitioner routed key {key!r} to reducer "
                f"{target} of {num_reducers}"
            )
    raise error


class _MapTask:
    """One self-contained map task: chunk in, routed pairs out.

    Carries everything an attempt chain needs, so the task can execute in
    the driver or in a worker process with identical results.
    """

    def __init__(
        self,
        job: MapReduceJob,
        machine: int,
        chunk: Sequence,
        num_reducers: int,
        num_machines: int,
        memory_records: int,
        cost: CostModel,
        faults: FaultPlan,
        retry: RetryPolicy,
        trace: bool = False,
        node_kill_at: Optional[float] = None,
    ):
        self.job = job
        self.machine = machine
        self.chunk = chunk
        self.num_reducers = num_reducers
        self.num_machines = num_machines
        self.memory_records = memory_records
        self.cost = cost
        self.faults = faults
        self.retry = retry
        self.trace = trace
        self.node_kill_at = node_kill_at

    def __call__(self) -> TaskOutcome:
        return run_task_chain(
            self._attempt,
            job_name=self.job.name,
            phase="map",
            machine=self.machine,
            faults=self.faults,
            retry=self.retry,
            cost=self.cost,
            trace=self.trace,
            node_kill_at=self.node_kill_at,
        )

    def _attempt(self) -> Tuple[TaskMetrics, List]:
        """One full execution, buffered locally so a crashed attempt
        contributes nothing to the shuffle."""
        job = self.job
        machine = self.machine
        task = TaskMetrics(machine=machine)
        context = TaskContext(
            machine, self.num_machines, self.memory_records
        )
        mapper = job.mapper_factory()
        mapper.setup(context)

        records_in, buffered = mapper.map_chunk(self.chunk)
        buffered.extend(mapper.close())
        task.records_in = records_in

        if job.combiner is not None:
            buffered = _apply_combiner(
                job.combiner, buffered, context, job.name, machine
            )

        routed, bytes_out = _route_pairs(
            buffered, job, self.num_reducers, machine
        )
        task.records_out = sum(len(pairs) for _t, pairs, _b in routed)
        task.bytes_out = bytes_out

        task.cpu_ops = task.records_in + task.records_out + context.extra_cpu
        task.seconds = self.cost.map_task_seconds(
            task.cpu_ops, task.bytes_out
        )
        task.counters = context.counters
        return task, routed


class _ReduceTask:
    """One self-contained reduce task: bucket in, reduce output out."""

    def __init__(
        self,
        job: MapReduceJob,
        machine: int,
        bucket: List[Pair],
        bytes_in: int,
        physical_memory: int,
        num_machines: int,
        memory_records: int,
        cost: CostModel,
        faults: FaultPlan,
        retry: RetryPolicy,
        trace: bool = False,
        node_kill_at: Optional[float] = None,
    ):
        self.job = job
        self.machine = machine
        self.bucket = bucket
        self.bytes_in = bytes_in
        self.physical_memory = physical_memory
        self.num_machines = num_machines
        self.memory_records = memory_records
        self.cost = cost
        self.faults = faults
        self.retry = retry
        self.trace = trace
        self.node_kill_at = node_kill_at

    def __call__(self) -> TaskOutcome:
        return run_task_chain(
            self._attempt,
            job_name=self.job.name,
            phase="reduce",
            machine=self.machine,
            faults=self.faults,
            retry=self.retry,
            cost=self.cost,
            trace=self.trace,
            node_kill_at=self.node_kill_at,
        )

    def _attempt(self) -> Tuple[TaskMetrics, Tuple]:
        job = self.job
        machine = self.machine
        task = TaskMetrics(machine=machine)
        context = TaskContext(
            machine, self.num_machines, self.memory_records
        )
        reducer = job.reducer_factory()
        reducer.setup(context)

        # Bucket pairs were validated and repacked during routing, so the
        # grouping loop can unpack without per-pair checks; avoiding the
        # per-pair ``setdefault`` list allocation matters at volume.
        grouped: Dict[object, List] = {}
        grouped_get = grouped.get
        for key, value in self.bucket:
            values = grouped_get(key)
            if values is None:
                grouped[key] = [value]
            else:
                values.append(value)
        task.records_in = len(self.bucket)
        task.bytes_in = self.bytes_in

        physical = self.physical_memory
        task.peak_group_records = max(
            (len(values) for values in grouped.values()), default=0
        )
        task.spilled_records = max(0, task.records_in - physical)
        oom_flagged = False
        if job.value_buffer_fraction is not None:
            buffer_limit = job.value_buffer_fraction * physical
            oversized_volume = sum(
                len(values)
                for values in grouped.values()
                if len(values) > buffer_limit
            )
            oom_flagged = (
                oversized_volume
                > job.oversized_dominance * task.records_in
            )

        emitted: List = []
        extend = emitted.extend
        reducer_reduce = reducer.reduce
        for key in _ordered_keys(grouped):
            extend(reducer_reduce(key, grouped[key]))
        extend(reducer.close())
        reducer_output = _validated_pairs(
            emitted, job.name, "reduce", machine
        )

        # Inlined pair sizing: the common cube pair is a shallow tuple key
        # and a scalar value, so the estimator's tuple walk runs inline
        # here (same arithmetic as estimate_bytes, see sizes.py) and only
        # unusual shapes fall through to the function.  Cube reducers emit
        # one pair per c-group, which reaches millions on the bench
        # workloads — at that volume the call overhead is the cost.
        sizer = estimate_bytes
        bytes_out = 0
        for key, value in reducer_output:
            kind = type(key)
            if kind is tuple:
                size = 4
                for item in key:
                    kind = type(item)
                    if kind is int or kind is float:
                        size += 8
                    elif kind is str:
                        size += 4 + len(item)
                    elif kind is tuple:
                        size += 4
                        for inner in item:
                            kind = type(inner)
                            if kind is int or kind is float:
                                size += 8
                            elif kind is str:
                                size += 4 + len(inner)
                            else:
                                size += sizer(inner)
                    else:
                        size += sizer(item)
            else:
                size = sizer(key)
            kind = type(value)
            if kind is int or kind is float:
                size += 8
            else:
                size += sizer(value)
            bytes_out += size
        task.records_out = len(reducer_output)
        task.bytes_out = bytes_out

        task.cpu_ops = (
            task.records_in + task.records_out + context.extra_cpu
        )
        task.seconds = self.cost.reduce_task_seconds(
            task.cpu_ops, task.spilled_records, task.bytes_out
        )
        task.counters = context.counters
        return task, (reducer_output, oom_flagged)


def _chain_exhausted(outcome: TaskOutcome) -> bool:
    return outcome.task is None


def _merge_outcome(metrics: JobMetrics, outcome: TaskOutcome) -> None:
    """Fold one task chain's fault counters into the job metrics."""
    metrics.attempts += outcome.attempts
    metrics.killed_tasks += outcome.killed_tasks
    metrics.speculative_wins += outcome.speculative_wins
    metrics.recovered += outcome.recovered
    metrics.killed_attempts.extend(outcome.killed_attempts)


@contextmanager
def paused_gc():
    """Pause cyclic GC for the duration of one round.

    The shuffle allocates millions of small tuples that never form
    reference cycles, but every generation-0 collection they trigger
    eventually escalates to a full scan of the (huge, live) cube state —
    a measurable fraction of round wall time on the bench workloads.
    Pausing the collector defers cycle detection to the round boundary;
    reference counting still reclaims the (acyclic) bulk immediately, so
    peak memory is unchanged.  Results cannot be affected: GC timing is
    invisible to the simulation.  No-op when the caller already disabled
    the collector.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        # While the collector is off, every surviving allocation sits in
        # generation 0, so the first post-enable collection would scan
        # the entire live heap (the full cube!) right at round end.
        # freeze/enable/unfreeze instead promotes everything allocated
        # during the pause straight to the oldest generation — the same
        # place two survived collections would have put it — so the next
        # gen-0 pass only sees genuinely new objects.
        gc.freeze()
        gc.enable()
        gc.unfreeze()


def run_job(*args, **kwargs) -> JobResult:
    """Execute one MapReduce round; see :func:`_run_job` for parameters.

    Runs with cyclic GC paused (:func:`paused_gc`) — purely a wall-clock
    optimization, restored at round end.
    """
    with paused_gc():
        return _run_job(*args, **kwargs)


def _run_job(
    job: MapReduceJob,
    input_chunks: Sequence[Sequence],
    cluster: ClusterConfig,
    memory_records: int,
    executor=None,
    *,
    run_clock: float = 0.0,
    replaced_nodes: frozenset = frozenset(),
    completed_reducers: Optional[Dict[int, List[Pair]]] = None,
) -> JobResult:
    """Execute one MapReduce round over pre-split input.

    Parameters
    ----------
    job:
        The round description.
    input_chunks:
        One record sequence per map task (``len(input_chunks)`` map tasks).
    cluster:
        Cluster shape, cost model, fault plan / retry policy, and
        parallelism (which executor runs the phase's tasks).
    memory_records:
        ``m``, the per-machine memory in records for this run.
    executor:
        Override the cluster's task executor (mostly for tests).
    run_clock:
        Run-relative simulated seconds at which this round starts — how
        run-relative :class:`~repro.mapreduce.faults.NodeFaultSpec` kills
        find the round whose window contains them.  Multi-round engines
        thread this through :class:`~repro.mapreduce.checkpoint.RoundRunner`.
    replaced_nodes:
        Nodes already lost and re-provisioned earlier in the run; their
        pinned/seeded kills are spent (see
        :meth:`FaultPlan.node_kills_for_job`).
    completed_reducers:
        Partition outputs salvaged from a checkpoint or a partially
        completed execution, keyed by partition index.  Those reduce
        tasks are skipped and their outputs merged in place — partial
        re-execution after a node loss.

    Outcomes are merged in task-index order and the merge stops at the
    first exhausted chain, so every backend — serial or parallel —
    produces identical output, metrics and abort behaviour.
    """
    cost = cluster.cost_model
    faults = cluster.fault_plan or NO_FAULTS
    retry = cluster.retry_policy or RetryPolicy()
    num_reducers = job.num_reducers or cluster.num_machines
    metrics = JobMetrics(
        name=job.name,
        oom_quorum=max(2, int(job.oom_quorum_fraction * num_reducers)),
    )
    if executor is None:
        executor = cluster.task_executor()
    if job.driver_state and not isinstance(executor, SerialExecutor):
        # Driver-side side channels (holder lists) cannot cross processes.
        executor = SerialExecutor()
    metrics.executor = executor.name

    # The observation hub, when one is attached, sees every merge point
    # below in task-index order; ``None`` costs one check per task.
    observers = cluster.observers
    watch = None
    if observers is not None:
        watch = observers.begin_job(
            job,
            num_reducers=num_reducers,
            map_tasks=len(input_chunks),
            memory_records=memory_records,
            completed_reducers=completed_reducers,
            startup_seconds=cost.round_startup_seconds,
        )
    trace_tasks = watch is not None and watch.trace_tasks

    # Node kills landing in this round's window, as job-relative times.
    # A pure function of (plan, job name, run clock), so serial and
    # parallel backends — and reruns after a resume — see identical kills.
    topology = cluster.topology()
    node_kills: Dict[int, float] = {}
    if faults.has_node_faults:
        node_kills = faults.node_kills_for_job(
            job.name, run_clock, topology.num_nodes, replaced_nodes
        )

    def _kill_at(machine: int, phase_base: float) -> Optional[float]:
        """Phase-relative kill instant for the node hosting ``machine``."""
        if not node_kills:
            return None
        t = node_kills.get(topology.node_of(machine % cluster.num_machines))
        return None if t is None else t - phase_base

    # ---- map phase --------------------------------------------------------
    map_tasks = [
        _MapTask(
            job, machine, chunk, num_reducers, cluster.num_machines,
            memory_records, cost, faults, retry, trace_tasks,
            node_kill_at=_kill_at(machine, cost.round_startup_seconds),
        )
        for machine, chunk in enumerate(input_chunks)
    ]
    phase_started = time.perf_counter()
    outcomes = executor.run_tasks(map_tasks, stop_early=_chain_exhausted)
    metrics.map_phase_wall_seconds = time.perf_counter() - phase_started

    reducer_buckets: List[List[Pair]] = [[] for _ in range(num_reducers)]
    reducer_bytes = [0] * num_reducers
    dead_chain_seconds = 0.0
    for machine, outcome in enumerate(outcomes):
        _merge_outcome(metrics, outcome)
        if watch is not None:
            watch.map_task(machine, outcome)
        task = outcome.task
        if task is None:
            metrics.aborted = True
            metrics.abort_reason = (
                f"map task {machine} exhausted "
                f"{retry.max_attempts} attempts"
            )
            dead_chain_seconds = outcome.chain_seconds
            if watch is not None:
                watch.abort(
                    "map", machine, dead_chain_seconds, metrics.abort_reason
                )
            break
        for target, pairs, shard_bytes in outcome.payload:
            reducer_buckets[target].extend(pairs)
            reducer_bytes[target] += shard_bytes
        metrics.map_tasks.append(task)
        metrics.map_output_bytes += task.bytes_out
        metrics.map_output_records += task.records_out

    metrics.map_phase_seconds = cost.round_startup_seconds + max(
        max((t.seconds for t in metrics.map_tasks), default=0.0),
        dead_chain_seconds,
    )
    if watch is not None:
        watch.map_phase(metrics)

    if metrics.aborted:
        metrics.total_seconds = metrics.map_phase_seconds
        _record_node_losses(metrics, node_kills)
        if watch is not None:
            watch.finish(metrics, node_kills, topology, executor)
        return JobResult(output=[], metrics=metrics, reducer_outputs=[])

    # ---- shuffle ----------------------------------------------------------
    max_reducer_bytes = max(reducer_bytes, default=0)
    metrics.shuffle_seconds = cost.shuffle_seconds(max_reducer_bytes)
    if watch is not None:
        watch.shuffle(metrics, max_reducer_bytes)

    # ---- reduce phase -----------------------------------------------------
    physical = cluster.physical_memory(memory_records)
    completed = completed_reducers or {}
    reduce_rel = metrics.map_phase_seconds + metrics.shuffle_seconds
    # Partitions already salvaged from a checkpoint are not re-executed;
    # their outputs are merged back in partition order below.
    reduce_machines = [
        machine for machine in range(num_reducers) if machine not in completed
    ]
    reduce_tasks = [
        _ReduceTask(
            job, machine, reducer_buckets[machine], reducer_bytes[machine],
            physical, cluster.num_machines, memory_records, cost, faults,
            retry, trace_tasks,
            node_kill_at=_kill_at(
                machine, reduce_rel + cost.round_startup_seconds
            ),
        )
        for machine in reduce_machines
    ]
    phase_started = time.perf_counter()
    outcomes = executor.run_tasks(reduce_tasks, stop_early=_chain_exhausted)
    metrics.reduce_phase_wall_seconds = time.perf_counter() - phase_started

    merged_outputs: Dict[int, List[Pair]] = dict(completed)
    dead_chain_seconds = 0.0
    for machine, outcome in zip(reduce_machines, outcomes):
        _merge_outcome(metrics, outcome)
        if watch is not None:
            watch.reduce_task(machine, outcome)
        task = outcome.task
        if task is None:
            metrics.aborted = True
            metrics.abort_reason = (
                f"reduce task {machine} exhausted "
                f"{retry.max_attempts} attempts"
            )
            dead_chain_seconds = outcome.chain_seconds
            if watch is not None:
                watch.abort(
                    "reduce", machine, dead_chain_seconds,
                    metrics.abort_reason,
                )
            break
        reducer_output, oom_flagged = outcome.payload
        if oom_flagged:
            metrics.oom_reducers.append(machine)
        metrics.reduce_tasks.append(task)
        merged_outputs[machine] = reducer_output

    metrics.reduce_phase_seconds = cost.round_startup_seconds + max(
        max((t.seconds for t in metrics.reduce_tasks), default=0.0),
        dead_chain_seconds,
    )
    metrics.total_seconds = (
        metrics.map_phase_seconds
        + metrics.shuffle_seconds
        + metrics.reduce_phase_seconds
    )
    _record_node_losses(metrics, node_kills)
    if watch is not None:
        watch.finish(metrics, node_kills, topology, executor)
    if metrics.aborted:
        # Partitions merged before the dead chain (plus checkpointed
        # skips) are salvageable by the round runner.
        return JobResult(
            output=[], metrics=metrics, reducer_outputs=[],
            partial_reducer_outputs=merged_outputs,
        )
    output: List[Pair] = []
    for machine in range(num_reducers):
        output.extend(merged_outputs[machine])
    return JobResult(
        output=output,
        metrics=metrics,
        reducer_outputs=[merged_outputs[m] for m in range(num_reducers)],
    )


def _record_node_losses(
    metrics: JobMetrics, node_kills: Dict[int, float]
) -> None:
    """Fold the kills that actually fired into the round's metrics.

    A kill fires when its instant lands strictly inside the round's
    window ``[0, total_seconds)``; a later instant belongs to a later
    round (the run clock will eventually contain it).  Fired nodes land
    in ``metrics.dead_nodes`` — the signal the checkpoint layer keys its
    resume decision on.
    """
    if node_kills:
        metrics.dead_nodes = sorted(
            node
            for node, at in node_kills.items()
            if at < metrics.total_seconds
        )


def _apply_combiner(
    combiner: Callable[[object, List], Iterable[Pair]],
    pairs: List[Pair],
    context: TaskContext,
    job_name: str,
    machine: int,
) -> List[Pair]:
    """Group a map task's buffer by key and fold it through the combiner."""
    grouped: Dict[object, List] = {}
    grouped_get = grouped.get
    try:
        for key, value in pairs:
            values = grouped_get(key)
            if values is None:
                grouped[key] = [value]
            else:
                values.append(value)
    except (TypeError, ValueError):
        for item in pairs:
            _unpack_pair(item, job_name, "map", machine)
        raise
    context.add_cpu(len(pairs))
    emitted: List = []
    extend = emitted.extend
    for key in _ordered_keys(grouped):
        extend(combiner(key, grouped[key]))
    return _validated_pairs(emitted, job_name, "combiner", machine)
