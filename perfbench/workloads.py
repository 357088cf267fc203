"""The benchmark's workloads and their seeded inputs.

Each workload runs the whole pipeline — build, persist, serve — on its
own relation.  The two relations come from the paper's gen-binomial
generator and differ in the property the build's skew path depends on:

``build-skewed``
    ``p = 0.4``, ``d = 4``: the Figure 6 heavy-hitter point.  The sketch
    finds a few hundred skewed c-groups, so map-side partial aggregation
    and the skew reducer 0 do real work.  At 4,000 rows a build spends
    about 8% in the sketch round, 42% in the round-2 map phase, 36% in
    the reduce phase and 14% in driver assembly.
``build-uniform``
    ``p = 0``, ``d = 4``: same generator and schema, no heavy hitters.
    The sketch marks only the apex, the skew path is bypassed and every
    tuple crosses the range-partitioned shuffle.  The cube has about 15
    groups per row (9 on build-skewed), and at 2,500 rows the reduce
    phase weighs most: 9% sketch, 31% map, 43% reduce, 16% assembly.

The request stream of a run is a pure function of the seed and the
cube: a fixed *head* of 24 specs (86% of requests, well inside the
server's 128-entry result cache) and *tail* drilldowns that are all
distinct and spread over every cuboid of two or more dimensions (see
:func:`tail_stream`).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterator, List, Tuple

from repro.datagen import gen_binomial
from repro.relation.lattice import mask_dimensions

#: Head specs, and tail specs sent per pass over the head.
HEAD_SIZE = 24
TAILS_PER_BLOCK = 4


@dataclass(frozen=True)
class Workload:
    name: str
    skew: float
    dimensions: int
    rows: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("build-skewed", 0.4, 4, 4_000),
        Workload("build-uniform", 0.0, 4, 2_500),
    )
}


def make_relation(workload: Workload, seed: int):
    """The workload's input relation for ``seed`` (same seed, same rows)."""
    return gen_binomial(
        workload.rows, workload.skew,
        num_dimensions=workload.dimensions, seed=seed,
    )


def spec_key(spec: Dict) -> str:
    """Canonical text of a wire spec (identity for dedup and checks)."""
    return json.dumps(spec, sort_keys=True)


def _names(schema, mask: int) -> List[str]:
    d = schema.num_dimensions
    return [schema.dimensions[i] for i in mask_dimensions(mask, d)]


class CubeIndex:
    """A cube split into per-cuboid dicts in one pass.

    Serves two readers: spec generation draws answerable values from
    the sorted group keys, and the in-memory reference
    ``CubeView(CubeIndex(cube))`` reads cuboids without rescanning the
    whole cube per query.  Implements the part of the ``CubeResult``
    surface that :class:`~repro.query.view.CubeView` uses.
    """

    def __init__(self, cube):
        self.schema = cube.schema
        self.num_groups = cube.num_groups
        self._cuboids: Dict[int, Dict[Tuple, object]] = {
            mask: {} for mask in range(1 << cube.schema.num_dimensions)
        }
        for (mask, values), value in cube.items():
            self._cuboids[mask][values] = value
        self._sorted: Dict[int, List[Tuple]] = {}

    def cuboid(self, mask: int) -> Dict[Tuple, object]:
        return self._cuboids[mask]

    def value(self, mask: int, values: Tuple):
        return self._cuboids[mask][values]

    def groups_per_cuboid(self) -> Dict[int, int]:
        return {mask: len(groups) for mask, groups in self._cuboids.items()}

    def groups(self, mask: int) -> List[Tuple]:
        """The cuboid's group keys, sorted."""
        if mask not in self._sorted:
            self._sorted[mask] = sorted(self._cuboids[mask])
        return self._sorted[mask]


def head_specs(index: CubeIndex, seed: int) -> List[Dict]:
    """The fixed head: 24 specs of a fixed op mix, values drawn by seed.

    The mix is fixed so every seed exercises the same answer sizes:
    rollups and pivots return one entry per group of a 1- or 2-d
    cuboid, slices and drilldowns a handful.
    """
    rng = random.Random(seed * 7919 + 1)
    schema = index.schema
    dims = list(schema.dimensions)
    d = len(dims)
    pairs = list(combinations(range(d), 2))
    specs: List[Dict] = [{"op": "total"}, {"op": "cuboid_sizes"}]
    for _ in range(5):
        chosen = rng.choice([(i,) for i in range(d)] + pairs)
        specs.append({"op": "rollup", "dimensions": [dims[i] for i in chosen]})
    for _ in range(4):
        row, column = rng.choice(pairs)
        specs.append({"op": "pivot", "row": dims[row], "column": dims[column]})
    for _ in range(4):
        dim = rng.randrange(d)
        specs.append(
            {"op": "top", "dimensions": [dims[dim]], "k": rng.randint(1, 10)}
        )
    for _ in range(5):
        dim = rng.randrange(d)
        (value,) = rng.choice(index.groups(1 << dim))
        specs.append({"op": "slice", "fixed": {dims[dim]: value}})
    for _ in range(4):
        fixed, into = rng.choice(pairs)
        if rng.random() < 0.5:
            fixed, into = into, fixed
        (value,) = rng.choice(index.groups(1 << fixed))
        specs.append(
            {"op": "drilldown", "group": {dims[fixed]: value},
             "into": dims[into]}
        )
    return specs


def tail_masks(schema) -> List[int]:
    """Cuboids the tail reads: every cuboid of two or more dimensions."""
    d = schema.num_dimensions
    return [m for m in range(1, 1 << d) if bin(m).count("1") >= 2]


def _drilldown(schema, mask: int, values: Tuple, into: int) -> Dict:
    """Drill from one group of ``mask`` (minus dimension ``into``) into it."""
    names = _names(schema, mask)
    return {
        "op": "drilldown",
        "group": {
            name: value
            for i, (name, value) in enumerate(zip(names, values))
            if i != into
        },
        "into": names[into],
    }


def segment_warm_up(index: CubeIndex) -> List[Dict]:
    """One drilldown per tail cuboid, sent after the head at set-up.

    It loads every tail cuboid once, so a lattice that fits the
    server's segment LRU (d=4) serves its whole tail from memory.
    """
    return [
        _drilldown(index.schema, mask, index.groups(mask)[0], 0)
        for mask in tail_masks(index.schema)
    ]


def tail_stream(
    index: CubeIndex, seed: int, client: int, clients: int, exclude=()
) -> Iterator[Dict]:
    """Client ``client``'s endless stream of distinct tail drilldowns.

    The tail cuboids are dealt out over the clients in a seeded order
    and each client cycles through its own share, drilling from a
    random group each time.  Between two reads of one cuboid the
    clients read every other tail cuboid about once, so on d=5 (26
    cuboids, 16 LRU slots) a tail read misses the segment cache however
    the clients' requests interleave, and on d=4 (11 cuboids) it hits.
    Specs never repeat, and clients never share a cuboid, so no tail
    spec is ever answered from the result cache.
    """
    rng = random.Random(seed * 104729 + 7 * client + 2)
    masks = tail_masks(index.schema)
    random.Random(seed * 104729 + 1).shuffle(masks)
    mine = masks[client::clients]
    seen = {spec_key(spec) for spec in exclude}
    j = 0
    while True:
        mask = mine[j % len(mine)]
        values = rng.choice(index.groups(mask))
        into = rng.randrange(bin(mask).count("1"))
        spec = _drilldown(index.schema, mask, values, into)
        key = spec_key(spec)
        if key not in seen:
            seen.add(key)
            j += 1
            yield spec


def client_stream(
    head: List[Dict], tail: Iterator[Dict], seed: int, client: int
) -> Iterator[Tuple[str, Dict]]:
    """Client ``client``'s endless ``(class, spec)`` stream.

    The stream is a run of blocks.  Each block holds every head spec
    once and :data:`TAILS_PER_BLOCK` tail specs, in seeded order, so
    every stretch of the stream has the same mix of answer sizes and
    the same 24:4 head share (86%).
    """
    rng = random.Random(seed * 31337 + 97 * client + 3)
    while True:
        block = [("head", spec) for spec in head]
        block += [("tail", None)] * TAILS_PER_BLOCK
        rng.shuffle(block)
        for kind, spec in block:
            yield kind, (spec if kind == "head" else next(tail))
