"""Seeded inputs: the same seed yields the same relation and requests."""

from itertools import islice

import pytest

from repro.aggregates import Count
from repro.cubing.naive import sequential_cube
from repro.datagen import gen_binomial
from workloads import (
    HEAD_SIZE, WORKLOADS, CubeIndex, client_stream, head_specs,
    make_relation, segment_warm_up, spec_key, tail_stream,
)


def _stream(cube, seed, client, clients=2, length=300):
    index = CubeIndex(cube)
    head = head_specs(index, seed)
    warm_up = head + segment_warm_up(index)
    tail = tail_stream(index, seed, client, clients, warm_up)
    return [
        (kind, spec_key(spec))
        for kind, spec in islice(client_stream(head, tail, seed, client), length)
    ]


@pytest.fixture(scope="module")
def small_cube():
    """A d=5 cube: more tail cuboids than a client's share holds."""
    return sequential_cube(
        gen_binomial(600, 0.4, num_dimensions=5, seed=5), Count()
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_relation(name):
    workload = WORKLOADS[name]
    first = list(make_relation(workload, seed=11))
    assert first == list(make_relation(workload, seed=11))
    assert first != list(make_relation(workload, seed=12))
    assert len(first) == workload.rows


def test_same_seed_same_request_streams(small_cube):
    for client in range(2):
        assert _stream(small_cube, 3, client) == _stream(small_cube, 3, client)
    assert _stream(small_cube, 3, 0) != _stream(small_cube, 4, 0)


def test_stream_shape(small_cube):
    index = CubeIndex(small_cube)
    head = head_specs(index, 3)
    assert len(head) == HEAD_SIZE
    streams = [_stream(small_cube, 3, client, length=2000) for client in (0, 1)]
    tails = [key for stream in streams for kind, key in stream if kind == "tail"]
    # Tail specs are never shared between clients, never repeated and
    # never one of the warm-up specs.
    assert len(tails) == len(set(tails))
    warm = {spec_key(spec) for spec in head + segment_warm_up(index)}
    assert not warm & set(tails)
    # Every block of 28 requests sends each head spec once.
    for stream in streams:
        block = stream[:28]
        assert sorted(key for kind, key in block if kind == "head") == sorted(
            spec_key(spec) for spec in head
        )
