"""Planted wrong answers are caught and counted as failed operations."""

import json

import pytest

from build import BuildChecker, timed_build
from pipeline import Outcome
from serve import LoadResult, Sample, wrong_answers
from workloads import WORKLOADS, make_relation, spec_key


def _load(bodies):
    spec = {"op": "total"}
    key = spec_key(spec)
    samples = [
        Sample(float(i), 0.001, "head", key, 200, digest)
        for i, digest in enumerate(bodies)
    ]
    return LoadResult(
        samples=samples,
        bodies={(key, digest): body for digest, body in bodies.items()},
        specs={key: spec}, wall=1.0, clients=1, peak_connections=1,
    )


def test_wrong_served_answer_is_counted():
    good = json.dumps({"ok": True, "result": 42}).encode()
    bad = json.dumps({"ok": True, "result": 41}).encode()
    load = _load({"good": good, "bad": bad})
    load.samples.append(load.samples[1])
    assert wrong_answers(load, lambda spec: 42) == 2
    assert wrong_answers(_load({"good": good}), lambda spec: 42) == 0
    assert wrong_answers(_load({"junk": b"not json"}), lambda spec: 42) == 1


@pytest.fixture(scope="module")
def small_relation():
    relation = make_relation(WORKLOADS["build-skewed"], seed=2)
    return type(relation)(relation.schema, list(relation)[:800])


def test_correct_build_passes_and_planted_error_fails(small_relation):
    checker = BuildChecker(small_relation)
    run, _seconds = timed_build(small_relation)
    assert checker.check(run) == []

    outcome = Outcome()
    planted, _seconds = timed_build(small_relation)
    (key, value), *_ = planted.cube.items()
    planted.cube._groups[key] = value + 1
    outcome.record(checker.check(planted))
    outcome.record(checker.check(run))
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert "oracle" in outcome.problems[0]


def test_changed_simulated_counters_fail(small_relation):
    checker = BuildChecker(small_relation)
    run, _seconds = timed_build(small_relation)
    assert checker.check(run) == []
    run.metrics.jobs[-1].map_output_bytes += 1
    problems = checker.check(run)
    assert any("simulated counters" in p for p in problems)
