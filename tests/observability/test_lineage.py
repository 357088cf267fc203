"""The shuffle flight recorder: stamping, serialization, artifact I/O."""

from types import SimpleNamespace

import pytest

from repro.observability import (
    LINEAGE_RECORD_TYPES,
    LINEAGE_VERSION,
    LineageRecorder,
    cuboid_of_mask_key,
    load_lineage,
)


def metrics(seconds=2.5, aborted=False):
    return SimpleNamespace(total_seconds=seconds, aborted=aborted)


def flow_job(name="job", num_reducers=2):
    return {
        "job": name,
        "num_reducers": num_reducers,
        "map_tasks": 2,
        "memory_records": 16,
        "completed_reducers": [],
        "maps": [
            {"task": 0, "records_in": 5, "records_out": 10, "seconds": 1.0},
            {"task": 1, "records_in": 5, "records_out": 8, "seconds": 1.1},
        ],
        "flows": [
            {"map_task": 0, "reducer": 0, "records": 6, "bytes": 60,
             "cuboids": {3: 4, 1: 2}},
            {"map_task": 1, "reducer": 1, "records": 12, "bytes": 120,
             "cuboids": {3: 12}},
        ],
        "reduces": [
            {"task": 0, "records_in": 6, "records_out": 3, "seconds": 0.5},
            {"task": 1, "records_in": 12, "records_out": 6, "seconds": 0.9},
        ],
    }


class TestRecorder:
    def test_begin_stamps_execution_and_clock(self):
        recorder = LineageRecorder(run_id="r")
        first, second = flow_job(), flow_job()
        recorder.begin_job(first, t0=0.0)
        recorder.finish_job(first, metrics())
        recorder.begin_job(second, t0=2.5)
        assert first["execution"] == 0
        assert first["t0"] == 0.0
        assert second["execution"] == 1
        assert second["t0"] == 2.5

    def test_finish_records_duration_and_abort(self):
        recorder = LineageRecorder()
        job = flow_job()
        recorder.begin_job(job, t0=0.0)
        recorder.finish_job(job, metrics(seconds=1.25, aborted=True))
        assert job["seconds"] == 1.25
        assert job["aborted"] is True
        assert recorder.jobs == [job]

    def test_records_follow_document_order(self):
        recorder = LineageRecorder(run_id="r")
        job = flow_job()
        recorder.begin_job(job, t0=0.0)
        recorder.finish_job(job, metrics())
        recorder.alerts.append(
            {"type": "alert", "kind": "skew_alert", "job": "job",
             "execution": 0, "at": 2.5, "reducer": 1}
        )
        records = recorder.to_records()
        types = [record["type"] for record in records]
        assert types == [
            "lineage_meta", "job", "map_task", "map_task",
            "flow", "flow", "reduce_task", "reduce_task", "alert",
        ]
        assert set(types) <= set(LINEAGE_RECORD_TYPES)
        assert records[0]["version"] == LINEAGE_VERSION
        assert records[0]["run_id"] == "r"
        # Cuboid masks serialize as string keys (JSON object keys).
        flow = next(r for r in records if r["type"] == "flow")
        assert flow["cuboids"] == {"3": 4, "1": 2}

    def test_write_then_load_round_trips(self, tmp_path):
        recorder = LineageRecorder(run_id="round-trip")
        job = flow_job()
        recorder.begin_job(job, t0=0.0)
        recorder.finish_job(job, metrics())
        path = str(tmp_path / "run.lineage.jsonl")
        recorder.write(path)
        assert load_lineage(path) == recorder.to_records()


    def test_null_lineage_is_inert(self, detached_run):
        """With no recorder on the hub, the watchdog still gets the flow
        record it needs and alerts reach the trace."""
        observers, records = detached_run("lineage")
        alerts = observers.watchdog.alerts
        assert alerts
        traced = {record["kind"] for record in records}
        assert {alert["kind"] for alert in alerts} <= traced

class TestCuboidClassifier:
    def test_mask_key_classifier(self):
        assert cuboid_of_mask_key((5, (1, 2))) == 5
        assert cuboid_of_mask_key((0b11, (7,), 2)) == 3


class TestLoadLineage:
    def write(self, tmp_path, text):
        path = tmp_path / "artifact.jsonl"
        path.write_text(text)
        return str(path)

    def test_truncated_line_names_the_line(self, tmp_path):
        path = self.write(
            tmp_path,
            '{"type": "lineage_meta", "version": 1, "run_id": "r"}\n'
            '{"type": "job", "job": "sp-cu',
        )
        with pytest.raises(ValueError, match=r":2: not valid JSON"):
            load_lineage(path)

    def test_scalar_line_names_the_line(self, tmp_path):
        path = self.write(
            tmp_path,
            '{"type": "lineage_meta", "version": 1, "run_id": "r"}\n42\n',
        )
        with pytest.raises(ValueError, match=r":2: .*got int"):
            load_lineage(path)

    def test_empty_file_rejected(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(ValueError, match="empty lineage artifact"):
            load_lineage(path)

    def test_wrong_head_rejected(self, tmp_path):
        path = self.write(tmp_path, '{"type": "job", "job": "x"}\n')
        with pytest.raises(ValueError, match="first record must be"):
            load_lineage(path)
