"""TimelineAnalysis over telemetry timeline artifacts."""

import pytest

from repro.observability import Telemetry, TimelineAnalysis, TimelineError


def sample_telemetry():
    telemetry = Telemetry(run_id="run-1")
    telemetry.counter("repro_jobs_total", "jobs").inc(2)
    telemetry.sample("shuffle_bytes", 100, labels={"job": "a"}, at=0.0)
    telemetry.sample("shuffle_bytes", 300, labels={"job": "b"}, at=10.0)
    telemetry.sample("driver_rss_bytes", 4096, at=10.0, source="host")
    return telemetry


def sample_records():
    return sample_telemetry().timeline_records(clock=10.0)


class TestLoading:
    def test_from_file_round_trips(self, tmp_path):
        path = tmp_path / "timeline.jsonl"
        sample_telemetry().write_timeline(path, clock=10.0)
        analysis = TimelineAnalysis.from_file(path)
        assert analysis.meta["run_id"] == "run-1"
        assert len(analysis.samples) == 3
        assert analysis.has_registry()

    def test_unknown_record_type_rejected(self):
        with pytest.raises(TimelineError, match="unknown record type"):
            TimelineAnalysis([{"type": "mystery"}])

    def test_sample_missing_fields_rejected(self):
        with pytest.raises(TimelineError, match="series"):
            TimelineAnalysis([{"type": "sample", "value": 1}])

    def test_invalid_json_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta"}\nnot json\n')
        with pytest.raises(TimelineError, match="not JSON"):
            TimelineAnalysis.from_file(path)


class TestSeriesAccess:
    def test_series_names_sorted(self):
        analysis = TimelineAnalysis(sample_records())
        assert analysis.series_names() == [
            "driver_rss_bytes", "shuffle_bytes",
        ]

    def test_label_filter_is_exact(self):
        analysis = TimelineAnalysis(sample_records())
        only_a = analysis.series("shuffle_bytes", labels={"job": "a"})
        assert [s["value"] for s in only_a] == [100]
        assert analysis.series("shuffle_bytes", labels={"job": "z"}) == []

    def test_points_are_time_value_pairs(self):
        analysis = TimelineAnalysis(sample_records())
        assert analysis.points("shuffle_bytes") == [(0.0, 100), (10.0, 300)]

    def test_sim_samples_exclude_host_source(self):
        analysis = TimelineAnalysis(sample_records())
        names = {s["series"] for s in analysis.sim_samples()}
        assert "driver_rss_bytes" not in names
        assert "shuffle_bytes" in names


class TestRegistryRebuild:
    def test_exposition_matches_live_registry(self):
        telemetry = sample_telemetry()
        analysis = TimelineAnalysis(telemetry.timeline_records(clock=10.0))
        assert (
            analysis.registry().prometheus_text()
            == telemetry.prometheus_text()
        )

    def test_missing_registry_dump_raises(self):
        analysis = TimelineAnalysis(
            [{"type": "sample", "series": "s", "t": 0.0, "value": 1}]
        )
        assert not analysis.has_registry()
        with pytest.raises(TimelineError, match="registry"):
            analysis.registry()


class TestSummaries:
    def test_series_summary_extrema(self):
        analysis = TimelineAnalysis(sample_records())
        summary = analysis.series_summary("shuffle_bytes")
        assert summary["samples"] == 2
        assert summary["label_sets"] == 2
        assert summary["min"] == 100
        assert summary["max"] == 300
        assert summary["last"] == 300
        assert summary["sources"] == ["sim"]

    def test_summary_dict_and_text_agree_on_counts(self):
        analysis = TimelineAnalysis(sample_records())
        digest = analysis.summary_dict()
        assert digest["num_samples"] == 3
        assert len(digest["series"]) == 2
        text = analysis.format_summary()
        assert "3 samples across 2 series" in text
        assert "shuffle_bytes" in text
