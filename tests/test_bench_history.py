"""Tests for the benchmark-trajectory tool (``tools/bench_history.py``)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import bench_history  # noqa: E402


class TestHeadlineValue:
    def test_hotpath_reads_cache_improvement(self):
        assert bench_history.headline_value(
            "hotpath", {"cache_improvement": 1.73}
        ) == 1.73

    def test_obs_events_overhead_flattens_nested_run(self):
        entry = {"run": {"events_enabled_overhead_pct": 1.39}}
        assert bench_history.headline_value("obs_events_overhead", entry) == 1.39

    def test_parallel_speedup_takes_best_workload(self):
        entry = {"workloads": [{"speedup": 0.26}, {"speedup": 0.60}]}
        assert bench_history.headline_value("parallel_speedup", entry) == 0.60

    def test_unknown_benchmark_has_no_headline(self):
        assert bench_history.headline_value("mystery", {"x": 1}) is None

    def test_missing_or_non_numeric_value_is_none(self):
        assert bench_history.headline_value("hotpath", {}) is None
        assert bench_history.headline_value(
            "hotpath", {"cache_improvement": "fast"}
        ) is None


class TestPassedFlag:
    def test_reads_either_spelling(self):
        assert bench_history.passed_flag({"passed": True}) is True
        assert bench_history.passed_flag({"within_threshold": False}) is False
        assert bench_history.passed_flag({}) is None


class TestRegressionFlag:
    def make(self, value, passed=True):
        return bench_history.Step(
            commit="abc", subject="s", value=value, passed=passed
        )

    def trend(self, higher_is_better):
        return bench_history.Trend(
            benchmark="b", metric="m", higher_is_better=higher_is_better
        )

    def test_higher_is_better_flags_big_drop(self):
        trend = self.trend(True)
        assert bench_history._is_regression(
            trend, self.make(1.0), self.make(0.85), tolerance_pct=10.0
        )

    def test_higher_is_better_tolerates_small_drop(self):
        trend = self.trend(True)
        assert not bench_history._is_regression(
            trend, self.make(1.0), self.make(0.95), tolerance_pct=10.0
        )

    def test_lower_is_better_flags_big_rise(self):
        trend = self.trend(False)
        assert bench_history._is_regression(
            trend, self.make(1.0), self.make(1.2), tolerance_pct=10.0
        )

    def test_first_step_never_flags(self):
        trend = self.trend(True)
        assert not bench_history._is_regression(
            trend, None, self.make(1.0), tolerance_pct=10.0
        )

    def test_pass_to_fail_always_flags(self):
        trend = self.trend(True)
        assert bench_history._is_regression(
            trend,
            self.make(1.0, passed=True),
            self.make(1.0, passed=False),
            tolerance_pct=10.0,
        )


class TestAgainstRealHistory:
    """The tool runs end-to-end against this repository's actual history."""

    def test_collects_committed_benchmarks(self):
        trends = bench_history.collect_trends(tolerance_pct=10.0)
        names = {trend.benchmark for trend in trends}
        assert "hotpath" in names
        assert "obs_overhead" in names

    def test_working_tree_events_artifact_is_included(self):
        trends = bench_history.collect_trends(tolerance_pct=10.0)
        by_name = {trend.benchmark: trend for trend in trends}
        events = by_name.get("obs_events_overhead")
        assert events is not None, "BENCH_obs_events_overhead.json not picked up"
        assert events.steps[-1].passed is True

    def test_format_renders_one_table_per_benchmark(self):
        trends = bench_history.collect_trends(tolerance_pct=10.0)
        text = bench_history.format_trends(trends)
        for trend in trends:
            assert trend.benchmark in text

    def test_cli_exit_zero_and_json_output(self, tmp_path):
        out = tmp_path / "trends.json"
        completed = subprocess.run(
            [sys.executable, str(TOOLS / "bench_history.py"), "--json", str(out)],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stderr
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert isinstance(payload, list) and payload
        for trend in payload:
            assert {"benchmark", "metric", "higher_is_better", "steps"} <= set(trend)
