"""Tests for tools/check_bench_regression.py (the CI perf gate).

The tool itself runs in CI after the smoke benchmarks; these tests pin
its contract on synthetic fixtures so a refactor cannot silently change
what "regression" means: >tolerance growth of a lower-is-better metric
fails, improvement and within-tolerance noise pass, a missing metric or
results file fails, ``--update`` rewrites the baseline from current
results.
"""

import importlib.util
import json
import os
import sys

import pytest

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools",
                    "check_bench_regression.py")

spec = importlib.util.spec_from_file_location("check_bench_regression", TOOL)
tool = importlib.util.module_from_spec(spec)
sys.modules["check_bench_regression"] = tool
spec.loader.exec_module(tool)


@pytest.fixture()
def results_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(tool, "RESULTS_DIR", str(tmp_path))
    return tmp_path


def write_result(results_dir, bench, metrics):
    path = results_dir / f"{bench}.json"
    path.write_text(json.dumps({"bench": bench, "metrics": metrics}))
    return path


def write_baseline(results_dir, baseline):
    path = results_dir / "baseline.json"
    path.write_text(json.dumps(baseline))
    return str(path)


class TestCompare:
    def test_within_tolerance_passes(self, results_dir):
        write_result(results_dir, "smoke", {"makespan_seconds": 1.10})
        baseline = {"smoke": {"makespan_seconds": 1.0}}
        assert tool.compare(baseline, tolerance=0.15) == []

    def test_regression_beyond_tolerance_fails(self, results_dir):
        write_result(results_dir, "smoke", {"makespan_seconds": 1.2})
        baseline = {"smoke": {"makespan_seconds": 1.0}}
        regressions = tool.compare(baseline, tolerance=0.15)
        assert len(regressions) == 1
        bench, metric, base, value, ratio, allowed = regressions[0]
        assert (bench, metric) == ("smoke", "makespan_seconds")
        assert value == pytest.approx(1.2)
        assert ratio == pytest.approx(1.2)
        assert allowed == 0.15

    def test_improvement_never_fails(self, results_dir, capsys):
        write_result(results_dir, "smoke", {"makespan_seconds": 0.5})
        baseline = {"smoke": {"makespan_seconds": 1.0}}
        assert tool.compare(baseline, tolerance=0.15) == []
        assert "improved" in capsys.readouterr().out

    def test_missing_metric_is_a_regression(self, results_dir):
        write_result(results_dir, "smoke", {"other": 1.0})
        baseline = {"smoke": {"makespan_seconds": 1.0}}
        regressions = tool.compare(baseline, tolerance=0.15)
        assert regressions[0][3] is None

    def test_missing_results_file_raises(self, results_dir):
        baseline = {"never_ran": {"makespan_seconds": 1.0}}
        with pytest.raises(FileNotFoundError):
            tool.compare(baseline, tolerance=0.15)

    def test_zero_baseline_only_fails_on_growth(self, results_dir):
        write_result(results_dir, "smoke", {"rows": 0.0})
        assert tool.compare({"smoke": {"rows": 0.0}}, tolerance=0.15) == []
        write_result(results_dir, "smoke", {"rows": 3.0})
        assert len(tool.compare({"smoke": {"rows": 0.0}},
                                tolerance=0.15)) == 1

    def test_zero_baseline_growth_has_no_ratio_and_a_clear_message(
            self, results_dir, capsys):
        """A zero baseline can never divide: the regression is reported
        with ratio None and main() prints an explicit explanation
        instead of crashing or rendering 'infx'."""
        write_result(results_dir, "smoke", {"rows": 3.0})
        regressions = tool.compare({"smoke": {"rows": 0.0}}, tolerance=0.15)
        assert regressions == [("smoke", "rows", 0.0, 3.0, None, 0.15)]
        path = write_baseline(results_dir, {"smoke": {"rows": 0.0}})
        assert tool.main(["--baseline", path]) == 1
        err = capsys.readouterr().err
        assert "zero baseline" in err
        assert "inf" not in err

    def test_non_numeric_baseline_fails_with_clear_message(
            self, results_dir, capsys):
        write_result(results_dir, "smoke", {"rows": 3.0})
        for bad in (None, "fast", float("nan"), True):
            with pytest.raises(ValueError, match="not a finite number"):
                tool.compare({"smoke": {"rows": bad}}, tolerance=0.15)
        path = write_baseline(results_dir, {"smoke": {"rows": None}})
        assert tool.main(["--baseline", path]) == 1
        assert "not a finite number" in capsys.readouterr().err

    def test_non_numeric_result_fails_with_clear_message(self, results_dir):
        write_result(results_dir, "smoke", {"rows": "oops"})
        with pytest.raises(ValueError, match="not a finite number"):
            tool.compare({"smoke": {"rows": 1.0}}, tolerance=0.15)


class TestMain:
    def test_gate_passes_and_fails_by_exit_code(self, results_dir):
        write_result(results_dir, "smoke", {"makespan_seconds": 1.0})
        path = write_baseline(results_dir, {"smoke":
                                            {"makespan_seconds": 1.0}})
        assert tool.main(["--baseline", path]) == 0
        write_result(results_dir, "smoke", {"makespan_seconds": 2.0})
        assert tool.main(["--baseline", path]) == 1

    def test_missing_baseline_is_usage_error(self, results_dir):
        assert tool.main(["--baseline",
                          str(results_dir / "absent.json")]) == 2

    def test_update_rewrites_baseline(self, results_dir):
        write_result(results_dir, "smoke", {"makespan_seconds": 2.0})
        path = write_baseline(results_dir, {"smoke":
                                            {"makespan_seconds": 1.0}})
        assert tool.main(["--baseline", path, "--update"]) == 0
        refreshed = json.loads((results_dir / "baseline.json").read_text())
        assert refreshed["smoke"]["makespan_seconds"] == 2.0
        # the refreshed baseline gates clean
        assert tool.main(["--baseline", path]) == 0

    def test_update_discovers_new_benches(self, results_dir):
        """A freshly added smoke bench enters the baseline on --update
        without hand-seeding (and never via the baseline.json itself)."""
        write_result(results_dir, "old", {"makespan_seconds": 1.0})
        write_result(results_dir, "brand_new", {"rows": 7.0})
        path = write_baseline(results_dir, {"old":
                                            {"makespan_seconds": 1.0}})
        assert tool.main(["--baseline", path, "--update"]) == 0
        refreshed = json.loads((results_dir / "baseline.json").read_text())
        assert set(refreshed) == {"old", "brand_new"}
        assert refreshed["brand_new"]["rows"] == 7.0

    def test_untracked_result_prints_note(self, results_dir, capsys):
        write_result(results_dir, "tracked", {"makespan_seconds": 1.0})
        write_result(results_dir, "untracked", {"rows": 1.0})
        path = write_baseline(results_dir, {"tracked":
                                            {"makespan_seconds": 1.0}})
        assert tool.main(["--baseline", path]) == 0
        assert "untracked.json is not in the baseline" \
            in capsys.readouterr().out

    def test_update_without_results_fails(self, results_dir):
        path = str(results_dir / "baseline.json")
        assert tool.main(["--baseline", path, "--update"]) == 1

    def test_update_warns_when_dropping_a_gated_bench(self, results_dir,
                                                      capsys):
        """A bench that stopped emitting JSON cannot fall out of the
        baseline silently: --update keeps working but warns per drop."""
        write_result(results_dir, "kept", {"rows": 1.0})
        path = write_baseline(results_dir, {
            "kept": {"rows": 1.0},
            "vanished": {"makespan_seconds": 2.0},
        })
        assert tool.main(["--baseline", path, "--update"]) == 0
        err = capsys.readouterr().err
        assert "dropping 'vanished'" in err
        refreshed = json.loads((results_dir / "baseline.json").read_text())
        assert set(refreshed) == {"kept"}

    def test_update_with_unchanged_set_warns_nothing(self, results_dir,
                                                     capsys):
        write_result(results_dir, "kept", {"rows": 1.0})
        path = write_baseline(results_dir, {"kept": {"rows": 1.0}})
        assert tool.main(["--baseline", path, "--update"]) == 0
        assert "dropping" not in capsys.readouterr().err

    def test_repo_baseline_is_well_formed(self):
        """The committed baseline must exist and name real metrics (the
        result JSONs themselves are CI-generated, not committed)."""
        baseline_path = os.path.join(os.path.dirname(__file__), "..",
                                     "benchmarks", "results",
                                     "baseline.json")
        assert os.path.exists(baseline_path)
        with open(baseline_path) as handle:
            baseline = json.load(handle)
        assert baseline, "baseline.json must name at least one benchmark"
        for bench, metrics in baseline.items():
            assert metrics, f"{bench} has no metrics"
            for metric, value in metrics.items():
                assert isinstance(value, (int, float)), (bench, metric)
