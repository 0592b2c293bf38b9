"""Tests for the benchmark helpers, the reporting tables and the bench surface."""

import ast
import json
import os
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.bench import format_bytes, format_seconds, render_table
from repro.core import HongTuConfig, estimate_for_model
from repro.errors import DeviceOutOfMemoryError
from repro.graph import load_dataset
from repro.hardware import TimeBreakdown
from repro.scenario import ClusterArgs

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks import _common  # noqa: E402
from benchmarks._common import (  # noqa: E402
    RunOutcome,
    capacity_limited_platform,
    paper_model,
    run_or_oom,
    speedup_vs,
)

BENCH_FILES = sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))


class FakeResult:
    def __init__(self, seconds):
        self.epoch_seconds = seconds
        self.clock = TimeBreakdown()
        self.peak_gpu_bytes = 123
        self.loss = 1.0


class FakeTrainer:
    def __init__(self, seconds=1.0):
        self.seconds = seconds

    def train_epoch(self):
        return FakeResult(self.seconds)


class ExplodingTrainer:
    def train_epoch(self):
        raise DeviceOutOfMemoryError("gpu0", 10, 5, 12)


class TestRunOrOom:
    def test_success(self):
        outcome = run_or_oom("x", lambda: FakeTrainer(2.0), epochs=3)
        assert not outcome.oom
        assert outcome.epoch_seconds == 2.0
        assert outcome.peak_bytes == 123
        assert outcome.loss == 1.0

    def test_oom_at_construction(self):
        def factory():
            raise DeviceOutOfMemoryError("gpu0", 10, 5, 12)

        outcome = run_or_oom("x", factory)
        assert outcome.oom
        assert outcome.cell() == "OOM"

    def test_oom_during_training(self):
        outcome = run_or_oom("x", ExplodingTrainer)
        assert outcome.oom

    def test_cell_formatting(self):
        outcome = RunOutcome("x", epoch_seconds=0.12345)
        assert outcome.cell(2) == "0.12"

    def test_speedup(self):
        ref = RunOutcome("ref", epoch_seconds=10.0)
        fast = RunOutcome("fast", epoch_seconds=2.0)
        assert speedup_vs(ref, fast) == "5.0x"

    def test_speedup_with_oom(self):
        ref = RunOutcome("ref", oom=True)
        fast = RunOutcome("fast", epoch_seconds=2.0)
        assert speedup_vs(ref, fast) == "-"

    def test_speedup_against_zero_time(self):
        ref = RunOutcome("ref", epoch_seconds=10.0)
        instant = RunOutcome("instant", epoch_seconds=0.0)
        assert speedup_vs(ref, instant) == "-"

    def test_success_averages_epochs(self):
        class SlowingTrainer:
            def __init__(self):
                self.epochs = 0

            def train_epoch(self):
                self.epochs += 1
                return FakeResult(float(self.epochs))

        outcome = run_or_oom("x", SlowingTrainer, epochs=3)
        assert outcome.epoch_seconds == 2.0
        assert outcome.label == "x"


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(["a", "bbbb"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_render_table_title(self):
        text = render_table(["a"], [[1]], title="My Table")
        assert text.startswith("My Table")

    def test_format_seconds_ranges(self):
        assert format_seconds(1e-6).endswith("us")
        assert format_seconds(1e-2).endswith("ms")
        assert format_seconds(2.0) == "2.00s"

    def test_format_bytes_ranges(self):
        assert format_bytes(512) == "512.00B"
        assert format_bytes(2048) == "2.00KB"
        assert format_bytes(3 * 1024 ** 3) == "3.00GB"


class TestWorkloads:
    def test_bench_model_dims(self):
        graph = load_dataset("products_sim", scale=0.1)
        model = paper_model("gcn", graph, 3, 32)
        assert model.dims == [graph.feature_dim, 32, 32, graph.num_classes]

    def test_capacity_limited_platform(self):
        graph = load_dataset("products_sim", scale=0.1)
        model = paper_model("gcn", graph, 2, 16)
        platform = capacity_limited_platform(graph, model, 0.5)
        estimate = estimate_for_model(graph.num_vertices, graph.num_edges,
                                      model)
        assert platform.spec.gpu.memory_bytes == \
            int(estimate.total_bytes * 0.5)

    def test_capacity_limited_platform_gpu_count(self):
        graph = load_dataset("products_sim", scale=0.1)
        model = paper_model("gcn", graph, 2, 16)
        platform = capacity_limited_platform(graph, model, 0.5, num_gpus=2)
        assert platform.num_gpus == 2

    def test_paper_model_is_the_scenario_model(self):
        """The F → hidden×(L−1) → C model has one home:
        ``ClusterArgs.build_model``."""
        graph = load_dataset("products_sim", scale=0.1)
        model = paper_model("gat", graph, 3, 16, seed=2)
        scenario = ClusterArgs(arch="gat", layers=3, hidden_dim=16, seed=2)
        expected = scenario.build_model(graph)
        assert model.dims == expected.dims
        weights, reference = model.state_dict(), expected.state_dict()
        assert weights.keys() == reference.keys()
        for name in weights:
            np.testing.assert_array_equal(weights[name], reference[name])


class TestEmit:
    def test_emit_archives_text(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(_common, "RESULTS_DIR", str(tmp_path))
        _common.emit("table", "a | b")
        assert (tmp_path / "table.txt").read_text() == "a | b\n"
        assert "a | b" in capsys.readouterr().out

    def test_emit_json_payload(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_common, "RESULTS_DIR", str(tmp_path))
        _common.emit_json("fig", {"makespan": 2, "halo_rows": 3.5},
                          config={"chunks": 4}, fleet={"nodes": 2})
        payload = json.loads((tmp_path / "fig.json").read_text())
        assert payload == {
            "bench": "fig", "step": _common.CI_STEP,
            "metrics": {"makespan": 2.0, "halo_rows": 3.5},
            "config": {"chunks": 4}, "fleet": {"nodes": 2},
        }
        assert isinstance(payload["metrics"]["makespan"], float)

    @pytest.mark.parametrize("path", [
        pytest.param(path, id=path.name)
        for path in sorted(Path(_common.RESULTS_DIR).glob("*.json"))
        if "config" in json.loads(path.read_text())
    ])
    def test_archived_config_names_every_config_field(self, path):
        """``emit_json``'s promise: an archived result names the settings
        that produced it, one entry per :class:`HongTuConfig` field."""
        config = json.loads(path.read_text())["config"]
        assert set(config) == {spec.name for spec in fields(HongTuConfig)}


def _module_level_names(tree):
    """(name, bound_by_def) for every name a module's top level binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, True
            continue
        for child in ast.walk(node):
            if isinstance(child, ast.alias):
                yield (child.asname or child.name).split(".")[0], False
            elif isinstance(child, ast.Name) \
                    and isinstance(child.ctx, ast.Store):
                yield child.id, False
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)):
                yield child.name, False


class TestBenchSurface:
    """Benches are run with ``-o python_functions='bench_*'``; that
    pattern may only ever collect a bench."""

    def test_bench_names_are_functions_defined_in_their_module(self):
        assert BENCH_FILES
        offenders = []
        for path in BENCH_FILES:
            tree = ast.parse(path.read_text(), filename=str(path))
            offenders.extend(
                f"{path.name}: {name}"
                for name, by_def in _module_level_names(tree)
                if name == "*" or (name.startswith("bench_") and not by_def))
        assert not offenders, offenders

    def test_bench_files_have_no_command_line(self):
        """Every bench runs one way, as a pytest function."""
        offenders = [path.name for path in BENCH_FILES
                     if "argparse" in path.read_text()
                     or "__main__" in path.read_text()]
        assert not offenders, offenders

    @staticmethod
    def _smoke_step_argv():
        """The ``bench-regression`` job's smoke command, as the argv that
        follows ``python -m pytest``."""
        workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        step = workflow.split("- name: Benchmark smoke", 1)[1]
        command = step.split("run: >", 1)[1].split("- name:", 1)[0]
        argv = shlex.split(" ".join(
            line.strip() for line in command.splitlines()
            if not line.strip().startswith("#")))
        assert argv[:4] == ["PYTHONPATH=src", "python", "-m", "pytest"], argv
        return argv[4:]

    def test_smoke_job_selects_exactly_the_archiving_benches(self):
        """The CI smoke step's ``-k`` expression collects every bench
        that archives metrics for the regression gate and nothing else,
        and every archived name has a baseline entry — a renamed or
        added bench cannot silently drop out of, or widen, the gate."""
        archiving = {}
        for path in BENCH_FILES:
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in tree.body:
                if not (isinstance(node, ast.FunctionDef)
                        and node.name.startswith("bench_")):
                    continue
                names = [call.args[0].value for call in ast.walk(node)
                         if isinstance(call, ast.Call)
                         and getattr(call.func, "id", None) == "emit_json"]
                if names:
                    archiving[f"benchmarks/{path.name}::{node.name}"] = names
        collected = subprocess.run(
            [sys.executable, "-m", "pytest", *self._smoke_step_argv(),
             "--co", "-p", "no:cacheprovider"],
            cwd=REPO_ROOT, env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True, text=True, check=True).stdout
        selected = {line for line in collected.splitlines() if "::" in line}
        assert selected == set(archiving)
        baseline = json.loads(
            (REPO_ROOT / "benchmarks" / "results" / "baseline.json")
            .read_text())
        archived = [name for names in archiving.values() for name in names]
        assert sorted(archived) == sorted(set(archived))
        assert set(archived) <= set(baseline)
