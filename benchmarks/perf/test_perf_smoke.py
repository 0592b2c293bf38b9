"""Smoke test of the perf benchmark (tier-1, a few seconds).

Runs all four workloads at ``--tiny`` size in-process: the benchmark's
contract (``BENCHMARK.json`` ↔ emitted metrics), determinism of the
simulated results and counts, and that tracing leaves ``repro`` exactly
as it found it — so the traced run cannot leak into the rest of the
suite.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.perf import compare, run  # noqa: E402
from benchmarks.perf.metrics import (  # noqa: E402
    END_TO_END,
    NAME_PATTERN,
    PER_LAYER,
    REFERENCE_SECONDS,
    REPORT_ONLY,
)
from benchmarks.perf.tracing import wrapped_callables  # noqa: E402
from benchmarks.perf.workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _run_all(seed, traced):
    return {name: run.run_workload(name, seed=seed, seconds=0.0,
                                   traced=traced, tiny=True)
            for name in run.WORKLOAD_NAMES}


@pytest.fixture(scope="module")
def traced():
    return _run_all(seed=0, traced=True)


@pytest.fixture(scope="module")
def untraced():
    return _run_all(seed=0, traced=False)


@pytest.fixture(scope="module")
def other_seed():
    return _run_all(seed=1, traced=False)


def _sim(record):
    tables = {**END_TO_END, **REPORT_ONLY}
    return {name: value for name, value in record["values"].items()
            if name in tables and tables[name].kind == "sim"}


def test_benchmark_json_matches_the_code(spec):
    assert spec["run_seconds"] == run.RUN_SECONDS
    assert spec["paths"] == ["benchmarks/perf"]
    assert (ROOT / spec["command"][-1]).is_file()
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(name, WORKLOADS[name].why) for name in run.WORKLOAD_NAMES]
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert declared == {name: (metric.unit, metric.better)
                            for name, metric in table.items()}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_declared_metric_is_emitted_with_its_unit(spec, traced, untraced):
    for key, records in (("end_to_end", untraced), ("per_layer", traced)):
        for record in records.values():
            line = json.loads(run.driver_line(record))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["attempted"] >= 1
            assert {name: m["unit"] for name, m in line["metrics"].items()} \
                == {m["name"]: m["unit"] for m in spec[key]}
            for name, metric in line["metrics"].items():
                assert NAME_PATTERN.match(name), name
                assert isinstance(metric["value"], (int, float)), name
            if key == "end_to_end":
                assert all(m["value"] > 0 for m in line["metrics"].values())


def test_no_operation_fails(traced, untraced, other_seed):
    for records in (traced, untraced, other_seed):
        for record in records.values():
            assert record["failures"] == []
            assert record["failed"] == 0 < record["attempted"]


def test_simulated_results_and_counts_are_deterministic(traced, untraced,
                                                        other_seed):
    for name in run.WORKLOAD_NAMES:
        # same seed → identical, and tracing changes nothing it measures
        assert _sim(traced[name]) == _sim(untraced[name])
        assert traced[name]["counts"] == untraced[name]["counts"]
        assert _sim(other_seed[name]) != _sim(untraced[name])


def test_traced_run_splits_every_workload_by_layer(traced):
    dominant = {"train_numerics": "gnn.aggregate_s",
                "train_cluster": "comm.executor_s",
                "plan_fleet": "comm.joint_s",
                "serve_mixed": "runtime.scheduler_s"}
    for name, metric in dominant.items():
        values = traced[name]["values"]
        assert values[metric] > 0, (name, metric)
        assert values["partition.metis_s"] > 0
        assert values["trace.targets_missing"] == 0
    serve = traced["serve_mixed"]["values"]
    assert serve["serving.requests"] == sum(
        serve[f"serving.requests.{h}"] for h in "abc") > 0
    assert serve["serving.cache_hit_share.c"] < serve["serving.cache_hit_share.a"]


def test_tracing_leaves_nothing_wrapped(traced):
    assert traced and wrapped_callables() == []


def test_compare_accepts_a_run_against_itself(traced, untraced):
    def side(records):
        return {"workloads": records}
    bounds = {name: 0.1 for name in END_TO_END}
    same = compare.compare([side(traced)], [side(traced)], bounds, exact=True)
    assert not same["failed"]
    assert {row["verdict"] for row in same["rows"]} <= {"ok", "unresolved"}
    slower = json.loads(json.dumps(side(untraced)))
    slower["workloads"]["plan_fleet"]["values"]["step_host_s"] *= 2
    verdicts = {(row["workload"], row["metric"]): row["verdict"]
                for row in compare.compare([side(untraced)], [slower],
                                           bounds)["rows"]}
    assert verdicts[("plan_fleet", "step_host_s")] == "regressed"


def test_host_seconds_divide_wall_by_the_slowdown_beside_each_part():
    # kernel times the runner "measures": at the start, at the lap, at the end
    kernel = iter([[REFERENCE_SECONDS], [2 * REFERENCE_SECONDS],
                   [4 * REFERENCE_SECONDS]])
    timed = run._Run(None, lambda: next(kernel)).rooted(
        "step", "step:0", lambda lap: lap("first"))
    first_s, _ledger = timed.laps["first"]
    first_wall = first_s * 1.5                      # slow-down (1 + 2) / 2
    rest_s = (timed.wall - first_wall) / 3          # slow-down (2 + 4) / 2
    assert timed.host_s == pytest.approx(first_s + rest_s)
    assert 0 < timed.host_s < timed.wall


def test_help_documents_the_flags():
    text = run.build_parser().format_help()
    for flag in ("--seed", "--traced", "--trace", "--workload", "--tiny",
                 "--out", "--seconds"):
        assert flag in text
