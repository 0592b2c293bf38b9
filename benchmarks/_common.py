"""Shared helpers for the benchmark suite.

Every ``bench_*`` module regenerates one table or figure of the paper: it
runs the workload on the simulated platform, renders the same rows/series
the paper reports, prints them, and archives them under
``benchmarks/results/`` so EXPERIMENTS.md can reference stable artifacts.

:func:`emit_json` additionally archives machine-readable *simulated*
metrics (makespans, halo rows — deterministic pure-float results, not
wall-clock timings) as ``results/<name>.json``; the CI bench-regression
job compares these against the committed ``results/baseline.json`` with
``tools/check_bench_regression.py`` and fails on any growth beyond
float rounding.
"""

from __future__ import annotations

import json
import os

__all__ = ["emit", "emit_json", "fleet_scenario", "RESULTS_DIR",
           "BENCH_SCALE", "CI_STEP"]

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: dataset scale used by all benchmarks (tests use smaller scales)
BENCH_SCALE = 0.35

#: the one ``bench-regression`` job step (``.github/workflows/ci.yml``)
#: that runs every bench calling :func:`emit_json`
CI_STEP = "Benchmark smoke (the nine JSON-emitting bench functions)"


def emit(name: str, text: str) -> None:
    """Print a rendered table and archive it under results/."""
    print()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")


def fleet_scenario(**overrides):
    """A bench fleet described through the CLI's exact code path.

    Returns a :class:`repro.scenario.ClusterArgs`; benches call
    ``.build_platform()`` / ``.build_config(...)`` on it so a fleet
    assembled here and one parsed from ``repro train --nodes ...`` can
    never drift apart. Keyword overrides are the shared CLI vocabulary
    (``nodes``, ``gpus``, ``fault=[...]``, ...).
    """
    from repro.scenario import ClusterArgs

    return ClusterArgs(**overrides)


def emit_json(name: str, metrics: dict,
              config=None, fleet: dict = None) -> None:
    """Archive simulated metrics as results/<name>.json for CI.

    ``metrics`` maps metric name → number. Metrics are *simulated*
    (deterministic across machines) and lower-is-better — the contract
    ``tools/check_bench_regression.py`` enforces against
    ``results/baseline.json``. Host wall clock is never archived here:
    it is gated by the calibrated perf bench (``benchmarks/perf/``).

    The payload's ``"step"`` names the CI job step that produced the
    result (:data:`CI_STEP`); the regression checker echoes it next to
    any failing metric.

    ``config`` records provenance: the producing
    :class:`~repro.core.HongTuConfig` (or any object with ``to_dict``,
    or a plain dict) is archived under ``"config"`` so a regressed
    number can be re-run from the artifact alone via
    ``HongTuConfig.from_dict``. The fleet's shape is the platform's to
    state, not the config's, so ``fleet`` archives the scenario's
    ``nodes`` / ``topology`` / ``oversubscription`` beside it.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    payload = {"bench": name, "step": CI_STEP,
               "metrics": {key: float(value)
                           for key, value in metrics.items()}}
    if config is not None:
        payload["config"] = (config.to_dict()
                             if hasattr(config, "to_dict") else dict(config))
    if fleet is not None:
        payload["fleet"] = dict(fleet)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
