"""Gate benchmark JSON results against a committed baseline.

The smoke benchmarks archive *simulated* metrics (epoch makespans, halo
rows — deterministic pure-float results) as
``benchmarks/results/<bench>.json`` via ``emit_json``. This tool compares
every metric named in ``benchmarks/results/baseline.json`` against the
freshly produced value and fails when a lower-is-better metric grew at
all: the gated values are deterministic, so the default tolerance is a
rounding-only bound (1e-9 relative) and a placement/scheduling
"optimization" that silently regresses a simulated makespan by a
fraction of a percent turns CI red.

Host wall clock is not gated here: raw seconds are machine-dependent,
and the calibrated perf bench (``benchmarks/perf/``, root
``BENCHMARK.json``) is the one gate for them.

Usage::

    python tools/check_bench_regression.py            # gate vs baseline
    python tools/check_bench_regression.py --update   # rewrite baseline
    python tools/check_bench_regression.py --tolerance 0.10   # looser

Exit codes: 0 ok, 1 regression (or missing result), 2 bad invocation.

Baseline format (committed, reviewed like code)::

    {"<bench>": {"<metric>": <number>, ...}, ...}

Improvements never fail the gate; they print a note suggesting a
baseline refresh so future regressions are measured from the new level.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Optional, Sequence, Tuple

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "results")
BASELINE_PATH = os.path.join(RESULTS_DIR, "baseline.json")
#: relative growth that float rounding (a reordered sum) could explain;
#: the gated metrics are simulated, so anything beyond it is a change
DEFAULT_TOLERANCE = 1e-9

#: (bench, metric, base, current, ratio, allowed) — current/ratio/
#: allowed are None when the metric is missing or the baseline is 0
Regression = Tuple[str, str, float, Optional[float], Optional[float],
                   Optional[float]]


def load_result(bench: str) -> dict[str, Any]:
    """Metrics dict of one freshly produced results/<bench>.json."""
    path = os.path.join(RESULTS_DIR, f"{bench}.json")
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"{path} not found - did the '{bench}' smoke benchmark run?"
        )
    with open(path) as handle:
        payload = json.load(handle)
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError(f"{path} has no 'metrics' object")
    return metrics


def load_step(bench: str) -> Optional[str]:
    """CI job step that produced results/<bench>.json, or None.

    Benches record it via ``emit_json(..., step=...)``; failure output
    names the step so a red gate points straight at the job step to
    re-run or inspect.
    """
    path = os.path.join(RESULTS_DIR, f"{bench}.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        payload = json.load(handle)
    step = payload.get("step")
    return step if isinstance(step, str) and step else None


def discover_results() -> list[str]:
    """Bench names with a results/<name>.json on disk (baseline aside)."""
    if not os.path.isdir(RESULTS_DIR):
        return []
    return sorted(
        name[: -len(".json")]
        for name in os.listdir(RESULTS_DIR)
        if name.endswith(".json") and name != "baseline.json"
    )


def compare(baseline: dict[str, dict[str, float]], tolerance: float
            ) -> list[Regression]:
    """All (bench, metric, base, current, ratio, allowed) regressions."""
    regressions: list[Regression] = []
    improvements = 0
    for bench in discover_results():
        if bench not in baseline:
            print(
                f"note: {bench}.json is not in the baseline - run "
                f"--update to start gating it"
            )
    for bench, expected in sorted(baseline.items()):
        current = load_result(bench)
        for metric, base_value in sorted(expected.items()):
            if not isinstance(base_value, (int, float)) \
                    or isinstance(base_value, bool) \
                    or not math.isfinite(base_value):
                raise ValueError(
                    f"baseline {bench}.{metric} is not a finite number "
                    f"(got {base_value!r}) - fix the baseline, the gate "
                    f"cannot compute a growth ratio against it"
                )
            if metric not in current:
                regressions.append(
                    (bench, metric, base_value, None, None, None))
                continue
            value = current[metric]
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool) or not math.isfinite(value):
                raise ValueError(
                    f"result {bench}.{metric} is not a finite number "
                    f"(got {value!r}) - did the benchmark emit valid JSON "
                    f"metrics?"
                )
            if base_value == 0:
                # No ratio exists against a zero baseline: any growth is
                # an explicit failure (never a ZeroDivisionError), and
                # staying at zero passes.
                grew = value > 0
                ratio = None
            else:
                ratio = value / base_value
                grew = ratio > 1.0 + tolerance
            if grew:
                regressions.append(
                    (bench, metric, base_value, value, ratio, tolerance))
            elif ratio is not None and ratio < 1.0 - tolerance:
                improvements += 1
                print(
                    f"note: {bench}.{metric} improved "
                    f"{base_value:.6g} -> {value:.6g} ({ratio:.2f}x); "
                    f"consider refreshing the baseline"
                )
    if improvements:
        print(f"{improvements} metric(s) improved beyond tolerance")
    return regressions


def update_baseline(baseline_path: str) -> None:
    """Rewrite the baseline from every results file on disk.

    Discovery-based on purpose: a newly added smoke bench enters the
    baseline on the next ``--update`` with no hand-seeding. The flip
    side — a previously gated bench whose JSON was not produced by this
    run silently falling out of the baseline — is loud instead: every
    dropped bench prints a warning, so a bench that stopped emitting
    JSON cannot un-gate itself unnoticed.
    """
    benches = discover_results()
    if not benches:
        raise FileNotFoundError(
            f"no results/<bench>.json files under {RESULTS_DIR} - run the "
            f"smoke benchmarks first"
        )
    if os.path.exists(baseline_path):
        with open(baseline_path) as handle:
            previous = json.load(handle)
        for bench in sorted(set(previous) - set(benches)):
            print(
                f"warning: dropping '{bench}' from the baseline - no "
                f"results/{bench}.json was produced; if the bench still "
                f"exists, rerun it before --update",
                file=sys.stderr,
            )
    refreshed = {bench: load_result(bench) for bench in benches}
    with open(baseline_path, "w") as handle:
        json.dump(refreshed, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"baseline refreshed: {baseline_path} "
        f"({len(refreshed)} benchmark(s))"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=(__doc__ or "").splitlines()[0])
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed relative growth of lower-is-better metrics "
        f"(default {DEFAULT_TOLERANCE:g}, rounding only)",
    )
    parser.add_argument(
        "--baseline",
        default=BASELINE_PATH,
        help="baseline JSON path (default benchmarks/results/baseline.json)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from the current results instead of gating",
    )
    args = parser.parse_args(argv)
    if args.tolerance < 0:
        parser.error("tolerance must be >= 0")

    if args.update:
        try:
            update_baseline(args.baseline)
        except (FileNotFoundError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        return 0

    if not os.path.exists(args.baseline):
        print(f"error: baseline {args.baseline} not found", file=sys.stderr)
        return 2
    with open(args.baseline) as handle:
        baseline = json.load(handle)

    try:
        regressions = compare(baseline, args.tolerance)
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    checked = sum(len(metrics) for metrics in baseline.values())
    if not regressions:
        print(
            f"bench regression gate: {checked} metric(s) across "
            f"{len(baseline)} benchmark(s) within {args.tolerance:g}"
        )
        return 0
    for bench, metric, base_value, value, ratio, allowed in regressions:
        step = load_step(bench)
        produced_by = (f" [produced by job step {step!r}]"
                       if step else "")
        if value is None:
            print(
                f"REGRESSION {bench}.{metric}: metric missing from "
                f"results{produced_by}",
                file=sys.stderr,
            )
        elif ratio is None:
            print(
                f"REGRESSION {bench}.{metric}: grew from a zero baseline "
                f"to {value:.6g} (no growth ratio exists against 0; "
                f"refresh the baseline with --update if "
                f"intentional){produced_by}",
                file=sys.stderr,
            )
        else:
            print(
                f"REGRESSION {bench}.{metric}: {base_value:.6g} -> "
                f"{value:.6g} ({ratio:.6g}x > 1 + "
                f"{allowed:g}){produced_by}",
                file=sys.stderr,
            )
    return 1


if __name__ == "__main__":
    sys.exit(main())
