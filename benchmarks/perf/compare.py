"""Compare two sets of perf-benchmark results (``run.py --out`` files).

``python3 benchmarks/perf/compare.py BASE.json NEW.json`` prints, per
(workload, metric): base, new, the ratio with its base, and a verdict
against the metric's regression bound from ``BENCHMARK.json``:

* ``regressed``  — the new median is worse than the base by more than
  the bound;
* ``unresolved`` — not regressed, but a side's run-to-run spread
  (quartile distance over median) exceeds the bound, so "unchanged"
  cannot be claimed;
* ``improved``   — several files per side (``--base … --new …``, paired
  in order), the new side wins at least 9/10 of the pairs (ties count
  for neither) and the medians differ by more than the base's own
  quartile distance;
* ``moved``      — a simulated result differs at all (legitimate only
  for a change to the modelled design);
* ``ok``         — none of the above.

Exit status 1 on any ``regressed`` or a higher ``failed_share``; with
``--exact`` (two runs of one commit on one seed) also on any ``moved``
or any traced count that differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.perf.metrics import END_TO_END, PER_LAYER, REPORT_ONLY  # noqa: E402

__all__ = ["compare", "main"]


def _spread(values: Sequence[float]) -> float:
    """Quartile distance over the median (0 for a single value)."""
    if len(values) < 2:
        return 0.0
    q1, _median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def _samples(records: List[dict], metric: str) -> List[float]:
    """The values one side has for a metric.

    One per file — except that a single file's own step and set-up
    samples stand in for run-to-run spread when it is all there is.
    """
    if len(records) == 1 and metric in ("step_host_s", "setup_s"):
        return records[0]["samples"][metric]
    return [record["values"][metric] for record in records]


def _worse_by(base: float, new: float, better: str) -> float:
    """Share of the base by which ``new`` is worse (negative = better)."""
    if not base:
        return 0.0
    change = (new - base) / base
    return change if better == "lower" else -change


def _verdict(metric: str, spec, bound: Optional[float],
             base: List[dict], new: List[dict]) -> dict:
    base_values = [record["values"][metric] for record in base]
    new_values = [record["values"][metric] for record in new]
    base_median = statistics.median(base_values)
    new_median = statistics.median(new_values)
    worse = _worse_by(base_median, new_median, spec.better)
    spread = max(_spread(_samples(base, metric)), _spread(_samples(new, metric)))
    verdict = "ok"
    if bound is not None and worse > bound:
        verdict = "regressed"
    elif spec.kind == "sim" and base_values != new_values:
        verdict = "moved"
    elif bound is not None and spread > bound:
        verdict = "unresolved"
    elif len(base) > 1 and len(base) == len(new):
        wins = sum(_worse_by(b, n, spec.better) < 0
                   for b, n in zip(base_values, new_values))
        q1, _median, q3 = statistics.quantiles(base_values, n=4)
        if wins >= 0.9 * len(base) and abs(new_median - base_median) > q3 - q1:
            verdict = "improved"
    return {"metric": metric, "unit": spec.unit, "base": base_median,
            "new": new_median, "worse_by": worse, "spread": spread,
            "bound": bound, "verdict": verdict}


def _failed_share(records: List[dict]) -> float:
    return sum(r["failed"] for r in records) / sum(r["attempted"] for r in records)


def compare(base: List[dict], new: List[dict], bounds: Dict[str, float],
            exact: bool = False) -> dict:
    """Compare two sides' result files → rows + whether the gate fails."""
    rows = []
    failed = False
    for workload in base[0]["workloads"]:
        base_records = [side["workloads"][workload] for side in base]
        new_records = [side["workloads"][workload] for side in new
                       if workload in side["workloads"]]
        if len(new_records) != len(new):
            continue
        for metric, spec in {**END_TO_END, **REPORT_ONLY}.items():
            if not all(metric in record["values"]
                       for record in base_records + new_records):
                continue
            row = _verdict(metric, spec, bounds.get(metric),
                           base_records, new_records)
            row["workload"] = workload
            rows.append(row)
            failed |= row["verdict"] == "regressed"
            failed |= exact and row["verdict"] == "moved"
        shares = _failed_share(base_records), _failed_share(new_records)
        rows.append({"workload": workload, "metric": "failed_share",
                     "unit": "share", "base": shares[0], "new": shares[1],
                     "worse_by": shares[1] - shares[0], "spread": 0.0,
                     "bound": 0.0,
                     "verdict": "regressed" if shares[1] > shares[0] else "ok"})
        failed |= shares[1] > shares[0]
        if exact:
            differing = _count_differences(base_records[0], new_records[0])
            rows.append({"workload": workload, "metric": "counts",
                         "unit": "count", "base": 0, "new": len(differing),
                         "worse_by": 0.0, "spread": 0.0, "bound": 0.0,
                         "verdict": "moved" if differing else "ok",
                         "detail": differing})
            failed |= bool(differing)
    return {"rows": rows, "failed": failed}


def _count_differences(base: dict, new: dict) -> List[str]:
    """Per-step counts and count-kind layer metrics that differ."""
    differing = [f"counts[{key}]"
                 for key in sorted(set(base["counts"]) | set(new["counts"]))
                 if base["counts"].get(key) != new["counts"].get(key)]
    differing += [
        metric for metric, spec in PER_LAYER.items()
        if spec.kind == "count"
        and base["values"].get(metric) != new["values"].get(metric)]
    return differing


def _load(paths: Sequence[str]) -> List[dict]:
    sides = []
    for path in paths:
        with open(path) as handle:
            sides.append(json.load(handle))
    return sides


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/perf/compare.py",
        description="Compare perf-benchmark result files against the "
                    "bounds of BENCHMARK.json.")
    parser.add_argument("files", nargs="*", metavar="FILE",
                        help="BASE.json NEW.json (one file per side)")
    parser.add_argument("--base", nargs="+", default=[], metavar="FILE")
    parser.add_argument("--new", nargs="+", default=[], metavar="FILE",
                        help="several files per side, paired in order")
    parser.add_argument("--exact", action="store_true",
                        help="same commit, same seed: simulated metrics "
                             "and traced counts must be identical")
    args = parser.parse_args(argv)
    base_paths, new_paths = args.base, args.new
    if len(args.files) == 2 and not base_paths and not new_paths:
        base_paths, new_paths = args.files[:1], args.files[1:]
    if not base_paths or not new_paths or (args.files and args.base):
        parser.error("give BASE.json NEW.json, or --base FILE… --new FILE…")

    with open(ROOT / "BENCHMARK.json") as handle:
        bounds = {metric["name"]: metric["bound"]
                  for metric in json.load(handle)["end_to_end"]}
    result = compare(_load(base_paths), _load(new_paths), bounds, args.exact)
    print(f"{'workload':<16} {'metric':<20} {'base':>14} {'new':>14} "
          f"{'new/base':>9} {'spread':>7} {'bound':>6}  verdict")
    for row in result["rows"]:
        ratio = row["new"] / row["base"] if row["base"] else float("nan")
        bound = "-" if row["bound"] is None else f"{row['bound']:.2f}"
        print(f"{row['workload']:<16} {row['metric']:<20} "
              f"{row['base']:>14.6g} {row['new']:>14.6g} {ratio:>9.4f} "
              f"{row['spread']:>7.3f} {bound:>6}  {row['verdict']}"
              + (f" {row['detail']}" if row.get("detail") else ""))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
