"""Profile one steady-state step of a perf-benchmark workload.

Sizing a ``perf_opt`` target means asking where one step of a
``benchmarks/perf`` workload spends its host time, function by function.
This runs the workload the way ``benchmarks/perf/run.py`` does — set-up,
one untimed warm-up step — and then one more step under ``cProfile``,
printing the cumulative-time and the self-time tables.

``cProfile`` charges every Python call and nothing inside native code, so
the tables shift weight toward many-small-call code: find candidates
here, then measure with ``benchmarks/perf/run.py`` (profiling off).

Usage::

    python tools/profile_step.py --workload plan_fleet
    python tools/profile_step.py --workload train_cluster --seed 3 --top 40
    python tools/profile_step.py --workload plan_fleet --tiny   # smoke size
    python tools/profile_step.py --workload serve_mixed --callers full

``--callers PATTERN`` adds who called the functions whose name matches
the regular expression ``PATTERN``, and how often — which of its callers a
hot NumPy routine's calls come from.

The measuring process carries the same environment pins as the
benchmark's child (one BLAS thread, fixed hash seed, no malloc trimming);
when they are not set the script re-runs itself with them.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parents[1]
for _entry in (ROOT, ROOT / "src"):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

from benchmarks.perf.run import _CHILD_ENV, WORKLOAD_NAMES  # noqa: E402


def profile_step(name: str, seed: int, tiny: bool) -> pstats.Stats:
    """Set up ``name``, warm it up, and profile its next step."""
    from benchmarks.perf.workloads import WORKLOADS

    workload = WORKLOADS[name]
    state = workload.setup(seed, tiny)

    def no_lap(label: Optional[str]) -> None:
        """The runner re-calibrates at a lap; a profile has nothing to do."""

    workload.step(state, no_lap)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        workload.step(state, no_lap)
    finally:
        profiler.disable()
    return pstats.Stats(profiler)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tools/profile_step.py",
        description="cProfile one steady-state step of a benchmarks/perf workload.",
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument(
        "--seed", type=int, default=0, help="seed of every generated input (default 0)"
    )
    parser.add_argument(
        "--tiny", action="store_true", help="smoke-test sizes (the numbers mean nothing)"
    )
    parser.add_argument(
        "--top", type=int, default=25, metavar="K", help="rows per table (default 25)"
    )
    parser.add_argument(
        "--callers",
        metavar="PATTERN",
        help="also print the callers of functions whose name matches this regex",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if any(os.environ.get(key) != value for key, value in _CHILD_ENV.items()):
        # BLAS reads its thread count and glibc its malloc knobs at start-up.
        command = [sys.executable, str(Path(__file__).resolve())]
        command += sys.argv[1:] if argv is None else argv
        return subprocess.run(command, env={**os.environ, **_CHILD_ENV}).returncode
    stats = profile_step(args.workload, args.seed, args.tiny)
    stats.strip_dirs()
    for order in ("cumulative", "tottime"):
        print(f"== {args.workload} (seed {args.seed}): one step, by {order} ==")
        stats.sort_stats(order).print_stats(args.top)
    if args.callers:
        print(f"== {args.workload} (seed {args.seed}): callers of {args.callers!r} ==")
        stats.print_callers(args.callers)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
