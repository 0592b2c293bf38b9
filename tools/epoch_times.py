"""Host seconds of a training workload's epochs, epoch by epoch.

``benchmarks/perf/run.py`` times steps after an untimed warm-up, so it
sees steady epochs only. A trainer's first epoch costs more: the first
under a plan and rate table records its layer sweeps and replays them,
and later ones only replay (``HongTuTrainer``'s sweep programs). This
builds a ``benchmarks/perf``
training workload's trainer, times each of its first ``--epochs``
epochs, repeats that on ``--repeats`` fresh trainers, and prints per
epoch the median, fastest and slowest seconds.

Usage::

    python tools/epoch_times.py --workload train_cluster
    python tools/epoch_times.py --workload train_numerics --epochs 6 --repeats 3
    python tools/epoch_times.py --workload train_cluster --tiny   # smoke size

The measuring process carries the same environment pins as the
benchmark's child (one BLAS thread, fixed hash seed, no malloc
trimming), as ``tools/profile_step.py`` does. Seconds are this host's
wall seconds, not rescaled to the benchmark's reference host.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import List, Optional

ROOT = Path(__file__).resolve().parents[1]
for _entry in (ROOT, ROOT / "src"):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

from benchmarks.perf.run import _CHILD_ENV  # noqa: E402

#: the workloads whose set-up builds the trainer that their steps train
TRAINING = ("train_numerics", "train_cluster")


def epoch_times(name: str, seed: int, tiny: bool, epochs: int,
                repeats: int) -> List[List[float]]:
    """Per fresh trainer of workload ``name``, the wall seconds of each of
    its first ``epochs`` epochs."""
    from benchmarks.perf.workloads import WORKLOADS

    runs = []
    for _ in range(repeats):
        trainer = WORKLOADS[name].setup(seed, tiny).trainer
        times = []
        for _ in range(epochs):
            start = perf_counter()
            trainer.train_epoch()
            times.append(perf_counter() - start)
        runs.append(times)
    return runs


def _kind(epoch: int) -> str:
    return "records + replays" if epoch == 1 else "replays"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tools/epoch_times.py",
        description="Wall seconds of each epoch of a benchmarks/perf "
                    "training workload's trainer.",
    )
    parser.add_argument("--workload", choices=TRAINING, required=True)
    parser.add_argument(
        "--seed", type=int, default=0, help="seed of every generated input (default 0)"
    )
    parser.add_argument(
        "--tiny", action="store_true", help="smoke-test sizes (the numbers mean nothing)"
    )
    parser.add_argument("--epochs", type=int, default=5, help="epochs per trainer (default 5)")
    parser.add_argument(
        "--repeats", type=int, default=5, help="fresh trainers to time (default 5)"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if any(os.environ.get(key) != value for key, value in _CHILD_ENV.items()):
        # BLAS reads its thread count and glibc its malloc knobs at start-up.
        command = [sys.executable, str(Path(__file__).resolve())]
        command += sys.argv[1:] if argv is None else argv
        return subprocess.run(command, env={**os.environ, **_CHILD_ENV}).returncode
    runs = epoch_times(args.workload, args.seed, args.tiny, args.epochs, args.repeats)
    print(f"== {args.workload} (seed {args.seed}): seconds per epoch over "
          f"{args.repeats} trainer(s) ==")
    print(f"{'epoch':>5}  {'median':>9}  {'min':>9}  {'max':>9}  sweeps")
    for epoch, times in enumerate(zip(*runs), start=1):
        print(f"{epoch:>5}  {statistics.median(times):9.4f}  {min(times):9.4f}  "
              f"{max(times):9.4f}  {_kind(epoch)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
