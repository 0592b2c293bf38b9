"""Runner of the perf benchmark: ``python3 benchmarks/perf/run.py --help``.

Every workload runs in a fresh child process (clean ``ru_maxrss``, cold
imports) whose environment pins BLAS/OpenMP to one thread and keeps freed
memory inside the allocator (see ``_CHILD_ENV``). A run is: *set-up*
several times (median → ``setup_s``), one untimed warm-up step, timed
*steps* for ``--seconds``, then evaluate + report rendering, then the
correctness checks. Every timed interval is divided by how much slower
than the reference host the machine ran beside it (``_Run.rooted``). With
``--workload`` the last stdout line is the driver's JSON object; without
it every workload runs, one after the other.

The traced run (``--trace 1``) wraps ``repro``'s public callables from
``tracing.py`` to get per-layer self times and counts, times a slice of
the steps with the wrappers off to report what tracing costs, and runs
the layer probes. End-to-end numbers always come from an untraced run.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[2]
for _entry in (ROOT, ROOT / "src"):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

from benchmarks.perf.layers import layer_metrics  # noqa: E402
from benchmarks.perf.metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    REFERENCE_SECONDS,
    REPORT_ONLY,
    metric_json,
)
from benchmarks.perf.tracing import (  # noqa: E402
    Ledger,
    SpanRecorder,
    Tracer,
    span_dicts,
)

__all__ = ["WORKLOAD_NAMES", "RUN_SECONDS", "run_workload",
           "run_in_children", "main"]

WORKLOAD_NAMES = ("train_numerics", "train_cluster", "plan_fleet",
                  "serve_mixed")
#: seconds of timed steps per run (``run_seconds`` of BENCHMARK.json)
RUN_SECONDS = 12
#: fresh set-ups per run; ``setup_s`` is their median
SETUPS = 3
#: timed steps a run takes at least, whatever ``--seconds`` says
MIN_STEPS = 3
#: Environment of the measuring child. One BLAS/OpenMP thread: the box
#: has two cores and the load must never use more. A fixed hash seed: str
#: hashing is otherwise salted per process. The glibc knobs keep
#: freed memory in the process: the sandbox VM hands freed guest pages
#: back to its host every ~2 s and re-faulting them costs 10-20x, so
#: without them a step's time depends on the phase of that cycle (large
#: NumPy temporaries were measured at 0.13 s or 2.4 s, alternating).
_CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
}


class _Timed(NamedTuple):
    """One measured interval (a set-up, a step, the finish)."""

    result: object
    #: ``perf_counter`` seconds, calibration pauses left out
    wall: float
    #: ``wall`` in seconds of the reference host (see ``_Run.rooted``)
    host_s: float
    #: per-layer totals of the interval, self times in reference seconds
    ledger: Ledger
    #: label of a ``lap`` → (reference seconds, ledger) of the part it ended
    laps: Dict[str, tuple]
    #: layer self times + untraced remainder == ``wall``, within 2 %
    closes: bool


_CALIBRATION = "run/calibration"


class _Run:
    """One workload run: root spans, calibration, operation accounting."""

    def __init__(self, workload, calibrate: Callable[[], List[float]]) -> None:
        self.workload = workload
        self.recorder = SpanRecorder()
        self.tracer = Tracer(self.recorder)
        self.state = None
        self.attempted = 0
        self.failures: List[str] = []
        #: spans of the last set-up, step and finish (for ``--out``)
        self.spans: Dict[str, list] = {}
        self._samples = calibrate
        #: every calibration-kernel time of the run, in order
        self.calibration: List[float] = []
        self._slowdown = self._calibrate()

    def _calibrate(self) -> float:
        """How many times slower than the reference host we run right now."""
        with self.recorder.span(_CALIBRATION):
            samples = self._samples()
        self.calibration += samples
        return statistics.median(samples) / REFERENCE_SECONDS

    def rooted(self, phase: str, step_id: str, fn: Callable) -> _Timed:
        """Run ``fn(lap)`` under a root span and time it.

        The host's speed changes under the benchmark (see probes.py), so
        the interval is cut into parts — at every ``lap(label)`` the
        workload calls, and at its two ends — the calibration kernel runs
        at every cut, and each part's wall time is divided by the mean
        slow-down measured at its two ends. The sum is the interval in
        seconds of the reference host.
        """
        recorder = self.recorder
        recorder.step_id = step_id
        first = recorder.ledger()
        parts = []  # (label, wall, slow-down, ledger window)
        opened = [perf_counter(), self._slowdown, first]

        def lap(label: Optional[str]) -> None:
            wall = perf_counter() - opened[0]
            ledger = recorder.ledger()
            slowdown = self._calibrate()
            parts.append((label, wall, (opened[1] + slowdown) / 2,
                          ledger.since(opened[2])))
            opened[:] = perf_counter(), slowdown, recorder.ledger()

        with recorder.span(f"run/{phase}"):
            result = fn(lap)
            lap(None)
        self._slowdown = opened[1]
        self.spans[phase] = recorder.take_spans()

        wall = sum(part[1] for part in parts)
        host_s = sum(part[1] / part[2] for part in parts)
        ledger = recorder.ledger().since(first)
        traced_s = sum(seconds for name, seconds in ledger.self_s.items()
                       if name != _CALIBRATION)
        return _Timed(
            result, wall, host_s, ledger.scaled(host_s / wall),
            {label: (part_wall / slowdown,
                     part_ledger.scaled(1 / slowdown))
             for label, part_wall, slowdown, part_ledger in parts
             if label is not None},
            abs(traced_s - wall) <= 0.02 * wall)

    def step(self, step_id: str) -> _Timed:
        self.attempted += 1
        return self.rooted(
            "step", step_id, lambda lap: self.workload.step(self.state, lap))

    def steps(self, label: str, seconds: float, at_least: int) -> List[_Timed]:
        done: List[_Timed] = []
        started = perf_counter()
        while len(done) < at_least or perf_counter() - started < seconds:
            done.append(self.step(f"{label}:{len(done)}"))
        return done

    def check(self, name: str, fn: Callable[[], bool]) -> None:
        self.attempted += 1
        try:
            if not fn():
                self.failures.append(name)
        except Exception as error:  # a check that raises is a failed check
            self.failures.append(f"{name}: {type(error).__name__}: {error}")


def run_workload(name: str, seed: int = 0, seconds: float = RUN_SECONDS,
                 traced: bool = False, tiny: bool = False,
                 keep_spans: bool = False) -> dict:
    """Run one workload in this process; returns its full result record."""
    from benchmarks.perf import probes
    from benchmarks.perf.workloads import WORKLOADS

    workload = WORKLOADS[name]
    repeats = 1 if tiny else 5
    probes.calibration_samples(2 * repeats)  # cold: first touches
    run = _Run(workload, functools.partial(probes.calibration_samples, repeats))
    tracer = run.tracer
    at_least = 2 if tiny else MIN_STEPS

    untraced: List[_Timed] = []
    if traced:
        tracer.install()
    try:
        setups = []
        for index in range(1 if tiny else SETUPS):
            run.state = None  # release the previous set-up before the next
            setup = run.rooted("setup", f"setup:{index}",
                               lambda lap: workload.setup(seed, tiny))
            run.state = setup.result
            setups.append(setup._replace(result=None))
        warmup = run.step("warmup")
        if traced:
            # what tracing costs: the same steps with the wrappers off
            tracer.uninstall()
            untraced = run.steps("untraced", seconds / 3, at_least - 1)
            tracer.install()
            timed = run.steps("step", seconds * 2 / 3, at_least)
        else:
            timed = run.steps("step", seconds, at_least)
        finish = run.rooted("finish", "finish",
                            lambda lap: workload.finish(run.state))
    finally:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    state = run.state
    sim = finish.result
    counts = timed[0].result[1]
    for check_name, check in workload.checks(state):
        run.check(check_name, check)
    run.check("reports rendered", lambda: state.report_chars > 0)
    run.check("steady state: every timed step gives the same result",
              lambda: all(step.result == timed[0].result
                          for step in untraced + timed))
    run.check("end-to-end metrics are positive",
              lambda: all(sim.get(metric, 1) > 0 for metric in END_TO_END))

    step_seconds = [step.host_s for step in timed]
    step_host_s = statistics.median(step_seconds)
    values = dict(sim)
    values.update({
        "setup_s": statistics.median(setup.host_s for setup in setups),
        "step_host_s": step_host_s,
        # one user run: cold set-up, warm-up, the nominal steps, reports
        "e2e_host_s": (setups[0].host_s + warmup.host_s + finish.host_s
                       + workload.nominal_steps * step_host_s),
        "peak_rss_mb": peak_rss_mb,
    })
    record = {
        "workload": name, "seed": seed, "traced": traced, "tiny": tiny,
        # seconds of the reference host, and the wall seconds they came from
        "samples": {"setup_s": [setup.host_s for setup in setups],
                    "step_host_s": step_seconds,
                    "warmup_s": warmup.host_s, "finish_s": finish.host_s},
        "wall": {"setup_s": [setup.wall for setup in setups],
                 "step_host_s": [step.wall for step in timed]},
        "calibration_s": run.calibration,
        "counts": counts,
    }

    if traced:
        run.check("counts repeat exactly on every traced step",
                  lambda: all(step.ledger.calls == timed[0].ledger.calls
                              and step.ledger.units == timed[0].ledger.units
                              for step in timed))
        run.check("layer self times sum to the step time within 2%",
                  lambda: all(step.closes for step in timed))
        values.update(layer_metrics(
            {"step": [step.ledger for step in timed],
             "setup": [setup.ledger for setup in setups],
             "finish": [finish.ledger]},
            step_seconds, [step.laps for step in timed], counts,
            workload.facts(state)))
        values.update(probes.run_probes(tiny))
        values["probe.calibration_s"] = statistics.median(run.calibration)
        values["trace.overhead_share"] = step_host_s / statistics.median(
            step.host_s for step in untraced) - 1.0
        values["trace.targets_missing"] = len(tracer.missing)
        record["targets_missing"] = tracer.missing
        if keep_spans:
            record["spans"] = {phase: span_dicts(spans)
                               for phase, spans in run.spans.items()}

    record.update({
        "values": values,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
    })
    return record


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def driver_line(record: dict) -> str:
    """The JSON object the driver reads off the last stdout line."""
    table = PER_LAYER if record["traced"] else END_TO_END
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metric_json(record["values"], table),
    })


def print_record(record: dict) -> None:
    """Every metric by name, with its unit and host/sim kind."""
    name = record["workload"]
    values = record["values"]
    q1, median, q3 = statistics.quantiles(record["samples"]["step_host_s"], n=4)
    print(f"== {name} (seed {record['seed']}"
          f"{', traced' if record['traced'] else ''}"
          f"{', tiny' if record['tiny'] else ''}) ==")
    print(f"  steps timed: n={len(record['samples']['step_host_s'])} "
          f"median={median:.4f}s q1={q1:.4f}s q3={q3:.4f}s "
          f"(wall median {statistics.median(record['wall']['step_host_s']):.4f}s); "
          f"set-ups: {', '.join(f'{s:.3f}s' for s in record['samples']['setup_s'])}")
    slowdown = [seconds / REFERENCE_SECONDS for seconds in record["calibration_s"]]
    print(f"  host times are seconds of the reference host; this host ran "
          f"{statistics.median(slowdown):.2f}x slower (median; "
          f"{min(slowdown):.2f}x-{max(slowdown):.2f}x over the run)")
    tables = [END_TO_END, REPORT_ONLY]
    if record["traced"]:
        tables.append({key: metric for key, metric in PER_LAYER.items()
                       if key not in REPORT_ONLY})
    for table in tables:
        for metric, spec in table.items():
            if metric in values:
                print(f"  {metric:<40} {values[metric]:>18.9g} "
                      f"{spec.unit:<8} [{spec.kind}]")
            elif table is REPORT_ONLY:
                print(f"  {metric:<40} {'-':>18} {spec.unit:<8} [{spec.kind}]")
    share = record["failed"] / record["attempted"]
    print(f"  failed_share {share:.4g} "
          f"(ops_failed={record['failed']} / "
          f"ops_attempted={record['attempted']})")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    overhead = values.get("trace.overhead_share", 0.0)
    if overhead > 0.25:
        print(f"  warning: tracing overhead {overhead:.0%} > 25% — read the "
              "layer times of this workload as shares, not seconds",
              file=sys.stderr)
    for missing in record.get("targets_missing", ()):
        print(f"  warning: trace target {missing} no longer exists; its "
              "layer reads 0", file=sys.stderr)


def run_in_children(names, *args) -> List[dict]:
    """``run_workload(name, *args)`` per name, each in a fresh process.

    The child is this script again with ``--child`` (not ``multiprocessing``:
    its resource tracker is a second process that outlives the run). It
    ends its stdout with the record as one JSON line. ``subprocess.run``
    kills and reaps the child on every way out of here; run as a script,
    SIGTERM is turned into an exception so that holds for that too.
    """
    records = []
    for name in names:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--child", json.dumps([name, *args])],
            env={**os.environ, **_CHILD_ENV}, stdout=subprocess.PIPE,
            text=True)
        if done.returncode != 0:  # the child's stderr said why
            raise SystemExit(f"workload {name}: child exited with "
                             f"{done.returncode}, no result")
        records.append(json.loads(done.stdout.splitlines()[-1]))
    return records


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks/perf/run.py",
        description="HongTu reproduction perf benchmark: host-time and "
                    "simulated end-to-end metrics, per-layer traced run.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="run this workload only and end stdout with "
                             "the driver's JSON line (default: all four, "
                             "one after the other)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of every generated input: graph, model "
                             "init, partition, arrivals (default 0)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="seconds of timed steps per workload "
                             f"(default {RUN_SECONDS}; at least "
                             f"{MIN_STEPS} steps run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run: per-layer metrics and probes "
                             "instead of the end-to-end metrics")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (seconds, not minutes; the "
                             "numbers mean nothing)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the full records (samples, counts, "
                             "and the last step's spans of a traced run) "
                             "as JSON to FILE; nothing is written "
                             "anywhere else")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.child is not None:  # the measuring child of run_in_children
        print(json.dumps(run_workload(*json.loads(args.child))))
        return 0
    traced = bool(args.trace)
    names = WORKLOAD_NAMES if args.workload is None else (args.workload,)
    records = run_in_children(
        names, args.seed, 0.0 if args.tiny else args.seconds, traced,
        args.tiny, args.out is not None)
    for record in records:
        print_record(record)
    if args.out is not None:
        with open(args.out, "w") as handle:
            json.dump({"seed": args.seed, "traced": traced,
                       "workloads": {r["workload"]: r for r in records}},
                      handle)
            handle.write("\n")
    if args.workload is not None:
        print(driver_line(records[0]))
    return 0 if all(record["failed"] == 0 for record in records) else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    raise SystemExit(main())
