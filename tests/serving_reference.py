"""The serving loop one batch at a time — the oracle for
``repro.serving.engine.ServingEngine.serve``.

This is the loop in the form it shipped before admission became one
wave, verbatim: every batch submits its own one-task admission wave on
the host ``cpu`` queue, depending on the previous batch's, then groups
its requests by column in a dict, and every ``(batch, column)`` group
asks the scheduler for the end of its replay's final writebacks
(``ends_of``) and stores the completion request by request.

``ServingEngine.serve`` must leave the same horizon: every
:class:`~repro.serving.result.ServeResult` field, every ``(channel,
device)`` queue's ``(start, end)`` pairs, the busy and byte views and
the critical path as ``(channel, device, start, end)`` are equal
(``tests/test_serving.py::assert_matches_reference``). What differs is
declared there: the admission tasks come first (ids ``0 .. B-1``), form
one phase ``admit`` and list no dependency — the host queue orders
them — so ``breakdown["cpu"]`` is the longest admission gap, not their
sum. Everything but the loop is the shipped engine's.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.errors import ServingError
from repro.hardware.clock import EventTimeline
from repro.runtime.task import HOST_DEVICE
from repro.serving import ServingEngine
from repro.serving.arrivals import ArrivalProcess
from repro.serving.policies import AdmissionPolicy
from repro.serving.result import ServeResult
from repro.units import Seconds

__all__ = ["ReferenceServingEngine"]


class ReferenceServingEngine(ServingEngine):
    """The shipped engine, serving with the per-batch loop."""

    def serve(self, arrivals: ArrivalProcess, policy: AdmissionPolicy,
              slo: Seconds = 0.1) -> ServeResult:
        """Run one serving horizon; returns the per-request record. The
        arrival process's seed also seeds the request→column assignment.
        """
        if not slo > 0:  # NaN included
            raise ServingError(f"slo must be > 0 seconds, got {slo}")
        self._sync_platform()
        times = arrivals.generate()
        n = len(times)
        rng = np.random.default_rng(arrivals.seed)
        columns = (rng.integers(self.plan.num_batches, size=n)
                   if n else np.empty(0, dtype=np.int64))
        batches = policy.admit(times)
        timeline = EventTimeline(barrier_all=False)
        scheduler = timeline.scheduler
        evictions_before = self.evictions

        completions = np.zeros(n, dtype=np.float64)
        batch_sizes = np.array([batch.size for batch in batches],
                               dtype=np.int64)
        hits = 0
        misses = 0
        admit_clock = 0.0
        admit_ids = None
        host = np.array([HOST_DEVICE], dtype=np.int64)
        for b, batch in enumerate(batches):
            # Advance the host admission clock to the dispatch instant:
            # chained zero-gap-safe tasks on the host cpu queue, so the
            # admit task of batch b *ends* exactly at its dispatch time.
            dt = max(0.0, batch.dispatch_time - admit_clock)
            admit_clock = max(admit_clock, batch.dispatch_time)
            admit_ids = scheduler.submit_batch(
                "cpu", host, [dt], common_deps=admit_ids,
                label=f"admit[{b}]",
            )
            by_column: Dict[int, List[int]] = {}
            for request in batch.requests:
                by_column.setdefault(int(columns[request]),
                                     []).append(request)
            for j in sorted(by_column):
                # Per request: the LRU bookkeeping, then a replay of
                # the column's recorded DAG.
                warm = self._touch_column(j)
                hits += warm.count(True)
                misses += warm.count(False)
                final_ids = self._replay_column(timeline, j, warm, admit_ids)
                done = float(scheduler.ends_of(final_ids).max())
                for request in by_column[j]:
                    completions[request] = done
        return ServeResult(
            arrivals=times,
            completions=completions,
            latencies=completions - times,
            columns=columns,
            batch_sizes=batch_sizes,
            cache_hits=hits,
            cache_misses=misses,
            cache_evictions=self.evictions - evictions_before,
            makespan=timeline.makespan,
            duration=arrivals.duration,
            net_bytes=timeline.bytes_view()["net"],
            arrival_kind=arrivals.kind,
            policy=policy.describe(),
            slo=slo,
            timeline=timeline,
        )
