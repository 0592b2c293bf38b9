"""Serving results: per-request latencies and NaN-free percentiles.

``numpy.percentile`` on an empty array raises (or returns NaN under some
method choices), and its default linear interpolation invents latencies
nobody observed when the sample is tiny (1-2 requests). Reports must
never leak either artifact, so :func:`latency_percentile` implements the
explicit *nearest-rank* definition: the p-th percentile of ``n`` sorted
samples is element ``max(ceil(p/100 * n), 1)`` (1-indexed) — always an
actually observed latency — and the empty window is pinned to ``0.0``.
With one sample every percentile is that sample; with two, p50 is the
smaller and p99 the larger. Edge cases are locked down in
``tests/test_serving.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.units import Bytes, Seconds

__all__ = ["latency_percentile", "ServeResult"]


def latency_percentile(values, pct: float) -> Seconds:
    """Nearest-rank percentile: NaN-free for empty and tiny samples.

    ``values`` is any sequence of latencies (seconds); ``pct`` in
    [0, 100]. Empty input returns ``0.0`` explicitly — an empty window
    observed no latency, and 0.0 keeps downstream JSON/gating finite.
    """
    if not 0 <= pct <= 100:
        raise ConfigurationError(f"percentile must be in [0, 100], got {pct}")
    data = np.sort(np.asarray(values, dtype=np.float64))
    n = data.size
    if n == 0:
        return 0.0
    rank = max(math.ceil(pct / 100.0 * n), 1)
    return float(data[rank - 1])


@dataclass
class ServeResult:
    """Outcome of one serving run: the full per-request record.

    Arrays are index-aligned per request: ``latencies[i]`` is
    ``completions[i] - arrivals[i]`` for request ``i``.
    """

    arrivals: np.ndarray
    completions: np.ndarray
    latencies: np.ndarray
    columns: np.ndarray
    batch_sizes: np.ndarray
    cache_hits: int
    cache_misses: int
    makespan: Seconds
    duration: Seconds
    net_bytes: Bytes
    arrival_kind: str
    policy: str
    #: warm pairs the budget-bounded embedding cache dropped during this
    #: run (always 0 with an unbounded cache)
    cache_evictions: int = 0
    slo: Seconds = 0.1
    timeline: object = field(default=None, repr=False)

    @property
    def num_requests(self) -> int:
        return int(self.latencies.size)

    def percentile(self, pct: float) -> Seconds:
        return latency_percentile(self.latencies, pct)

    @property
    def p50(self) -> Seconds:
        return self.percentile(50)

    @property
    def p95(self) -> Seconds:
        return self.percentile(95)

    @property
    def p99(self) -> Seconds:
        return self.percentile(99)

    @property
    def mean_latency(self) -> Seconds:
        if self.latencies.size == 0:
            return 0.0
        return float(self.latencies.mean())

    @property
    def throughput(self) -> float:
        """Completed requests per simulated second of the full run."""
        if self.makespan <= 0:
            return 0.0
        return self.num_requests / self.makespan

    @property
    def goodput(self) -> float:
        """Requests per second that met the latency SLO."""
        if self.makespan <= 0:
            return 0.0
        met = int(np.count_nonzero(self.latencies <= self.slo))
        return met / self.makespan

    @property
    def mean_batch_size(self) -> float:
        if self.batch_sizes.size == 0:
            return 0.0
        return float(self.batch_sizes.mean())

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return 0.0
        return self.cache_hits / total
