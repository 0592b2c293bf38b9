"""Request arrival processes for the inference-serving simulator.

An arrival process generates the timestamps (simulated seconds) at which
inference queries reach the cluster over a fixed horizon ``[0, duration)``.
Two canonical shapes cover the serving literature's extremes:

* :class:`PoissonArrivals` — memoryless traffic: i.i.d. exponential
  inter-arrival gaps at ``rate`` requests/second. The benign baseline
  every serving paper reports first.
* :class:`BurstyArrivals` — compound-Poisson traffic: burst *epochs*
  arrive as a Poisson process at ``rate / burst_size`` and each epoch
  delivers ``burst_size`` requests at the same instant. The *offered
  load* (expected requests per second) equals the Poisson process at the
  same ``rate``, but the clustering forces queueing at the accelerators,
  which is exactly what inflates tail latency — the p99 separation
  ``benchmarks/bench_serving.py`` measures.

Determinism contract: generation draws from
``numpy.random.default_rng(seed)`` only, one stream per process, so an
identical ``(kind, rate, duration, seed, burst_size)`` tuple reproduces
the identical timestamp array on every machine — the foundation of the
bit-identical latency guarantees tested in ``tests/test_serving.py``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ServingError, require_count
from repro.units import Seconds

__all__ = ["ArrivalProcess", "PoissonArrivals", "BurstyArrivals",
           "build_arrivals", "ARRIVAL_KINDS"]

#: arrival-process registry keys (the CLI's ``--arrival`` choices)
ARRIVAL_KINDS = ("poisson", "bursty")


class ArrivalProcess:
    """Base class: a seeded request-timestamp generator over a horizon."""

    kind = "abstract"

    def __init__(self, rate: float, duration: Seconds, seed: int = 0):
        # Written to reject NaN too; an infinite rate or horizon would
        # never leave ``generate``'s loop.
        if not 0 < rate < math.inf:
            raise ServingError(
                f"arrival rate must be finite and > 0, got {rate}")
        if not 0 <= duration < math.inf:
            raise ServingError(
                f"duration must be finite and >= 0, got {duration}")
        require_count("seed", seed, 0, ServingError)
        self.rate = float(rate)
        self.duration = float(duration)
        self.seed = int(seed)

    def generate(self) -> np.ndarray:
        """Sorted arrival timestamps in ``[0, duration)`` (float64)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(rate={self.rate}, "
                f"duration={self.duration}, seed={self.seed})")


class PoissonArrivals(ArrivalProcess):
    """Memoryless traffic: exponential gaps at ``rate`` requests/second."""

    kind = "poisson"

    def generate(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        times = []
        clock = rng.exponential(1.0 / self.rate)
        while clock < self.duration:
            times.append(clock)
            clock += rng.exponential(1.0 / self.rate)
        return np.array(times, dtype=np.float64)


class BurstyArrivals(ArrivalProcess):
    """Compound-Poisson traffic: ``burst_size`` requests per burst epoch.

    Burst epochs arrive as a Poisson process at ``rate / burst_size``, so
    the offered load matches :class:`PoissonArrivals` at the same
    ``rate`` exactly — only the clustering differs.
    """

    kind = "bursty"

    def __init__(self, rate: float, duration: Seconds, seed: int = 0,
                 burst_size: int = 8):
        super().__init__(rate, duration, seed)
        if burst_size < 1:
            raise ServingError(
                f"burst_size must be >= 1, got {burst_size}"
            )
        self.burst_size = int(burst_size)

    def generate(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        epoch_gap = self.burst_size / self.rate
        times = []
        clock = rng.exponential(epoch_gap)
        while clock < self.duration:
            times.extend([clock] * self.burst_size)
            clock += rng.exponential(epoch_gap)
        return np.array(times, dtype=np.float64)

    def __repr__(self) -> str:
        return (f"BurstyArrivals(rate={self.rate}, "
                f"duration={self.duration}, seed={self.seed}, "
                f"burst_size={self.burst_size})")


def build_arrivals(kind: str, rate: float, duration: Seconds, seed: int = 0,
                   burst_size: int = 8) -> ArrivalProcess:
    """Construct an arrival process by registry name."""
    if kind == "poisson":
        return PoissonArrivals(rate, duration, seed)
    if kind == "bursty":
        return BurstyArrivals(rate, duration, seed, burst_size=burst_size)
    raise ServingError(
        f"unknown arrival kind {kind!r}; expected one of {ARRIVAL_KINDS}"
    )
