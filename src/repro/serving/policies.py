"""Admission and batching policies for the serving simulator.

A policy takes a sorted arrival trace and decides how requests coalesce
into forward-pass batches: each :class:`AdmittedBatch` carries the
request indices it admitted and the simulated time at which the batch is
handed to the timeline. Three policies cover the classic
latency/throughput trade-off:

* :class:`ImmediatePolicy` — every request dispatches alone at its own
  arrival instant. Minimum queueing delay, maximum per-request overhead.
* :class:`SizeBatchingPolicy` — requests dispatch in consecutive groups
  of ``K``; a full group leaves when its K-th member arrives, and a
  trailing partial group drains at the horizon. Amortizes fixed costs,
  but early members wait for late ones.
* :class:`DeadlineBatchingPolicy` — the first pending request opens a
  window; everything arriving within ``timeout`` seconds joins it, and
  the batch leaves exactly when the window closes. Bounds the queueing
  delay of every request by ``timeout``.

Invariants (property-tested in ``tests/test_serving.py``):

* every request appears in exactly one batch, in arrival order;
* ``dispatch_time >= max(arrival of members)`` (no time travel);
* size-K never admits more than ``K`` requests per batch;
* deadline batching never holds a request longer than ``timeout``;
* ``immediate`` is the ``K=1`` fixed point of size batching and the
  ``timeout=0`` fixed point of deadline batching on traces with
  strictly distinct arrival times;
* dispatch times are non-decreasing across batches, so the admission
  clock on the timeline can advance monotonically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from repro.errors import ServingError
from repro.units import Seconds

__all__ = ["AdmittedBatch", "AdmissionPolicy", "ImmediatePolicy",
           "SizeBatchingPolicy", "DeadlineBatchingPolicy", "build_policy",
           "BATCH_POLICIES"]

#: admission-policy registry keys (the CLI's ``--batch-policy`` choices)
BATCH_POLICIES = ("immediate", "size", "deadline")


@dataclass(frozen=True)
class AdmittedBatch:
    """One dispatched batch: request indices plus its dispatch instant."""

    dispatch_time: Seconds
    requests: tuple

    @property
    def size(self) -> int:
        return len(self.requests)


class AdmissionPolicy:
    """Base class: map a sorted arrival trace to dispatched batches."""

    name = "abstract"

    def admit(self, arrivals: np.ndarray) -> list:
        """Partition ``arrivals`` (sorted seconds) into AdmittedBatches.

        Returns batches ordered by non-decreasing ``dispatch_time``;
        request indices refer to positions in ``arrivals``.
        """
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class ImmediatePolicy(AdmissionPolicy):
    """Dispatch every request alone, at its own arrival instant."""

    name = "immediate"

    def admit(self, arrivals: np.ndarray) -> list:
        return [
            AdmittedBatch(float(t), (i,))
            for i, t in enumerate(arrivals)
        ]


class SizeBatchingPolicy(AdmissionPolicy):
    """Dispatch consecutive groups of ``K`` requests.

    A full group leaves when its K-th member arrives. The trailing
    partial group (fewer than K pending when the trace ends) drains at
    the last member's arrival time — the horizon is over, nothing else
    is coming, so holding it longer would only inflate latency.
    """

    name = "size"

    def __init__(self, batch_size: int):
        if batch_size < 1:
            raise ServingError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        self.batch_size = int(batch_size)

    def admit(self, arrivals: np.ndarray) -> list:
        batches = []
        for start in range(0, len(arrivals), self.batch_size):
            members = tuple(range(start, min(start + self.batch_size,
                                             len(arrivals))))
            dispatch = float(arrivals[members[-1]])
            batches.append(AdmittedBatch(dispatch, members))
        return batches

    def describe(self) -> str:
        return f"size(K={self.batch_size})"


class DeadlineBatchingPolicy(AdmissionPolicy):
    """Window batching: first pending arrival opens a ``timeout`` window.

    All requests arriving at or before ``t0 + timeout`` join the window
    opened at ``t0``, and the batch dispatches exactly when the window
    closes — so no member ever waits more than ``timeout`` seconds for
    admission. With ``timeout=0`` the window degenerates to the set of
    requests arriving at the exact same instant, which on traces with
    strictly distinct arrival times is one request per batch — the
    immediate policy.
    """

    name = "deadline"

    def __init__(self, timeout: Seconds):
        if (isinstance(timeout, bool) or not isinstance(timeout, Real)
                or not 0 <= timeout < math.inf):  # NaN fails both
            raise ServingError(
                f"timeout must be >= 0 and finite, got {timeout!r}")
        self.timeout = float(timeout)

    def admit(self, arrivals: np.ndarray) -> list:
        batches = []
        i = 0
        n = len(arrivals)
        while i < n:
            opened = float(arrivals[i])
            close = opened + self.timeout
            j = i
            while j < n and float(arrivals[j]) <= close:
                j += 1
            batches.append(AdmittedBatch(close, tuple(range(i, j))))
            i = j
        return batches

    def describe(self) -> str:
        return f"deadline(timeout={self.timeout:g}s)"


def build_policy(name: str, batch_size: int = 8,
                 batch_timeout: Seconds = 0.005) -> AdmissionPolicy:
    """Construct an admission policy by registry name."""
    if name == "immediate":
        return ImmediatePolicy()
    if name == "size":
        return SizeBatchingPolicy(batch_size)
    if name == "deadline":
        return DeadlineBatchingPolicy(batch_timeout)
    raise ServingError(
        f"unknown batch policy {name!r}; expected one of {BATCH_POLICIES}"
    )
