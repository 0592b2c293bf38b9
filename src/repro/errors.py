"""Exception hierarchy for the HongTu reproduction.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base class. The most important subclass is
:class:`DeviceOutOfMemoryError`, which the simulated GPU memory pools raise;
the benchmark harness converts it into the ``OOM`` table entries that the
paper reports for systems that cannot hold their working set.
"""

from __future__ import annotations

from numbers import Integral


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GraphFormatError(ReproError):
    """An adjacency structure is malformed (bad indptr, out-of-range ids...)."""


class PartitionError(ReproError):
    """Graph partitioning produced or received an invalid configuration."""


class DeviceOutOfMemoryError(ReproError):
    """A simulated device memory pool cannot satisfy an allocation.

    Mirrors CUDA's OOM; carries enough context to render useful diagnostics.
    """

    def __init__(self, device: str, requested: int, in_use: int,
                 capacity: int) -> None:
        self.device = device
        self.requested = requested
        self.in_use = in_use
        self.capacity = capacity
        super().__init__(
            f"{device}: out of memory (requested {requested} B, "
            f"in use {in_use} B of {capacity} B)"
        )


class CommunicationPlanError(ReproError):
    """A deduplicated-communication plan is inconsistent with its graph."""


class AutogradError(ReproError):
    """Invalid operation on the reverse-mode autograd tape."""


class ConfigurationError(ReproError, ValueError):
    """A trainer or platform was configured with invalid options.

    Also a :class:`ValueError`: configuration failures are invalid
    argument values, and callers that predate the taxonomy (or scripts
    catching ``ValueError`` around spec construction) keep working. New
    code should catch :class:`ReproError` or this class directly.
    """


class SchedulerError(ReproError):
    """The event scheduler received an invalid task submission."""


class ServingError(ReproError):
    """An inference-serving component was configured with invalid options."""


class FaultError(ReproError):
    """A fault schedule is invalid, or the fleet cannot absorb a fault.

    Raised when a :class:`repro.faults.FaultSchedule` names nodes or links
    outside the cluster, kills every node, or when elastic re-balancing
    cannot re-admit the partitions of a degraded fleet under the surviving
    nodes' host budgets.
    """


def require_count(name: str, value: object, minimum: int,
                  error: type[ReproError] = ConfigurationError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an integer
    >= ``minimum`` (a bool is not a count)."""
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or value < minimum):
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
