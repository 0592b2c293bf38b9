"""Execution helpers shared by the benchmark scripts.

``run_or_oom`` is the workhorse: it builds + runs a trainer factory,
translating a simulated :class:`~repro.errors.DeviceOutOfMemoryError` into
the literal ``"OOM"`` cell the paper's tables print.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import DeviceOutOfMemoryError
from repro.hardware.clock import TimeBreakdown

__all__ = ["RunOutcome", "run_or_oom", "speedup_vs"]


@dataclass
class RunOutcome:
    """A single table cell: epoch time (simulated seconds) or OOM."""

    label: str
    epoch_seconds: Optional[float] = None
    clock: Optional[TimeBreakdown] = None
    #: peak GPU bytes of the last epoch (0 on a CPU cluster)
    peak_bytes: Optional[int] = None
    oom: bool = False
    loss: Optional[float] = None

    def cell(self, digits: int = 4) -> str:
        if self.oom:
            return "OOM"
        return f"{self.epoch_seconds:.{digits}f}"


def run_or_oom(label: str,
               factory: Callable[[], object],
               epochs: int = 2) -> RunOutcome:
    """Construct a trainer and run ``epochs`` epochs, averaging epoch time.

    The trainer object must expose ``train_epoch()`` returning an
    :class:`~repro.core.trainer.EpochResult`. Construction *or* execution
    may raise :class:`DeviceOutOfMemoryError`, which maps to an OOM cell.
    """
    try:
        trainer = factory()
        results = [trainer.train_epoch() for _ in range(epochs)]
    except DeviceOutOfMemoryError:
        return RunOutcome(label=label, oom=True)

    last = results[-1]
    mean_seconds = sum(result.epoch_seconds for result in results) / len(results)
    return RunOutcome(
        label=label,
        epoch_seconds=mean_seconds,
        clock=last.clock,
        peak_bytes=last.peak_gpu_bytes,
        loss=last.loss,
    )


def speedup_vs(reference: RunOutcome, outcome: RunOutcome) -> str:
    """Format "(12.3x)" speedup cells; '-' when either side is OOM."""
    if reference.oom or outcome.oom:
        return "-"
    if outcome.epoch_seconds == 0:
        return "-"
    return f"{reference.epoch_seconds / outcome.epoch_seconds:.1f}x"
