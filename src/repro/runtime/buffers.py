"""Transition-buffer management for the execution engine.

The communication framework stages neighbor rows in per-GPU *transition
buffers* (§6). Under the ``barrier`` overlap policy one buffer per GPU
suffices: a batch's loads finish before its computes start. Under the
``pipeline`` policy, batch j+1's host loads run *while* batch j is being
consumed, so each GPU needs two buffers of alternating parity — the classic
double-buffering scheme — and pays for both in device memory.

The simulator executes the actual numpy data movement eagerly in program
order (that is what keeps the numerics bit-identical across overlap
policies), so one copy of every GPU's rows is always sufficient for
*values* — and the m copies live in **one** backing array, one address
space: GPU i's buffer is the row range ``[offsets[i], offsets[i+1])`` of
:attr:`TransitionBuffers.stacked`, ``offsets`` the plan's
``buffer_offsets``. A peer read in §6's engine is a load from another
GPU's buffer at a position fixed in preprocessing; here it is a row of
the same array at ``offsets[peer] + position``, which is what lets
the executor assemble a chunk's whole input with one gather over the plan's
precomputed slot array instead of one read per (reader, source) pair. The
*simulated* memory is still per GPU: each GPU's pool is charged its own
``transition_buffer`` allocation, and double buffering manifests as (a) a
doubled charge against those pools and (b) relaxed dependencies in the
timing DAG, both handled by the callers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.units import SCALAR_BYTES

__all__ = ["TransitionBuffers"]


class TransitionBuffers:
    """Per-GPU staging buffers registered with the simulated memory pools.

    One instance backs one layer sweep (§6's transition data buffer, or the
    transition *gradient* buffer during backward). ``buffer_rows[i]`` is
    GPU i's capacity in vertex rows (the planner's in-place slot count),
    and ``dim`` the row width in scalars; each row is charged to the
    simulated GPU pools at :data:`~repro.units.SCALAR_BYTES` per scalar,
    independent of the numpy payload ``dtype``.

    :attr:`stacked` is the one ``(sum(buffer_rows), dim)`` backing array;
    GPU i's buffer is its rows from the plan's ``buffer_offsets[i]`` on.
    """

    def __init__(self, platform, buffer_rows: Sequence[int], dim: int,
                 dtype, double_buffer: bool = False):
        self.double_buffer = double_buffer
        copies = 2 if double_buffer else 1
        self._allocations: List = [  # hardware.memory.Allocation handles
            platform.gpus[gpu_index].memory.alloc(
                "transition_buffer", copies * rows * dim * SCALAR_BYTES)
            for gpu_index, rows in enumerate(buffer_rows)
        ]
        self.stacked: Optional[np.ndarray] = np.zeros(
            (int(sum(buffer_rows)), dim), dtype=dtype)

    def free(self) -> None:
        """Release the simulated allocations and drop the backing array
        (end of a layer sweep)."""
        for allocation in self._allocations:
            allocation.free()
        self._allocations = []
        self.stacked = None
