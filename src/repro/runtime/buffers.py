"""Transition-buffer management for the execution engine.

The communication framework stages neighbor rows in per-GPU *transition
buffers* (§6). Under the ``barrier`` overlap policy one buffer per GPU
suffices: a batch's loads finish before its computes start. Under the
``pipeline`` policy, batch j+1's host loads run *while* batch j is being
consumed, so each GPU needs two buffers of alternating parity — the classic
double-buffering scheme — and pays for both in device memory.

The simulator prices every row a buffer carries but moves only the rows
whose order can change a float. A *value* a GPU reads out of a transition
buffer is the host row staged there, unchanged (h^l does not change during
a sweep), so a value sweep holds no array at all: its readers take the rows
from host memory. A *gradient* sweep does accumulate — atomic adds from
several readers land on one slot — so its m buffers live in **one** backing
array, one address space: GPU i's buffer is the row range
``[offsets[i], offsets[i+1])`` of :attr:`TransitionBuffers.stacked`,
``offsets`` the plan's ``buffer_offsets``, allocated on first use. A peer
push in §6's engine is an ``atomicAdd_system`` into another GPU's buffer at
a position fixed in preprocessing; here it is an :class:`OrderedAdd` into
rows of the same array, in the order the adds are defined in. The
*simulated* memory is still per GPU, and the same for both kinds of sweep:
each GPU's pool is charged its own ``transition_buffer`` allocation, and
double buffering manifests as (a) a doubled charge against those pools and
(b) relaxed dependencies in the timing DAG, both handled by the callers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy.sparse import _sparsetools

from repro.errors import CommunicationPlanError
from repro.hardware.memory import Allocation, reserve_all
from repro.units import SCALAR_BYTES

__all__ = ["OrderedAdd", "TransitionBuffers"]

#: the output dtypes the compiled kernel adds in
_KERNEL_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class OrderedAdd:
    """``np.add.at(out, rows, values)``, prepared once and run in place.

    ``parts`` holds one or more row arrays, and a call adds the values of
    one part: values row ``k`` into ``out[rows[k]]``, entries in order,
    each add rounded once — ``np.add.at``'s unbuffered in-order
    definition, so a row named several times accumulates left to right.
    With ``counts`` (one array per part), values row ``c`` of a part feeds
    the next ``counts[c]`` of its entries instead (zero skips the row): a
    reduction ``out[v] += values[c]`` over whichever values rows belong to
    ``v``, in values order.

    A call runs scipy's compiled CSC mat-vec kernel — ``out += A @ values``
    with ``A`` the 0/1 incidence of the part, stored by column — which adds
    straight into ``out``: no temporary, no per-row interpreter work.
    Multiplying by one is exact, so every row is the plain sum. The parts
    are held, not copied (an int64 array stays the caller's), and the
    kernel checks no index, so they are checked here, once: each row must
    lie in ``[0, num_rows)``; :class:`~repro.errors.CommunicationPlanError`
    otherwise, as for malformed ``counts``.
    """

    def __init__(self, parts: Sequence[np.ndarray], num_rows: int,
                 counts: Optional[Sequence[np.ndarray]] = None):
        parts = [np.asarray(rows) for rows in parts]
        if any(rows.ndim != 1 or rows.dtype.kind not in "iu"
               for rows in parts):
            raise CommunicationPlanError(
                "every part must be a 1-D integer array of rows")
        parts = [rows.astype(np.int64, copy=False) for rows in parts]
        every = np.concatenate(parts) if parts else np.empty(0, np.int64)
        if len(every) and (every.min() < 0 or every.max() >= num_rows):
            raise CommunicationPlanError(f"rows must lie in [0, {num_rows})")
        self._indptr: List[Optional[np.ndarray]] = [None] * len(parts)
        if counts is not None:
            if len(counts) != len(parts):
                raise CommunicationPlanError(
                    f"counts must hold one array per part ({len(parts)})")
            for part, (rows, part_counts) in enumerate(zip(parts, counts)):
                part_counts = np.asarray(part_counts)
                if (part_counts.ndim != 1 or part_counts.dtype.kind not in "iu"
                        or (len(part_counts) and part_counts.min() < 0)
                        or part_counts.sum() != len(rows)):
                    raise CommunicationPlanError(
                        f"counts[{part}] must be 1-D non-negative integers "
                        f"summing to {len(rows)}, the part's row count")
                indptr = np.zeros(len(part_counts) + 1, dtype=np.int64)
                np.cumsum(part_counts, out=indptr[1:])
                self._indptr[part] = indptr
        self.parts = parts
        self.num_rows = int(num_rows)
        longest = max((len(rows) for rows in parts), default=0)
        #: the column pointers of a part without counts (one entry per
        #: values row) and the kernel's ones: prefixes of shared arrays
        self._unit = np.arange(longest + 1, dtype=np.int64)
        self._ones: Dict[np.dtype, np.ndarray] = {}

    def num_values(self, part: int = 0) -> int:
        """Rows of ``values`` a call on ``part`` takes."""
        indptr = self._indptr[part]
        return len(self.parts[part]) if indptr is None else len(indptr) - 1

    def __call__(self, out: np.ndarray, values: np.ndarray,
                 part: int = 0) -> None:
        """Add ``values``, the operand of ``parts[part]``, into ``out`` in
        place.

        ``out`` must be a C-contiguous float32 or float64 ``(num_rows,
        dim)`` array and ``values`` ``(num_values(part), dim)`` of a dtype
        that casts to ``out``'s safely — a wider or equal float, the one
        cast ``+=`` does exactly; anything else raises
        :class:`~repro.errors.CommunicationPlanError` before ``out`` is
        touched.
        """
        rows = self.parts[part]
        if not (np.ndim(out) == 2 and out.shape[0] == self.num_rows
                and out.flags.c_contiguous):
            raise CommunicationPlanError(
                f"out must be a C-contiguous ({self.num_rows}, dim) array, "
                f"got shape {np.shape(out)}")
        expected = (self.num_values(part), out.shape[1])
        if np.shape(values) != expected:
            raise CommunicationPlanError(
                f"values of part {part} must have shape {expected}, got "
                f"{np.shape(values)}")
        if out.dtype not in _KERNEL_DTYPES or \
                not np.can_cast(values.dtype, out.dtype, "safe"):
            raise CommunicationPlanError(
                f"cannot add {values.dtype} values into a {out.dtype} out "
                f"exactly; out must be float32 or float64 and at least as "
                f"wide")
        ones = self._ones.get(out.dtype)
        if ones is None:
            ones = self._ones[out.dtype] = np.ones(len(self._unit) - 1,
                                                   out.dtype)
        indptr = self._indptr[part]
        if indptr is None:
            indptr = self._unit[:len(rows) + 1]
        # The kernel casts a values array of another dtype or layout on
        # its way in.
        _sparsetools.csc_matvecs(self.num_rows, len(values), out.shape[1],
                                 indptr, rows, ones, values, out)


class TransitionBuffers:
    """Per-GPU staging buffers registered with the simulated memory pools.

    One instance backs one layer sweep (§6's transition data buffer, or the
    transition *gradient* buffer during backward). ``buffer_rows[i]`` is
    GPU i's capacity in vertex rows (the planner's in-place slot count),
    and ``dim`` the row width in scalars; each row is charged to the
    simulated GPU pools at :data:`~repro.units.SCALAR_BYTES` per scalar,
    independent of the numpy payload ``dtype``, all or nothing when the
    sweep starts.

    :attr:`stacked` is the one ``(sum(buffer_rows), dim)`` backing array;
    GPU i's buffer is its rows from the plan's ``buffer_offsets[i]`` on.
    """

    def __init__(self, platform, buffer_rows: Sequence[int], dim: int,
                 dtype, double_buffer: bool = False):
        self.double_buffer = double_buffer
        #: the numpy payload dtype of the rows
        self.dtype = np.dtype(dtype)
        copies = 2 if double_buffer else 1
        self._allocations: List[Allocation] = reserve_all(
            [gpu.memory for gpu in platform.gpus], "transition_buffer",
            [copies * rows * dim * SCALAR_BYTES for rows in buffer_rows])
        self._shape: Optional[tuple] = (int(sum(buffer_rows)), dim)
        self._stacked: Optional[np.ndarray] = None

    @property
    def stacked(self) -> Optional[np.ndarray]:
        """The backing array, zero-filled on first use; ``None`` once
        freed. A sweep that only emits its traffic never asks, so it
        never allocates one."""
        if self._stacked is None and self._shape is not None:
            self._stacked = np.zeros(self._shape, dtype=self.dtype)
        return self._stacked

    def free(self) -> None:
        """Release the simulated allocations and drop the backing array
        (end of a layer sweep)."""
        for allocation in self._allocations:
            allocation.free()
        self._allocations = []
        self._shape = None
        self._stacked = None
