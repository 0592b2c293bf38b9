"""Byte-accurate device memory accounting.

Each simulated GPU owns a :class:`MemoryPool`. Trainers register every
device-resident buffer (neighbor data, transition buffers, layer activations,
recomputation workspace, topology) with its logical byte size; the pool
enforces the configured capacity and raises
:class:`~repro.errors.DeviceOutOfMemoryError` exactly where a real GPU would.
Peak usage feeds the memory columns of Fig. 10 and the OOM entries of
Tables 5-7.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

from repro.errors import ConfigurationError, DeviceOutOfMemoryError
from repro.units import Bytes

__all__ = ["Allocation", "MemoryPool", "reserve_all"]


@dataclass
class Allocation:
    """A live reservation inside a :class:`MemoryPool`."""

    pool: "MemoryPool"
    tag: str
    nbytes: Bytes
    freed: bool = False

    def free(self) -> None:
        if not self.freed:
            self.pool._release(self)
            self.freed = True


class MemoryPool:
    """Tracks allocations against a fixed capacity.

    Parameters
    ----------
    capacity:
        Pool size in bytes. ``None`` means unlimited (host pools by default).
    name:
        Device name used in error messages ("gpu0", "host", ...).
    """

    def __init__(self, capacity: Optional[Bytes], name: str = "device"):
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self.peak = 0
        self.by_tag: Dict[str, int] = {}

    # -- allocation API ---------------------------------------------------
    def alloc(self, tag: str, nbytes: Bytes) -> Allocation:
        """Reserve ``nbytes``; raises DeviceOutOfMemoryError when over capacity."""
        self._reserve_delta(tag, int(nbytes))
        return Allocation(self, tag, int(nbytes))

    def _reserve_delta(self, tag: str, nbytes: Bytes) -> None:
        if nbytes < 0:
            raise ConfigurationError(f"allocation size must be >= 0, got {nbytes}")
        if self.capacity is not None and self.in_use + nbytes > self.capacity:
            raise DeviceOutOfMemoryError(
                self.name, nbytes, self.in_use, self.capacity
            )
        self.in_use += nbytes
        self.by_tag[tag] = self.by_tag.get(tag, 0) + nbytes
        self.peak = max(self.peak, self.in_use)

    def _release(self, allocation: Allocation) -> None:
        self.in_use -= allocation.nbytes
        self.by_tag[allocation.tag] = self.by_tag.get(allocation.tag, 0) - allocation.nbytes

    @contextlib.contextmanager
    def scoped(self, tag: str, nbytes: Bytes) -> Iterator[Allocation]:
        """Allocation freed automatically at scope exit."""
        allocation = self.alloc(tag, nbytes)
        try:
            yield allocation
        finally:
            allocation.free()

    def __repr__(self) -> str:
        cap = "unlimited" if self.capacity is None else f"{self.capacity}B"
        return (
            f"MemoryPool(name={self.name!r}, in_use={self.in_use}B, "
            f"peak={self.peak}B, capacity={cap})"
        )


def reserve_all(pools: Iterable[MemoryPool], tag: str,
                nbytes: Iterable[Bytes]) -> List[Allocation]:
    """Reserve ``nbytes[i]`` in ``pools[i]``, in order, all or nothing:
    the first :class:`~repro.errors.DeviceOutOfMemoryError` is raised
    once the reservations already made are released."""
    allocations = []
    try:
        for pool, size in zip(pools, nbytes):
            allocations.append(pool.alloc(tag, size))
    except DeviceOutOfMemoryError:
        for allocation in allocations:
            allocation.free()
        raise
    return allocations
