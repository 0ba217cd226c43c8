"""A simulated worker machine.

A machine bundles the fluid resources of one server plus the two accounting
ledgers the paper's metrics need (§5 "Performance metrics"):

* *allocation* ledgers — core-seconds / memory-seconds **reserved** (by a
  container in the baselines, or held by a running monotask in Ursa).  Their
  integral is the ``X`` in ``SE = X / Y``.
* *usage* ledgers — core-seconds / memory actually **driven**.  Their
  integral is the ``Z`` in ``UE = Z / X``.

The CPU pool is deliberately *not* capped at the allocated core count: a
baseline that oversubscribes (allocates more advertised cores than physical
ones, §5.1.2) simply ends up with more concurrent compute phases than cores,
and the SharedProcessor slows everyone down — contention emerges rather than
being modelled explicitly.
"""

from __future__ import annotations

import math
from typing import Optional

from ..series import StepSeries
from ..simcore.engine import Simulation
from ..simcore.resources import MemoryLedger, SharedProcessor
from .spec import MachineSpec

__all__ = ["Machine"]


class Machine:
    """One simulated server: CPU pool, disk, memory, and ledgers."""

    def __init__(self, sim: Simulation, index: int, spec: MachineSpec):
        self.sim = sim
        self.index = index
        self.spec = spec

        prefix = f"m{index}"
        self.cpu_used = StepSeries()
        self.cpu_alloc = StepSeries()
        self.mem_used = StepSeries()
        self.mem_alloc = StepSeries()
        self.disk_used = StepSeries()
        self.net_used = StepSeries()

        self.cpu = SharedProcessor(
            sim,
            capacity=spec.cores,
            unit_rate=spec.core_rate_mbps,
            used_trace=self.cpu_used,
            name=f"{prefix}.cpu",
        )
        self.disk = SharedProcessor(
            sim,
            capacity=spec.disks,
            unit_rate=spec.disk_mbps,
            used_trace=self.disk_used,
            name=f"{prefix}.disk",
        )
        # The physical ledger tracks *reservations* (containers or Ursa task
        # memory) and feeds the allocation trace; actual usage is recorded
        # separately via use_memory()/unuse_memory().
        self.memory = MemoryLedger(
            sim, spec.memory_mb, used_trace=self.mem_alloc, name=f"{prefix}.mem"
        )

        self._alloc_cores = 0.0
        self._mem_in_use = 0.0
        #: the placement engine's dirty set, attached through
        #: ``Worker.watch``: free memory is an input of the machine's
        #: Algorithm-1 row, so every reservation change adds ``index``
        self.dirty: Optional[set[int]] = None

    # ------------------------------------------------------------------
    # allocation ledgers (SE accounting + scheduler availability view)
    # ------------------------------------------------------------------
    @property
    def allocated_cores(self) -> float:
        return self._alloc_cores

    @property
    def allocated_memory(self) -> float:
        return self.memory.used

    @property
    def memory_in_use(self) -> float:
        return self._mem_in_use

    def reserve_cores(self, n: float) -> None:
        """Reserve ``n`` advertised cores (may exceed physical under
        over-subscription policies; the CPU pool will then contend)."""
        if not 0 <= n < math.inf:  # NaN fails too
            raise ValueError(f"cores to reserve must be finite and non-negative, got {n!r}")
        self._alloc_cores += n
        self.cpu_alloc.record(self.sim.now, self._alloc_cores)

    def release_cores(self, n: float) -> None:
        if not 0 <= n <= self._alloc_cores + 1e-9:  # NaN fails too
            raise ValueError(
                f"m{self.index}: cores to release must be between 0 and the "
                f"{self._alloc_cores} reserved, got {n!r}"
            )
        self._alloc_cores = max(0.0, self._alloc_cores - n)
        self.cpu_alloc.record(self.sim.now, self._alloc_cores)

    def reserve_memory(self, mb: float) -> None:
        """Reserve (allocate) memory: capacity-checked, drives mem_alloc."""
        self.memory.allocate(mb)
        self._memory_changed()

    def try_reserve_memory(self, mb: float) -> bool:
        ok = self.memory.try_allocate(mb)
        if ok:
            self._memory_changed()
        return ok

    def release_memory(self, mb: float) -> None:
        self.memory.release(mb)
        self._memory_changed()

    def _memory_changed(self) -> None:
        dirty = self.dirty
        if dirty is not None:
            dirty.add(self.index)

    def use_memory(self, mb: float) -> None:
        """Record actual memory usage (the Z of UE_mem), no capacity check:
        usage always fits inside some reservation."""
        if not 0 <= mb < math.inf:  # NaN fails too
            raise ValueError(f"memory to use must be finite and non-negative, got {mb!r}")
        self._mem_in_use += mb
        self.mem_used.record(self.sim.now, self._mem_in_use)

    def unuse_memory(self, mb: float) -> None:
        if not 0 <= mb <= self._mem_in_use + 1e-6:  # NaN fails too
            raise ValueError(
                f"m{self.index}: memory to un-use must be between 0 and the "
                f"{self._mem_in_use:.1f} MB in use, got {mb!r}"
            )
        self._mem_in_use = max(0.0, self._mem_in_use - mb)
        self.mem_used.record(self.sim.now, self._mem_in_use)

    # ------------------------------------------------------------------
    @property
    def idle_cores(self) -> float:
        """Advertised cores not currently reserved."""
        return max(0.0, self.spec.cores - self._alloc_cores)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine(m{self.index}, cores={self.spec.cores}, "
            f"alloc={self._alloc_cores:.0f}, running={self.cpu.active_count})"
        )
