"""Fluid resource models: processor-sharing service and memory ledgers.

``SharedProcessor`` is the workhorse of the substrate.  It models a resource
with ``capacity`` service units (e.g. 32 CPU cores, or 1 disk spindle) and a
``unit_rate`` in MB/s per unit.  Active requests each occupy up to one unit;
when demand exceeds capacity every request slows down proportionally.  This
is exactly the fluid-flow model under which:

* a CPU monotask alone on an idle core runs at the core rate,
* over-subscribed CPUs (baseline §5.1.2) degrade everyone fairly,
* a single disk monotask gets the full disk bandwidth (paper §4.2.3), and
* concurrent disk/network requests share bandwidth equally.

Because every active request receives the *same* instantaneous speed, we can
track completion with a cumulative-service counter instead of per-request
bookkeeping: a request that arrives when the counter is ``C0`` finishes when
the counter reaches ``C0 + work``.  The request *is* its heap entry, a
``[target_service, seq, callback, args]`` list ordered like the engine's
``[time, seq, ...]`` entries, and the processor keeps only a count of the
live ones, so each state change costs O(log n).
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Optional

from ..series import StepSeries
from .engine import Simulation

__all__ = ["SharedProcessor", "MemoryLedger", "InsufficientMemoryError"]

_EPS = 1e-9


class SharedProcessor:
    """Equal-share fluid resource (CPU pool, disk, downlink).

    The heap entry is the request: :meth:`submit` returns a
    ``[target_service, seq, callback, args]`` list (``None`` for zero-size
    work) and :meth:`cancel` takes it back.  Completion and cancellation
    both clear the entry's callback, so withdrawing it twice is harmless:

    >>> sim = Simulation()
    >>> disk = SharedProcessor(sim, capacity=1, unit_rate=10.0)
    >>> done = []
    >>> a = disk.submit(40.0, done.append, "a")
    >>> b = disk.submit(40.0, done.append, "b")
    >>> disk.active_count, disk.per_request_speed()
    (2, 5.0)
    >>> sim.run(until=2.0)
    2.0
    >>> disk.cancel(b), disk.cancel(b), disk.active_count
    (30.0, 0.0, 1)
    >>> sim.run(), done, disk.cancel(a)
    (5.0, ['a'], 0.0)
    """

    def __init__(
        self,
        sim: Simulation,
        capacity: float,
        unit_rate: float,
        used_trace: Optional[StepSeries] = None,
        name: str = "",
    ):
        # written so NaN fails too: a NaN rate or capacity would spin the
        # event loop on NaN completion times instead of failing here
        for arg, value in (("capacity", capacity), ("unit_rate", unit_rate)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{arg} must be positive and finite, got {value!r}")
        self.sim = sim
        self.capacity = float(capacity)
        self.unit_rate = float(unit_rate)
        self.name = name
        self.used_trace = used_trace

        #: requests in service (submitted, neither finished nor cancelled)
        self.active_count = 0
        #: ``[target_service, seq, callback, args]`` entries; ``callback`` is
        #: None once finished or cancelled
        self._heap: list[list] = []
        self._seq = 0
        self._service = 0.0          # cumulative per-request service (MB)
        self._service_time = 0.0     # sim time when _service was last updated
        self._speed = 0.0            # current per-request speed (MB/s)
        self._completion_ev: Optional[list] = None  # engine heap entry

    # ------------------------------------------------------------------
    @property
    def units_in_use(self) -> float:
        """Service units currently driven (for utilization traces)."""
        return min(float(self.active_count), self.capacity)

    def per_request_speed(self) -> float:
        """Current MB/s each active request receives."""
        n = self.active_count
        if n == 0:
            return 0.0
        units = min(1.0, self.capacity / n)
        return units * self.unit_rate

    # ------------------------------------------------------------------
    def submit(self, work: float, callback: Callable[..., Any], *args: Any) -> Optional[list]:
        """Begin servicing ``work`` MB; run ``callback(*args)`` on completion.

        Returns the request's heap entry, which :meth:`cancel` accepts.
        Zero-size work returns ``None`` and completes via the event loop at
        the current instant, so callers always observe asynchronous
        completion.
        """
        if work < 0 or not math.isfinite(work):
            raise ValueError(f"work must be a finite non-negative size, got {work!r}")
        if work <= _EPS:
            self.sim.call_soon(callback, *args)
            return None
        self._advance()
        self._seq += 1
        entry = [self._service + work, self._seq, callback, args]
        heapq.heappush(self._heap, entry)
        self.active_count += 1
        self._reallocate()
        return entry

    def set_unit_rate(self, unit_rate: float) -> None:
        """Change the per-unit service rate mid-run (fault layer: straggler /
        slowdown injection).  Service already delivered is banked at the old
        rate first, then in-flight requests are rescheduled at the new one —
        a request sees exactly the integral of the rate over its lifetime."""
        if unit_rate <= 0 or not math.isfinite(unit_rate):
            raise ValueError(f"unit_rate must be positive and finite, got {unit_rate!r}")
        self._advance()
        self.unit_rate = float(unit_rate)
        self._reallocate()

    def cancel(self, entry: Optional[list]) -> float:
        """Abort a request; returns the amount of work left undone (MB), or
        0.0 for ``None`` and a request already finished or cancelled."""
        if entry is None or entry[2] is None:
            return 0.0
        self._advance()
        remaining = max(0.0, entry[0] - self._service)
        entry[2] = None
        entry[3] = ()
        self.active_count -= 1
        self._reallocate()
        return remaining

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        now = self.sim.now
        if now > self._service_time:
            self._service += self._speed * (now - self._service_time)
        self._service_time = now

    def _reallocate(self) -> None:
        self._speed = self.per_request_speed()
        if self.used_trace is not None:
            self.used_trace.record(self.sim.now, self.units_in_use)
        if self._completion_ev is not None:
            self.sim.cancel(self._completion_ev)
            self._completion_ev = None
        # drop finished/cancelled heap entries
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
        if not heap:
            return
        delay = max(0.0, (heap[0][0] - self._service) / self._speed)
        self._completion_ev = self.sim.schedule(delay, self._on_completion)

    def _on_completion(self) -> None:
        self._completion_ev = None
        self._advance()
        heap = self._heap
        finished: list[tuple[Callable[..., Any], tuple]] = []
        while heap:
            entry = heap[0]
            callback = entry[2]
            if callback is None:
                heapq.heappop(heap)
            elif entry[0] <= self._service + _EPS:
                heapq.heappop(heap)
                finished.append((callback, entry[3]))
                entry[2] = None
                entry[3] = ()
                self.active_count -= 1
            else:
                break
        self._reallocate()
        for callback, args in finished:
            callback(*args)


class InsufficientMemoryError(RuntimeError):
    """Raised when a strict memory allocation cannot be satisfied."""


class MemoryLedger:
    """Simple reserve/release accounting for a machine's (or cluster's) RAM.

    Memory has no service time in the paper's model — it is reserved for a
    task/container's lifetime (§4.2.1: "memory usage is relatively stable
    during the lifespan of a task") — so a counter with traces suffices.
    """

    def __init__(
        self,
        sim: Simulation,
        capacity_mb: float,
        used_trace: Optional[StepSeries] = None,
        name: str = "",
    ):
        if not (math.isfinite(capacity_mb) and capacity_mb > 0):
            raise ValueError(f"capacity_mb must be positive and finite, got {capacity_mb!r}")
        self.sim = sim
        self.capacity = float(capacity_mb)
        self.used = 0.0
        self.name = name
        self.used_trace = used_trace

    @property
    def available(self) -> float:
        return self.capacity - self.used

    def can_allocate(self, amount: float) -> bool:
        return amount <= self.available + _EPS

    def allocate(self, amount: float) -> None:
        if not 0 <= amount < math.inf:  # NaN fails too
            raise ValueError(
                f"memory to allocate must be finite and non-negative, got {amount!r}"
            )
        if not self.can_allocate(amount):
            raise InsufficientMemoryError(
                f"{self.name or 'memory'}: need {amount:.1f} MB, "
                f"only {self.available:.1f} of {self.capacity:.1f} MB free"
            )
        self.used += amount
        if self.used_trace is not None:
            self.used_trace.record(self.sim.now, self.used)

    def try_allocate(self, amount: float) -> bool:
        if 0 <= amount < math.inf and not self.can_allocate(amount):
            return False
        self.allocate(amount)  # a NaN, infinite or negative amount raises
        return True

    def release(self, amount: float) -> None:
        if not 0 <= amount <= self.used + _EPS:  # NaN fails too
            raise ValueError(
                f"{self.name or 'memory'}: memory to release must be between 0 "
                f"and the {self.used:.1f} MB allocated, got {amount!r}"
            )
        self.used = max(0.0, self.used - amount)
        if self.used_trace is not None:
            self.used_trace.record(self.sim.now, self.used)
