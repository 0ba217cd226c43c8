"""Discrete-event simulation engine.

The engine is the clock that every other subsystem in this reproduction runs
on: the cluster substrate, the Ursa scheduler, the executor-model baselines,
and the workload drivers all schedule callbacks here.

Design points (see DESIGN.md §5):

* Events are ordered by ``(time, seq)`` where ``seq`` is a monotonically
  increasing insertion counter.  Two events scheduled for the same instant
  therefore fire in the order they were scheduled, which makes every
  simulation run bit-for-bit deterministic.
* The heap entry is the event: a ``[time, seq, callback, args]`` list,
  compared in C.  Scheduling returns it, and :meth:`Simulation.cancel`
  takes it back: the entry's callback becomes ``None`` and the entry is
  skipped when popped (lazy deletion, the standard heapq idiom).  Firing
  clears the callback too, so an entry with a callback is still pending.
* The engine never consults wall-clock time or global random state.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Optional

from ..obs import recorder as _obs
from ..rules import POS_INT

__all__ = ["Simulation", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for invalid interactions with the simulation engine."""


class Simulation:
    """A deterministic discrete-event simulation loop.

    Typical use:

    >>> sim = Simulation()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "at 1.5")
    >>> late = sim.schedule(2.0, fired.append, "at 2.0")
    >>> sim.cancel(late), sim.cancel(late)
    (True, False)
    >>> sim.events_pending
    1
    >>> sim.run()
    1.5
    >>> fired, sim.events_fired, sim.events_pending
    (['at 1.5'], 1, 0)

    The loop is re-entrant with respect to scheduling: callbacks may schedule
    further events (including at the current instant, which fire later in the
    same instant but after already-queued same-instant events).
    """

    #: never compact heaps smaller than this — rebuilding tiny heaps costs
    #: more than lazily skipping their cancelled entries
    COMPACT_MIN_SIZE = 64

    def __init__(self) -> None:
        #: current simulation time in seconds (read-only to callers)
        self.now = 0.0
        self._seq = 0
        #: ``[time, seq, callback, args]`` entries; ``callback`` is None once
        #: cancelled or fired
        self._heap: list[list] = []
        #: cancelled entries still in the heap
        self._dead = 0
        self._running = False
        self._fired_count = 0
        # the observation seam (if on) counts this engine under its current
        # unit, reading events_fired and the clock when it needs them: the
        # step loop has no observer call (enable the seam before building)
        rec = _obs.RECORDER
        if rec is not None:
            rec.register_engine(self)

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def events_fired(self) -> int:
        """Number of callbacks executed so far (for diagnostics)."""
        return self._fired_count

    @property
    def events_pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events (O(1))."""
        return len(self._heap) - self._dead

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> list:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        if not math.isfinite(delay):
            raise SimulationError(f"delay must be finite (delay={delay!r})")
        return self.at(self.now + delay, callback, *args)

    def at(self, time: float, callback: Callable[..., Any], *args: Any) -> list:
        """Schedule ``callback(*args)`` to run at absolute simulation time;
        returns the heap entry, which :meth:`cancel` accepts."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (t={time!r} < now={self.now!r})"
            )
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite (t={time!r})")
        entry = [time, self._seq, callback, args]
        heapq.heappush(self._heap, entry)
        self._seq += 1
        return entry

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> list:
        """Schedule ``callback(*args)`` at the current instant (after queued
        same-instant events)."""
        return self.at(self.now, callback, *args)

    def cancel(self, entry: list) -> bool:
        """Cancel a scheduled entry.  Returns True if it was still pending.

        Cancelled entries stay in the heap until popped, and their callback
        and arguments are dropped so they pin no object graphs.  Once they
        are more than half of a heap of at least :attr:`COMPACT_MIN_SIZE`
        entries, the heap is rebuilt without them — in place, so no loop
        holding the heap list mid-run is left stepping a stale copy.
        """
        if entry[2] is None:
            return False
        entry[2] = None
        entry[3] = ()
        self._dead += 1
        heap = self._heap
        if len(heap) >= self.COMPACT_MIN_SIZE and 2 * self._dead > len(heap):
            heap[:] = [e for e in heap if e[2] is not None]
            heapq.heapify(heap)
            self._dead = 0
        return True

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def _head(self) -> Optional[list]:
        """The next pending entry, once the cancelled entries on top of the
        heap are dropped; None if there is none."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2] is not None:
                return entry
            heapq.heappop(heap)
            self._dead -= 1
        return None

    def step(self) -> bool:
        """Fire the single next pending event.  Returns False if none left."""
        entry = self._head()
        if entry is None:
            return False
        heapq.heappop(self._heap)
        time, _seq, callback, args = entry
        if time < self.now:  # pragma: no cover - defensive
            raise SimulationError("event queue corrupted: time went backwards")
        entry[2] = None
        self.now = time
        self._fired_count += 1
        callback(*args)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the event loop.

        Args:
            until: stop once the clock would pass this time.  The clock is
                advanced to ``until`` even if the queue drains earlier.
            max_events: safety valve; raise if more events than this fire.

        Returns:
            The simulation time when the loop stopped.
        """
        if self._running:
            raise SimulationError("Simulation.run() is not re-entrant")
        # a NaN bound compares false with every event time and an infinite
        # one parks the clock at inf, so both are refused, as is a valve
        # that cannot count events
        if until is not None and not math.isfinite(until):
            raise SimulationError(f"until must be None or a finite time, got {until!r}")
        if max_events is not None and not POS_INT.ok(max_events):
            raise SimulationError(f"max_events must be None or a positive int, got {max_events!r}")
        self._running = True
        fired = 0
        try:
            while (head := self._head()) is not None:
                if until is not None and head[0] > until:
                    break
                self.step()
                fired += 1
                if max_events is not None and fired > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a livelock"
                    )
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
        return self.now

    def drain(self, max_events: int = 50_000_000) -> float:
        """Run until the event queue is empty and return the final time."""
        return self.run(until=None, max_events=max_events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulation(now={self.now:.6f}, pending={self.events_pending})"
