"""Discrete-event simulation engine.

The engine is the clock that every other subsystem in this reproduction runs
on: the cluster substrate, the Ursa scheduler, the executor-model baselines,
and the workload drivers all schedule callbacks here.

Design points (see DESIGN.md §5):

* Events are ordered by ``(time, seq)`` where ``seq`` is a monotonically
  increasing insertion counter.  Two events scheduled for the same instant
  therefore fire in the order they were scheduled, which makes every
  simulation run bit-for-bit deterministic.  The heap holds
  ``(time, seq, handle)`` tuples, so its comparisons run in C.
* Events are cancellable.  Cancellation is O(1): the handle is flagged and
  skipped when popped (lazy deletion), which is the standard heapq idiom.
* The engine never consults wall-clock time or global random state.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Optional

from ..obs import recorder as _obs
from ..rules import POS_INT

__all__ = ["EventHandle", "Simulation", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for invalid interactions with the simulation engine."""


class EventHandle:
    """A cancellable reference to a scheduled event.

    Instances are returned by :meth:`Simulation.schedule` and
    :meth:`Simulation.at`.  Holding a handle does not keep the event alive in
    any special way; it only allows cancellation and inspection.
    """

    __slots__ = ("time", "seq", "callback", "args", "_cancelled", "_fired", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        sim: Optional["Simulation"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self._cancelled = False
        self._fired = False
        self._sim = sim

    @property
    def cancelled(self) -> bool:
        """True if :meth:`cancel` was called before the event fired."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """True once the event's callback has been invoked."""
        return self._fired

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and may still fire."""
        return not (self._cancelled or self._fired)

    def cancel(self) -> bool:
        """Cancel the event.  Returns True if it was still pending."""
        if self.pending:
            self._cancelled = True
            # Drop references so cancelled events pinned in the heap do not
            # keep large closures (and the object graphs they capture) alive.
            self.callback = _noop
            self.args = ()
            if self._sim is not None:
                self._sim._event_cancelled()
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        return f"EventHandle(t={self.time:.6f}, seq={self.seq}, {state})"


def _noop(*_args: Any) -> None:
    return None


class Simulation:
    """A deterministic discrete-event simulation loop.

    Typical use::

        sim = Simulation()
        sim.schedule(1.5, print, "hello at t=1.5")
        sim.run()

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
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._running = False
        self._fired_count = 0
        # live counters so events_pending is O(1) and the heap can be
        # compacted once lazily-cancelled entries dominate it
        self._pending_count = 0
        self._cancelled_in_heap = 0
        # observability hook, bound once at construction so the step loop
        # pays a single None check when tracing is off (enable the recorder
        # before building the Simulation); telemetry registers the engine
        # for lazy end-of-unit harvesting — deliberately not a per-event hook
        rec = _obs.RECORDER
        self._observer = rec.attach_engine(self) if rec is not None else None

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
        return self._pending_count

    # ------------------------------------------------------------------
    # internal bookkeeping (live counters + heap compaction)
    # ------------------------------------------------------------------
    def _event_cancelled(self) -> None:
        """Called by :meth:`EventHandle.cancel` while the event is in the heap."""
        self._pending_count -= 1
        self._cancelled_in_heap += 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Rebuild the heap once cancelled entries exceed half of it.

        Lazy deletion keeps :meth:`EventHandle.cancel` O(1), but a long
        oversubscription run that cancels most of what it schedules (e.g. the
        table5 sweep) would otherwise let dead entries dominate the heap —
        bloating memory and slowing every push/pop by the log of the junk.
        """
        heap = self._heap
        if len(heap) < self.COMPACT_MIN_SIZE or 2 * self._cancelled_in_heap <= len(heap):
            return
        self._heap = [entry for entry in heap if not entry[2]._cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        if not math.isfinite(delay):
            raise SimulationError(f"delay must be finite (delay={delay!r})")
        return self.at(self.now + delay, callback, *args)

    def at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run at absolute simulation time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (t={time!r} < now={self.now!r})"
            )
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite (t={time!r})")
        ev = EventHandle(time, self._seq, callback, args, sim=self)
        heapq.heappush(self._heap, (time, self._seq, ev))
        self._seq += 1
        self._pending_count += 1
        return ev

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at the current instant (after queued
        same-instant events)."""
        return self.at(self.now, callback, *args)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next pending event.  Returns False if none left."""
        while self._heap:
            ev = heapq.heappop(self._heap)[2]
            if ev._cancelled:
                self._cancelled_in_heap -= 1
                continue
            if ev.time < self.now:  # pragma: no cover - defensive
                raise SimulationError("event queue corrupted: time went backwards")
            self.now = ev.time
            ev._fired = True
            self._pending_count -= 1
            self._fired_count += 1
            if self._observer is not None:
                self._observer(ev)
            ev.callback(*ev.args)
            return True
        return False

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
            while self._heap:
                time, _seq, nxt = self._heap[0]
                if nxt._cancelled:
                    heapq.heappop(self._heap)
                    self._cancelled_in_heap -= 1
                    continue
                if until is not None and time > until:
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
