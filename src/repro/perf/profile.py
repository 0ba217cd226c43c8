"""Opt-in hot-path profiler for the scheduling tick.

The per-tick scheduling loop (policy refresh → queue resort → ready-stage
gathering → Algorithm-1 placement → dispatch) dominates single-simulation
wall time, so this module gives it counters and phase timers that cost
*nothing* when disabled: the scheduler reads one module global
(:data:`PROFILER`) per tick / placement round and skips every
instrumentation branch while it is ``None``.

Usage::

    from repro.perf import profile

    prof = profile.enable()
    ...run simulations...
    print(profile.disable().report())

or via the CLI: ``python -m repro.experiments --profile --only fig7
--scale tiny`` (profiling forces serial in-process execution — worker
processes would not share the parent's profiler).

Counters (cumulative over every tick while enabled):

* ``ticks`` / ``assignments`` — scheduling rounds run, tasks placed.
* ``resort_ticks`` — rounds that actually re-sorted worker queues
  (statically-ranked policies elide the resort entirely).
* ``stages_scored`` — StageScore evaluations, including lazy-heap
  re-evaluations.
* ``tasks_scored`` — best-worker searches (one per task per StageScore).
* ``workers_scanned`` — candidate workers considered across all searches.
* ``heap_repushes`` — stale lazy-heap tops that were re-pushed.
* ``vector_rows`` / ``vector_fallbacks`` / ``vector_rebuilds`` —
  placement-engine activity (profile rows computed, single-pair scores for
  locality-pinned tasks, numpy column builds).  A workload whose tasks
  share no profile shows up as ``vector_rows`` approaching
  ``tasks_scored``.

Phase timers are wall-clock nanoseconds per tick phase, measured with
:func:`time.perf_counter_ns`.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["TickProfiler", "PROFILER", "enable", "disable"]

_PHASES = ("refresh", "resort", "ready", "place", "dispatch")


class TickProfiler:
    """Counters + per-phase timers for the scheduling-tick hot path."""

    __slots__ = (
        "ticks", "assignments", "resort_ticks", "stages_scored",
        "tasks_scored", "workers_scanned", "heap_repushes",
        "vector_rows", "vector_fallbacks", "vector_rebuilds", "phase_ns",
    )

    def __init__(self):
        self.ticks = 0
        self.assignments = 0
        self.resort_ticks = 0
        self.stages_scored = 0
        self.tasks_scored = 0
        self.workers_scanned = 0
        self.heap_repushes = 0
        self.vector_rows = 0
        self.vector_fallbacks = 0
        self.vector_rebuilds = 0
        self.phase_ns = {name: 0 for name in _PHASES}

    # ------------------------------------------------------------------
    def record_tick(
        self,
        refresh_ns: int,
        resort_ns: int,
        ready_ns: int,
        place_ns: int,
        dispatch_ns: int,
        assignments: int,
    ) -> None:
        self.ticks += 1
        self.assignments += assignments
        ns = self.phase_ns
        ns["refresh"] += refresh_ns
        ns["resort"] += resort_ns
        ns["ready"] += ready_ns
        ns["place"] += place_ns
        ns["dispatch"] += dispatch_ns

    @property
    def total_ns(self) -> int:
        return sum(self.phase_ns.values())

    def merge(self, other: "TickProfiler") -> None:
        """Fold another profiler's numbers into this one."""
        for name in self.__slots__:
            if name == "phase_ns":
                for phase, ns in other.phase_ns.items():
                    self.phase_ns[phase] = self.phase_ns.get(phase, 0) + ns
            else:
                setattr(self, name, getattr(self, name) + getattr(other, name))

    # ------------------------------------------------------------------
    def report(self) -> str:
        """Human-readable per-phase tick counter report."""
        lines = [
            f"scheduling-tick profile: {self.ticks} ticks, "
            f"{self.assignments} assignments"
        ]
        total = self.total_ns or 1
        ticks = self.ticks or 1
        lines.append(f"  {'phase':<10} {'total ms':>10} {'per-tick us':>12} {'share':>7}")
        for name in _PHASES:
            ns = self.phase_ns[name]
            lines.append(
                f"  {name:<10} {ns / 1e6:>10.2f} {ns / ticks / 1e3:>12.1f} "
                f"{100.0 * ns / total:>6.1f}%"
            )
        lines.append(
            f"  counters: resort_ticks={self.resort_ticks} "
            f"(elided={self.ticks - self.resort_ticks}), "
            f"stages_scored={self.stages_scored} "
            f"({self.stages_scored / ticks:.1f}/tick), "
            f"tasks_scored={self.tasks_scored}, "
            f"workers_scanned={self.workers_scanned} "
            f"({self.workers_scanned / max(self.tasks_scored, 1):.1f}/task), "
            f"heap_repushes={self.heap_repushes}"
        )
        if self.tasks_scored:
            lines.append(
                f"  placement engine: profile_rows={self.vector_rows} "
                f"({self.tasks_scored / max(self.vector_rows, 1):.1f} "
                f"tasks/row), "
                f"pinned_pairs={self.vector_fallbacks}, "
                f"array_rebuilds={self.vector_rebuilds}"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """Counters as plain data (for JSON baselines / assertions)."""
        out = {
            "ticks": self.ticks,
            "assignments": self.assignments,
            "resort_ticks": self.resort_ticks,
            "stages_scored": self.stages_scored,
            "tasks_scored": self.tasks_scored,
            "workers_scanned": self.workers_scanned,
            "heap_repushes": self.heap_repushes,
            "vector_rows": self.vector_rows,
            "vector_fallbacks": self.vector_fallbacks,
            "vector_rebuilds": self.vector_rebuilds,
        }
        out.update({f"{name}_ns": ns for name, ns in self.phase_ns.items()})
        return out


#: The active profiler, or ``None`` when profiling is off.  Hot paths read
#: this exactly once per tick / placement round.
PROFILER: Optional[TickProfiler] = None


def enable() -> TickProfiler:
    """Install (and return) a fresh global profiler."""
    global PROFILER
    PROFILER = TickProfiler()
    return PROFILER


def disable() -> Optional[TickProfiler]:
    """Uninstall the global profiler and return it (None if not enabled)."""
    global PROFILER
    prof, PROFILER = PROFILER, None
    return prof
