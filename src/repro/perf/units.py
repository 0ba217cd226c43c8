"""The enumerate / run-one / reduce contract every experiment implements.

An experiment that wants to run under the :class:`~repro.perf.runner.\
ParallelRunner` splits itself into three module-level functions:

``unit_keys(scale, **kwargs) -> list``
    Enumerate the independent simulation configurations (one per system,
    per subscription ratio, per bandwidth, ...).  Keys must be hashable,
    picklable and ``repr``-stable — they address both worker processes and
    cache entries.

``run_unit(scale, key, seed=0, **kwargs) -> payload``
    Run exactly one configuration to completion and return a **picklable**
    payload (metrics, series, scalars — never a live ``System``/``Cluster``
    handle).  Must be deterministic given ``(scale, key, seed, kwargs)``:
    each unit builds its own simulation and derives randomness only from
    the explicit seed, so results are bit-identical no matter which process
    runs the unit or in which order.

``reduce(scale, payloads, **kwargs) -> result``
    Assemble the per-unit payloads (a dict keyed by unit key, in
    ``unit_keys`` order) into the experiment's result dict and print its
    table/figure.  Pure post-processing — no simulation here.

The module wraps the three in a :class:`SplitExperiment` so the registry
and runner can drive any experiment uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["SplitExperiment"]


@dataclass(frozen=True)
class SplitExperiment:
    """One experiment's enumerate / run-one / reduce triple.

    ``display_kwargs`` names kwargs that only affect the reduce-side
    presentation (chart printing etc.): they are withheld from ``unit_keys``
    and ``run_unit`` — and therefore from cache keys — so toggling them
    never invalidates or re-runs a simulation.
    """

    name: str
    unit_keys: Callable[..., list]
    run_unit: Callable[..., Any]
    reduce: Callable[..., Any]
    display_kwargs: tuple = ("show_charts",)

    def split_kwargs(self, kwargs: dict) -> tuple[dict, dict]:
        """Partition kwargs into (simulation, display-only)."""
        sim = {k: v for k, v in kwargs.items() if k not in self.display_kwargs}
        display = {k: v for k, v in kwargs.items() if k in self.display_kwargs}
        return sim, display
