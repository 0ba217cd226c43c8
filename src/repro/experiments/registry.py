"""Index of every reproduced table/figure → its experiment.

``SPLIT_EXPERIMENTS`` maps each name to its enumerate/run-one/reduce triple
(see :mod:`repro.perf.units`), which
:class:`~repro.perf.runner.ParallelRunner` fans across worker processes and
caches per unit.  ``run_all`` drives it, so the whole suite can run parallel
and cached; with ``parallel=0`` and no cache it runs every unit serially
in-process, as each module's own ``run(scale)`` does.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..perf.cache import ResultCache
from ..perf.runner import ParallelRunner
from ..perf.units import SplitExperiment
from . import (
    fig4_fig5_traces,
    fig6_network,
    fig7_stageaware,
    fig8_fig9_fig10_synthetic,
    fig_faults,
    fig_service,
    table1_fig1_single_jobs,
    table2_tpch,
    table3_tpcds,
    table4_mixed,
    table5_oversub,
    table6_ordering,
)

__all__ = ["SPLIT_EXPERIMENTS", "run_all"]

SPLIT_EXPERIMENTS: dict[str, SplitExperiment] = {
    "table1+fig1": table1_fig1_single_jobs.SPLIT,
    "table2": table2_tpch.SPLIT,
    "table3": table3_tpcds.SPLIT,
    "table4": table4_mixed.SPLIT,
    "table5": table5_oversub.SPLIT,
    "table6": table6_ordering.SPLIT,
    "fig4+fig5": fig4_fig5_traces.SPLIT,
    "fig6": fig6_network.SPLIT,
    "fig7+sec5.2": fig7_stageaware.SPLIT,
    "fig8": fig8_fig9_fig10_synthetic.SPLIT_FIG8,
    "fig9": fig8_fig9_fig10_synthetic.SPLIT_FIG9,
    "fig10": fig8_fig9_fig10_synthetic.SPLIT_FIG10,
    "fig_faults": fig_faults.SPLIT,
    "fig_service": fig_service.SPLIT,
}


def run_all(
    scale: str = "bench",
    parallel: int = 0,
    cache_dir: Optional[str] = None,
    only: Optional[Sequence[str]] = None,
    seed: int = 0,
    runner: Optional[ParallelRunner] = None,
) -> dict:
    """Regenerate every table and figure at the given scale.

    Args:
        scale: one of ``tiny`` / ``bench`` / ``paper`` (or a Scale object).
        parallel: worker-process count; ``0`` runs serially in-process.
        cache_dir: if given, unit results are cached there and unchanged
            units are skipped on re-run.
        only: restrict to a subset of experiment names.
        seed: base seed forwarded to every experiment.
        runner: a prebuilt :class:`ParallelRunner` (overrides ``parallel`` /
            ``cache_dir``); callers can inspect its unit counters afterwards.
    """
    names = list(SPLIT_EXPERIMENTS) if only is None else list(only)
    unknown = [n for n in names if n not in SPLIT_EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments {unknown}; known: {sorted(SPLIT_EXPERIMENTS)}")
    if runner is None:
        cache = ResultCache(cache_dir) if cache_dir else None
        runner = ParallelRunner(workers=parallel, cache=cache)
    if len(names) == 1:
        print(f"\n=== {names[0]} ===")
    return runner.run_many(names, scale, seed=seed)


if __name__ == "__main__":  # pragma: no cover
    import sys

    run_all(sys.argv[1] if len(sys.argv) > 1 else "bench")
