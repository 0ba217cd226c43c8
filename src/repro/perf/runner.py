"""Parallel, cached execution of experiment simulation units.

Each experiment is a sweep of *independent* simulations (policies ×
workloads × ratios × bandwidths).  The :class:`ParallelRunner` runs those
units in-process or fans them across a
:class:`~concurrent.futures.ProcessPoolExecutor`:

* Units are enumerated up front (see :mod:`repro.perf.units`) and submitted
  all at once — across experiments too, so a wide sweep keeps every core
  busy instead of draining one experiment at a time.
* Every unit seeds its own simulation from ``(scale, key, seed)``; payload
  dicts are assembled in ``unit_keys()`` order, so results are bit-identical
  to the serial path no matter how the pool interleaves them.
* With a :class:`~repro.perf.cache.ResultCache` attached, finished units are
  stored content-addressed and later runs skip every unit whose key (config
  + scale + seed + source fingerprint) is unchanged.  The cache is read and
  written only by the parent process — workers stay stateless and there are
  no write races.  While an observer is installed (a trace or telemetry on
  ``obs.recorder.RECORDER``) the cache is written but not read: a cached
  payload carries no event rows, so an observed run executes every unit.

``workers=0`` (the default) executes in-process with no pool: that is the
reference serial path, what every experiment module's ``run()`` takes, and
what the determinism tests compare against.  ``workers=1`` routes through
the same in-process path — a single-worker pool is strictly slower (spawn +
pickling, no overlap) and produces the same bytes.  ``workers ≥ 2`` opens
one pool per call and shuts it down before the call returns, so no worker
process outlives a ``run`` / ``run_many``.
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Optional, Sequence

from ..obs import recorder as _obs
from .cache import ResultCache

__all__ = ["ParallelRunner", "default_workers"]


def default_workers() -> int:
    """Worker count used for ``--parallel 0``-style "auto" requests.

    On a single-core machine a process pool is pure overhead (spawn and
    pickling with nothing to overlap), so auto-detection returns ``0``
    there: the serial in-process path.
    """
    n = os.cpu_count() or 1
    return n if n > 1 else 0


def _split_registry():
    # lazy: repro.experiments.registry imports the experiment modules, which
    # import repro.perf.units — importing it at module scope would cycle.
    from ..experiments.registry import SPLIT_EXPERIMENTS

    return SPLIT_EXPERIMENTS


def _resolve_scale(scale):
    from ..experiments.common import SCALES

    return SCALES[scale] if isinstance(scale, str) else scale


def _execute_unit(experiment: str, scale, key, seed: int, kwargs: dict) -> Any:
    """Run one simulation unit (top-level so it pickles into workers)."""
    split = _split_registry()[experiment]
    return split.run_unit(scale, key, seed=seed, **kwargs)


def _execute_unit_pooled(experiment: str, scale, key, seed: int, kwargs: dict, tracing: bool):
    """Worker-side unit entry.

    Returns ``(payload, trace)`` where ``trace`` is ``None`` untraced, else
    ``(rows, engine_stats)`` recorded by a per-unit local recorder.  The
    parent splices traces back in submission order, so the merged stream is
    byte-identical to a serial traced run.
    """
    if not tracing:
        return _execute_unit(experiment, scale, key, seed, kwargs), None
    rec = _obs.enable()
    rec.begin_unit(f"{experiment}:{key}")
    try:
        payload = _execute_unit(experiment, scale, key, seed, kwargs)
    finally:
        _obs.disable()
    return payload, (rec.rows, rec.engine_stats())


class _UnitSpec:
    """One schedulable simulation unit plus its cache addressing."""

    __slots__ = ("experiment", "key", "seed", "kwargs", "cache_key")

    def __init__(self, experiment: str, key, seed: int, kwargs: dict, cache_key: Optional[str]):
        self.experiment = experiment
        self.key = key
        self.seed = seed
        self.kwargs = kwargs
        self.cache_key = cache_key


class ParallelRunner:
    """Fan independent simulation units across processes, with caching.

    Args:
        workers: process count.  ``0`` → run in-process (serial reference
            path); ``1`` also runs in-process — a one-worker pool pays
            process spawn plus pickling for zero concurrency and is
            strictly slower than serial; ``N ≥ 2`` fans out through a pool
            that lives for one call.
        cache: optional :class:`ResultCache`; hits skip execution entirely.
    """

    def __init__(self, workers: int = 0, cache: Optional[ResultCache] = None):
        if workers < 0:
            raise ValueError(f"workers must be >= 0 (got {workers})")
        self.workers = workers
        self.cache = cache
        #: units actually executed (cache misses) during the last run
        self.executed_units = 0
        #: units served from the cache during the last run
        self.cached_units = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, experiment: str, scale="bench", seed: int = 0, **kwargs) -> Any:
        """Run one experiment's units (parallel, cached) and reduce them."""
        return self.run_many([experiment], scale, seed=seed, **kwargs)[experiment]

    def run_many(
        self, experiments: Sequence[str], scale="bench", seed: int = 0, **kwargs
    ) -> dict[str, Any]:
        """Run several experiments' units through one shared pool.

        Units from *all* experiments are submitted together so the pool
        stays saturated; each experiment is then reduced (and its tables
        printed) in the order given.
        """
        registry = _split_registry()
        sc = _resolve_scale(scale)
        unknown = [name for name in experiments if name not in registry]
        if unknown:
            raise KeyError(f"unknown experiments {unknown}; known: {sorted(registry)}")

        specs: list[_UnitSpec] = []
        for name in experiments:
            sim_kwargs, _ = registry[name].split_kwargs(kwargs)
            for key in registry[name].unit_keys(sc, **sim_kwargs):
                cache_key = (
                    self.cache.key_for(name, sc, key, seed, sim_kwargs)
                    if self.cache is not None
                    else None
                )
                specs.append(_UnitSpec(name, key, seed, sim_kwargs, cache_key))

        payloads = self._execute(sc, specs)

        results: dict[str, Any] = {}
        for name in experiments:
            unit_payloads = {
                spec.key: payloads[id(spec)] for spec in specs if spec.experiment == name
            }
            if len(experiments) > 1:
                print(f"\n=== {name} ===")
            results[name] = registry[name].reduce(sc, unit_payloads, **kwargs)
        return results

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _execute(self, sc, specs: list[_UnitSpec]) -> dict[int, Any]:
        """Produce ``{id(spec): payload}`` for every unit, via cache, pool
        or in-process execution."""
        self.executed_units = 0
        self.cached_units = 0
        payloads: dict[int, Any] = {}
        to_run: list[_UnitSpec] = []
        # a cached payload carries no event rows: while a trace or telemetry
        # observes the run, every unit executes (and is still stored)
        read_cache = self.cache is not None and _obs.RECORDER is None
        for spec in specs:
            if read_cache:
                try:
                    payloads[id(spec)] = self.cache.get(spec.cache_key)
                    self.cached_units += 1
                    continue
                except KeyError:
                    pass
            to_run.append(spec)

        if not to_run:
            return payloads

        if self.workers <= 1:
            # workers == 1 is deliberately routed through the serial path:
            # the in-process pickle round-trip in _run_and_store keeps the
            # payloads byte-identical to what a pool worker would return,
            # without paying for a pool that cannot overlap anything.
            for spec in to_run:
                payloads[id(spec)] = self._run_and_store(sc, spec)
            return payloads

        # lazy: the pool and its multiprocessing stack load only when used
        from concurrent.futures import ProcessPoolExecutor, as_completed

        tracing = _obs.tracing()
        traces: dict[int, tuple] = {}
        with ProcessPoolExecutor(max_workers=min(self.workers, len(to_run))) as pool:
            futures = {
                pool.submit(
                    _execute_unit_pooled,
                    spec.experiment, sc, spec.key, spec.seed, spec.kwargs, tracing,
                ): spec
                for spec in to_run
            }
            for future in as_completed(futures):
                spec = futures[future]
                payload, trace = future.result()  # re-raises worker exceptions
                payloads[id(spec)] = payload
                if trace is not None:
                    traces[id(spec)] = trace
                self._store(sc, spec, payload)
                self.executed_units += 1
        rec = _obs.RECORDER
        if rec is not None and traces:
            # splice worker-recorded rows in *submission* order, not
            # completion order, so the merged stream (and everything derived
            # from it: attribution.json, trace files, digests) is
            # byte-identical to the serial traced run
            for spec in to_run:
                trace = traces.get(id(spec))
                if trace is not None:
                    rec.splice(f"{spec.experiment}:{spec.key}", *trace)
        return payloads

    def _run_and_store(self, sc, spec: _UnitSpec) -> Any:
        rec = _obs.RECORDER
        if rec is not None:
            # label the unit's rows so multi-unit traces and telemetry stay
            # separable (each unit restarts its sim clock at t=0)
            rec.begin_unit(f"{spec.experiment}:{spec.key}")
        payload = _execute_unit(spec.experiment, sc, spec.key, spec.seed, spec.kwargs)
        # Round-trip through pickle so the in-process path yields the same
        # object graph a pool worker would: without this, payloads from
        # different units share interned/constant objects (dict key strings
        # etc.), pickle memoizes the shared references, and serialized
        # serial results would not be byte-identical to parallel ones even
        # though every value matches.
        payload = pickle.loads(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        self._store(sc, spec, payload)
        self.executed_units += 1
        return payload

    def _store(self, sc, spec: _UnitSpec, payload: Any) -> None:
        if self.cache is not None:
            meta = self.cache.key_material(spec.experiment, sc, spec.key, spec.seed, spec.kwargs)
            self.cache.put(spec.cache_key, payload, meta=meta)
