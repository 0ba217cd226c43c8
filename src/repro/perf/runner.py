"""Parallel, cached execution of experiment simulation units.

``run_all("bench")`` used to replay every table/figure serially even though
each experiment is itself a sweep of *independent* simulations (policies ×
workloads × ratios × bandwidths).  The :class:`ParallelRunner` fans those
units across a :class:`~concurrent.futures.ProcessPoolExecutor`:

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
  no write races.

``workers=0`` (the default) executes in-process with no pool: that is the
reference serial path, and what the determinism tests compare against.
``workers=1`` routes through the same in-process path — a single-worker
pool is strictly slower (spawn + pickling, no overlap) and produces the
same bytes.

Per-unit overhead is kept off the hot path two ways:

* **Warm pool reuse.**  The pool persists across ``run`` / ``run_many``
  calls (interpreters spawn once, not once per pass); it is torn down by
  :meth:`ParallelRunner.close` (or the context manager), or transparently
  rebuilt when the scale or tracing state changes.
* **Initializer-shared spec.**  The resolved scale (cluster spec included)
  and the tracing state ship to each worker *once*, through the pool
  initializer, instead of being pickled into every submitted unit.

Each executed unit also reports its pure simulation time
(``compute_s``), so harness overhead — spawn, pickling, cache stores —
is measurable as ``wall − compute`` (see ``scripts/bench_harness.py``).
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Optional, Sequence

from ..obs import recorder as _obs
from .cache import ResultCache

__all__ = ["ParallelRunner", "default_workers"]


def default_workers() -> int:
    """Worker count used for ``--parallel 0``-style "auto" requests.

    On a single-core machine a process pool is pure overhead (the measured
    0.94× "speedup" in ``BENCH_harness.json``), so auto-detection returns
    ``0`` there: the serial in-process path.
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


#: worker-side scale installed once by :func:`_pool_init` — submitted units
#: reference it instead of shipping the cluster spec with every task
_POOL_SCALE = None
#: worker-side tracing flag: when set, each unit records its lifecycle
#: events locally and ships them back with the payload
_POOL_TRACING = False


def _pool_init(scale, tracing: bool = False) -> None:
    """Pool-worker initializer: install shared read-only state.

    Runs once per worker process.  The resolved scale (with its cluster
    spec) and the parent's tracing state are installed here so each
    submitted unit carries only ``(experiment, key, seed, kwargs)``.
    """
    global _POOL_SCALE, _POOL_TRACING
    _POOL_SCALE = scale
    _POOL_TRACING = tracing


def _execute_unit_pooled(experiment: str, key, seed: int, kwargs: dict):
    """Worker-side unit entry: initializer-shared scale + compute timing.

    Returns ``(payload, compute_s, trace)`` where ``trace`` is ``None``
    untraced, else ``(rows, engine_stats)`` recorded by a per-unit local
    recorder.  The parent splices traces back in submission order, so the
    merged stream is byte-identical to a serial traced run.
    """
    t0 = time.perf_counter()
    if _POOL_TRACING:
        rec = _obs.enable()
        rec.begin_unit(f"{experiment}:{key}")
        try:
            payload = _execute_unit(experiment, _POOL_SCALE, key, seed, kwargs)
        finally:
            _obs.disable()
        return payload, time.perf_counter() - t0, (rec.rows, rec.engine_stats)
    payload = _execute_unit(experiment, _POOL_SCALE, key, seed, kwargs)
    return payload, time.perf_counter() - t0, None


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

    The pool is **persistent**: it spawns on first use and is reused by
    every subsequent ``run`` / ``run_many`` call (warm interpreters, warm
    imports), then torn down by :meth:`close` / the context manager.  A
    call with a different scale or tracing state rebuilds it, since both
    are installed worker-side through the pool initializer.

    Args:
        workers: process count.  ``0`` → run in-process (serial reference
            path); ``1`` also runs in-process — a one-worker pool pays
            process spawn plus pickling for zero concurrency and is
            strictly slower than serial; ``N ≥ 2`` fans out.
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
        #: pure simulation seconds summed over last run's executed units
        #: (measured where the unit ran); harness overhead = wall − this
        self.compute_s = 0.0
        #: wall seconds spent inside the last run's execute phase
        self.exec_wall_s = 0.0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_key = None  # (scale, tracing) the pool was built for

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    def _get_pool(self, sc) -> ProcessPoolExecutor:
        """Return the warm pool, (re)building it if scale/tracing changed
        (both ship to workers through the initializer)."""
        key = (sc, _obs.tracing())
        if self._pool is not None and key != self._pool_key:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_pool_init,
                initargs=key,
            )
            self._pool_key = key
        return self._pool

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_key = None

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

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
        self.compute_s = 0.0
        exec_start = time.perf_counter()
        try:
            return self._execute_inner(sc, specs)
        finally:
            self.exec_wall_s = time.perf_counter() - exec_start

    def _execute_inner(self, sc, specs: list[_UnitSpec]) -> dict[int, Any]:
        payloads: dict[int, Any] = {}
        to_run: list[_UnitSpec] = []
        for spec in specs:
            if spec.cache_key is not None and self.cache is not None:
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

        pool = self._get_pool(sc)
        # only (experiment, key, seed, kwargs) travels per unit — the scale
        # (cluster spec) and tracing state shipped once via the initializer
        futures = {
            pool.submit(
                _execute_unit_pooled, spec.experiment, spec.key, spec.seed, spec.kwargs
            ): spec
            for spec in to_run
        }
        pending = set(futures)
        traces: dict[int, tuple] = {}
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                spec = futures[future]
                payload, compute_s, trace = future.result()  # re-raises worker exceptions
                payloads[id(spec)] = payload
                if trace is not None:
                    traces[id(spec)] = trace
                self.compute_s += compute_s
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
        t0 = time.perf_counter()
        payload = _execute_unit(spec.experiment, sc, spec.key, spec.seed, spec.kwargs)
        self.compute_s += time.perf_counter() - t0
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
        if self.cache is not None and spec.cache_key is not None:
            meta = self.cache.key_material(spec.experiment, sc, spec.key, spec.seed, spec.kwargs)
            self.cache.put(spec.cache_key, payload, meta=meta)
