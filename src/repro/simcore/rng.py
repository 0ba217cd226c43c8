"""Deterministic randomness helpers.

All stochastic choices in this reproduction (workload generation, skew
multipliers, machine heterogeneity) flow through seeded
``numpy.random.Generator`` instances derived here.  Nothing in the package
touches the global ``numpy.random`` state or ``random`` module, so any run is
reproducible from a single integer seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_rng", "spawn_rng", "lognormal_multipliers"]


def derive_rng(seed: int, *names: object) -> np.random.Generator:
    """Create a Generator deterministically derived from ``seed`` and a path.

    ``derive_rng(7, "tpch", 3)`` always yields the same stream, and streams
    with different paths are statistically independent (SeedSequence spawning
    keys on the hashed path).
    """
    key = [seed] + [_name_to_int(n) for n in names]
    return np.random.default_rng(np.random.SeedSequence(key))


def spawn_rng(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Split one generator into ``n`` independent child generators."""
    seeds = rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def lognormal_multipliers(
    rng: np.random.Generator, n: int, sigma: float, clip: float = 8.0
) -> np.ndarray:
    """Mean-one lognormal multipliers used for task-size skew.

    The paper's workloads have skewed intermediate data (§2, §5); we model a
    task's deviation from the stage-average size with a lognormal whose mean
    is exactly 1 so stage totals are preserved in expectation.  The stream
    is drawn element by element, so one call for ``k·n`` multipliers gives
    the bytes of ``k`` successive calls for ``n``.
    """
    if n <= 0:
        return np.empty(0)
    if sigma <= 0:
        return np.ones(n)
    mu = -0.5 * sigma * sigma  # E[lognormal(mu, sigma)] == 1
    vals = rng.lognormal(mean=mu, sigma=sigma, size=n)
    # np.clip's bytes at half its per-call overhead
    return np.minimum(np.maximum(vals, 1.0 / clip), clip)


def _name_to_int(name: object) -> int:
    if isinstance(name, (int, np.integer)):
        return int(name) & 0x7FFFFFFF
    # Stable, platform-independent string hash (FNV-1a 32-bit).
    h = 2166136261
    for byte in str(name).encode("utf-8"):
        h = ((h ^ byte) * 16777619) & 0xFFFFFFFF
    return h
