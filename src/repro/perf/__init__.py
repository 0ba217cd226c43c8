"""Parallel, cached execution layer for the experiment suite.

See DESIGN.md §"Perf harness": :class:`ParallelRunner` fans the independent
simulation units that every experiment enumerates (via
:class:`SplitExperiment`) across a process pool, and :class:`ResultCache`
content-addresses finished units so unchanged experiments are skipped on
re-run.
"""

from .cache import ResultCache
from .fingerprint import clear_fingerprint_cache, source_fingerprint
from .runner import ParallelRunner, default_workers
from .units import SplitExperiment

__all__ = [
    "ParallelRunner",
    "ResultCache",
    "SplitExperiment",
    "clear_fingerprint_cache",
    "default_workers",
    "source_fingerprint",
]
