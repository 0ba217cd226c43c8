"""Allocation-latency / queue-wait distributions derived from a trace.

This is the paper's Obj-2/Obj-4 evidence the aggregate SE/UE metrics can't
show: per-monotask, how long did it take from *resources requested* (the
monotask arriving at its worker, ready to run) to *resources granted* (the
worker starting it)?  Ursa's claim is that per-monotask request-at-ready /
release-on-completion allocation keeps this latency low even under load.

Derived metrics (all in simulation seconds):

* **allocation latency** (per resource type) — ``mt_start.t − queue_push.t``
  for queued monotasks; small-network bypass monotasks are granted at the
  ready instant and contribute ``0.0``.
* **queue wait** (per resource type) — the same difference, *queued
  monotasks only* (the bypass lane is excluded, so queue-wait isolates the
  queueing discipline while allocation latency covers every grant).
* **placement latency** — ``task_placed.t − task_ready.t``: how long a
  ready task waited for an Algorithm-1 batch (bounded by the scheduling
  interval when the cluster has headroom).
* **admission wait** — taken from the ``waited`` field of ``job_admit``
  (time spent in the memory-gated admission queue).

The samples come from the unit's one fold (:func:`repro.obs.critpath.\
fold_rows`); nothing here reruns a simulation, so ``scripts/trace_stats.py``
can re-derive the tables from a JSONL trace file alone.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence

from .critpath import UnitTrace

__all__ = ["Dist", "percentile", "dist", "derive_latency", "RESOURCE_ORDER"]

RESOURCE_ORDER = ("cpu", "network", "disk")


@dataclass(frozen=True)
class Dist:
    """Summary of one latency sample set (seconds).

    Zero-value contract: :meth:`zero` is the canonical empty summary —
    ``count == 0`` and every statistic exactly ``0.0``.  Consumers that
    need a row for an empty sample (the dashboard's latency panel, CSV
    export) render ``Dist.zero()`` rather than special-casing ``None``;
    a ``Dist`` with ``count == 0`` never means "zero-latency samples".
    For a single sample every percentile equals that sample.
    """

    count: int
    mean: float
    p25: float
    p50: float
    p75: float
    p95: float
    p99: float
    max: float

    @classmethod
    def zero(cls) -> "Dist":
        return cls(count=0, mean=0.0, p25=0.0, p50=0.0, p75=0.0,
                   p95=0.0, p99=0.0, max=0.0)

    def row(self) -> dict:
        return asdict(self)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of an already-sorted sample.

    Matches ``numpy.percentile``'s default (``linear``) method; pure python
    so trace post-processing has no hard numpy dependency.
    """
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q!r}")
    pos = (len(sorted_values) - 1) * (q / 100.0)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(sorted_values[lo])
    frac = pos - lo
    return float(sorted_values[lo]) * (1.0 - frac) + float(sorted_values[hi]) * frac


def dist(values: Iterable[float], empty_zero: bool = False) -> Optional[Dist]:
    """Summarize a sample.

    Empty input returns ``None`` by default (absent metric), or the
    explicit :meth:`Dist.zero` summary with ``empty_zero=True`` for
    consumers that always render a row.  A single-sample input is valid:
    every percentile (p25 through p99) equals the sample.
    """
    vs = sorted(values)
    if not vs:
        return Dist.zero() if empty_zero else None
    return Dist(
        count=len(vs),
        mean=sum(vs) / len(vs),
        p25=percentile(vs, 25.0),
        p50=percentile(vs, 50.0),
        p75=percentile(vs, 75.0),
        p95=percentile(vs, 95.0),
        p99=percentile(vs, 99.0),
        max=vs[-1],
    )


def derive_latency(folds: dict[str, UnitTrace]) -> dict:
    """The latency distributions of per-unit folds (``{label: fold}``, as
    :meth:`~repro.obs.recorder.EventView.folds` returns them — also for a
    re-read JSONL trace, :func:`repro.obs.export.read_trace`).

    Returns::

        {
          "alloc_latency": {rtype: Dist},   # every granted monotask
          "queue_wait":    {rtype: Dist},   # queued monotasks only
          "placement_latency": Dist | None, # task ready -> placed
          "admission_wait":    Dist | None, # job submit -> admit
          "n_events": int,
          "units": [unit labels in first-seen order],
        }

    Each fold matched its own unit's pushes to grants, so traces holding
    several simulation units (each with its own t=0 clock) derive correctly.
    """
    units = list(folds.values())

    def pooled(samples) -> Optional[Dist]:
        return dist(chain.from_iterable(samples))

    return {
        "alloc_latency": {r: d for r in RESOURCE_ORDER
                          if (d := pooled(u.alloc[r] for u in units))},
        "queue_wait": {r: d for r in RESOURCE_ORDER
                       if (d := pooled(u.queue_wait[r] for u in units))},
        "placement_latency": pooled(u.placement for u in units),
        "admission_wait": pooled(u.admission_wait for u in units),
        "n_events": sum(u.n_events for u in units),
        "units": list(folds),
    }
