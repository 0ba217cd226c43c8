"""Deterministic fault injection & recovery for the simulated cluster.

The paper evaluates Ursa on a failure-free testbed; this package lets the
reproduction ask the follow-up question its design implies: how gracefully
does monotask-level scheduling degrade when workers die, black out, or
straggle mid-stage?  Three pieces:

* :mod:`repro.faults.plan` — :class:`FaultPlan`, a declarative, seed-
  derivable schedule of fault events (crash / blackout / slowdown / grant
  timeout) plus the :class:`RetryPolicy` governing re-execution;
* :mod:`repro.faults.injector` — :class:`FaultController`, which compiles a
  plan into simcore engine events at ``UrsaSystem`` construction and
  orchestrates each fault end-to-end (worker state, queues, admission,
  lineage restarts, retry budget, stats);
* :mod:`repro.faults.recovery` — the per-job lineage analysis: which tasks
  must re-execute when a worker's shard outputs vanish, and how task /
  monotask / dependency-counter state is rewound so the normal scheduling
  path re-runs them.

Everything is deterministic: a fixed plan + seed yields bit-identical
metrics and trace event streams across serial vs parallel harness runs and
across the optimized scheduler and the frozen reference tick the tests
keep (``tests/scheduler/reference.py``).  An **empty** plan (or
``faults=None``) schedules nothing and leaves every code path, float, and
trace byte identical to a build without this package.  The injector and the
recovery analysis load on first use: a failure-free run never loads them.
"""

from ..lazy import lazy_exports
from .plan import (
    FaultPlan,
    GrantTimeout,
    ResourceSlowdown,
    RetryPolicy,
    WorkerBlackout,
    WorkerCrash,
)

__getattr__ = lazy_exports(__name__, {"injector": "FaultController FaultStats", "recovery": ""})

__all__ = [
    "FaultPlan",
    "WorkerCrash",
    "WorkerBlackout",
    "ResourceSlowdown",
    "GrantTimeout",
    "RetryPolicy",
    "FaultController",
    "FaultStats",
]
