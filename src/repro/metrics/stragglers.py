"""Straggler accounting (§5.1.2 "Over-subscription of CPU").

"We define the straggler threshold, following the general statistical
definition of outliers, as the task completion time that is more than 1.5
times the inter-quartile range above the third quartile in the same stage.
The straggler time for each stage is calculated as the completion time of
the last task minus the threshold.  We sum the straggler time of all stages
for each job" — and report the average ratio of that sum to each job's JCT.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stage_straggler_time", "job_straggler_ratio", "mean_straggler_ratio"]


def stage_straggler_time(completion_times: list[float]) -> float:
    """Straggler time of one stage from its tasks' completion durations."""
    if len(completion_times) < 4:
        return 0.0
    arr = np.asarray(completion_times, dtype=float)
    q1, q3 = np.percentile(arr, [25.0, 75.0])
    threshold = q3 + 1.5 * (q3 - q1)
    last = float(arr.max())
    return max(0.0, last - threshold)


def job_straggler_ratio(job, plan=None) -> float:
    """Sum of per-stage straggler times over the job's JCT.  ``plan``
    defaults to ``job.plan``; pass the plan held before the run for a job
    the Ursa scheduler has since retired."""
    if job.jct is None or job.jct <= 0:
        return 0.0
    if plan is None:
        plan = job.plan
    total = 0.0
    for stage in plan.stages:
        durations = [
            t.finished_at - t.placed_at
            for t in stage.tasks
            if t.finished_at is not None and t.placed_at is not None
        ]
        total += stage_straggler_time(durations)
    return total / job.jct


def mean_straggler_ratio(jobs) -> float:
    ratios = [job_straggler_ratio(j) for j in jobs if j.jct]
    return sum(ratios) / len(ratios) if ratios else 0.0
