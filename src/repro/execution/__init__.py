"""Ursa's execution layer: jobs, JMs, JPs, metadata."""

from .estimator import (
    estimate_task_memory,
    estimate_task_usage,
    static_size_totals,
    task_m2i,
)
from .job import Job, JobState
from .jobmanager import JobManager, SchedulerBackend
from .jobprocess import JobProcess
from .metadata import MetadataStore, PartitionRecord

__all__ = [
    "estimate_task_memory",
    "estimate_task_usage",
    "static_size_totals",
    "task_m2i",
    "Job",
    "JobState",
    "JobManager",
    "SchedulerBackend",
    "JobProcess",
    "MetadataStore",
    "PartitionRecord",
]
