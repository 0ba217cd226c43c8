"""Ursa's dataflow layer: OpGraph primitives and monotask planning."""

from .graph import DataHandle, DepType, GraphError, Op, OpGraph, ResourceType
from .monotask import Monotask, MonotaskState, Stage, Task, TaskState
from .planner import JobShape, PlannedJob, plan_job

__all__ = [
    "DataHandle",
    "DepType",
    "GraphError",
    "Op",
    "OpGraph",
    "ResourceType",
    "Monotask",
    "MonotaskState",
    "Stage",
    "Task",
    "TaskState",
    "JobShape",
    "PlannedJob",
    "plan_job",
]
