"""Ursa's scheduling layer: admission, placement, ordering, worker queues."""

from .admission import AdmissionController
from .ordering import EarliestJobFirst, SchedulingPolicy, SmallestRemainingJobFirst
from .placement import Assignment, PlacementPolicy, ReadyStage, UrsaPlacement
from .queues import MonotaskQueue, QueueEntry
from .ursa import UrsaConfig, UrsaSystem
from .worker import Worker

__all__ = [
    "AdmissionController",
    "EarliestJobFirst",
    "SchedulingPolicy",
    "SmallestRemainingJobFirst",
    "Assignment",
    "PlacementPolicy",
    "ReadyStage",
    "UrsaPlacement",
    "MonotaskQueue",
    "QueueEntry",
    "UrsaConfig",
    "UrsaSystem",
    "Worker",
]
