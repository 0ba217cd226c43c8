"""Discrete-event simulation substrate (engine, fluid resources, fabrics)."""

from ..series import StepSeries
from .engine import Simulation, SimulationError
from .network import MaxMinFabric, NetworkFabric, PullSet, ReceiverSideFabric
from .resources import InsufficientMemoryError, MemoryLedger, SharedProcessor
from .rng import derive_rng, lognormal_multipliers, spawn_rng

__all__ = [
    "Simulation",
    "SimulationError",
    "MaxMinFabric",
    "NetworkFabric",
    "PullSet",
    "ReceiverSideFabric",
    "InsufficientMemoryError",
    "MemoryLedger",
    "SharedProcessor",
    "derive_rng",
    "lognormal_multipliers",
    "spawn_rng",
    "StepSeries",
]
