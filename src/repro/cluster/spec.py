"""Cluster and machine specifications.

The defaults mirror the paper's testbed (§5): 20 machines, 32 virtual cores,
128 GB RAM, 10 Gbps Ethernet, one SAS disk.  The CPU "work rate" calibrates
how many MB of input a core processes per second; the paper estimates CPU
usage *as* input size (§4.2.1), so this single rate converts work to time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

__all__ = ["MachineSpec", "ClusterSpec", "GBPS_TO_MBPS"]

# 1 Gbps = 125 MB/s
GBPS_TO_MBPS = 125.0


@dataclass(frozen=True)
class MachineSpec:
    """Static description of one worker machine."""

    cores: int = 32
    core_rate_mbps: float = 25.0        # MB of work one core processes per second
    memory_mb: float = 128.0 * 1024.0   # 128 GB
    net_gbps: float = 10.0              # downlink (and uplink) bandwidth
    disk_mbps: float = 150.0            # sequential disk bandwidth
    disks: int = 1

    def __post_init__(self) -> None:
        # written so NaN fails too: a NaN or infinite rate or size would
        # reach the simulation and livelock it instead of failing here
        for name in ("cores", "core_rate_mbps", "memory_mb", "net_gbps",
                     "disk_mbps", "disks"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    @property
    def net_mbps(self) -> float:
        return self.net_gbps * GBPS_TO_MBPS


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of the simulated cluster."""

    num_machines: int = 20
    machine: MachineSpec = field(default_factory=MachineSpec)
    fabric: str = "receiver"  # "receiver" (paper's model) or "maxmin"

    def __post_init__(self) -> None:
        if self.num_machines <= 0:
            raise ValueError("num_machines must be positive")
        if self.fabric not in ("receiver", "maxmin"):
            raise ValueError(f"unknown fabric {self.fabric!r}")

    @property
    def total_cores(self) -> int:
        return self.num_machines * self.machine.cores

    @property
    def total_memory_mb(self) -> float:
        return self.num_machines * self.machine.memory_mb

    def with_network(self, net_gbps: float) -> "ClusterSpec":
        """The same cluster with a different link speed (Figure 6 sweeps)."""
        return replace(self, machine=replace(self.machine, net_gbps=net_gbps))

    @classmethod
    def paper_cluster(cls, **overrides) -> "ClusterSpec":
        """The 20×32-core, 128 GB, 10 GbE testbed of §5."""
        return cls(**overrides)

    @classmethod
    def small(cls, num_machines: int = 4, cores: int = 8, **machine_overrides) -> "ClusterSpec":
        """A small cluster for unit tests and quick examples."""
        mspec = MachineSpec(cores=cores, memory_mb=16 * 1024.0, **machine_overrides)
        return cls(num_machines=num_machines, machine=mspec)
