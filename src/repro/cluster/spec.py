"""Cluster and machine specifications.

The defaults mirror the paper's testbed (§5): 20 machines, 32 virtual cores,
128 GB RAM, 10 Gbps Ethernet, one SAS disk.  The CPU "work rate" calibrates
how many MB of input a core processes per second; the paper estimates CPU
usage *as* input size (§4.2.1), so this single rate converts work to time.
"""

from __future__ import annotations

from dataclasses import replace

from ..rules import POS, POS_INT, instance, one_of, ruled, ruled_dataclass

__all__ = ["MachineSpec", "ClusterSpec", "GBPS_TO_MBPS"]

# 1 Gbps = 125 MB/s
GBPS_TO_MBPS = 125.0


@ruled_dataclass(frozen=True)
class MachineSpec:
    """Static description of one worker machine."""

    cores: int = ruled(POS_INT, 32)
    core_rate_mbps: float = ruled(POS, 25.0)        # MB of work one core processes per second
    memory_mb: float = ruled(POS, 128.0 * 1024.0)   # 128 GB
    net_gbps: float = ruled(POS, 10.0)              # downlink (and uplink) bandwidth
    disk_mbps: float = ruled(POS, 150.0)            # sequential disk bandwidth
    disks: int = ruled(POS_INT, 1)

    @property
    def net_mbps(self) -> float:
        return self.net_gbps * GBPS_TO_MBPS


@ruled_dataclass(frozen=True)
class ClusterSpec:
    """Static description of the simulated cluster."""

    num_machines: int = ruled(POS_INT, 20)
    machine: MachineSpec = ruled(instance(MachineSpec), default_factory=MachineSpec)
    fabric: str = ruled(one_of("receiver", "maxmin"), "receiver")  # "receiver" is the paper's model

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
