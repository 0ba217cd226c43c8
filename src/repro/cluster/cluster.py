"""The simulated cluster: machines + network fabric + shared clock."""

from __future__ import annotations

from typing import Sequence

from ..simcore.engine import Simulation
from ..simcore.network import MaxMinFabric, NetworkFabric, ReceiverSideFabric
from ..simcore.tracing import TraceSet
from .machine import Machine
from .spec import ClusterSpec

__all__ = ["Cluster"]


class Cluster:
    """All simulated hardware for one experiment run.

    Everything that runs "on" the cluster (Ursa, baselines, workload drivers)
    shares ``cluster.sim`` as its clock and records into ``cluster.traces``.
    """

    def __init__(self, spec: ClusterSpec, sim: Simulation | None = None):
        self.spec = spec
        self.sim = sim if sim is not None else Simulation()
        self.traces = TraceSet()
        self.machines: list[Machine] = [
            Machine(self.sim, i, spec.machine, self.traces)
            for i in range(spec.num_machines)
        ]
        net_traces = [m.net_used for m in self.machines]
        if spec.fabric == "receiver":
            self.network: NetworkFabric = ReceiverSideFabric(
                self.sim, spec.num_machines, spec.machine.net_mbps, used_traces=net_traces
            )
        else:
            self.network = MaxMinFabric(
                self.sim, spec.num_machines, spec.machine.net_mbps, used_traces=net_traces
            )

    # ------------------------------------------------------------------
    @property
    def num_machines(self) -> int:
        return self.spec.num_machines

    @property
    def total_cores(self) -> int:
        return self.spec.total_cores

    @property
    def total_memory_mb(self) -> float:
        return self.spec.total_memory_mb

    def machine(self, index: int) -> Machine:
        return self.machines[index]

    # ------------------------------------------------------------------
    # aggregate views used by metrics and figures
    # ------------------------------------------------------------------
    def series_names(self, kind: str) -> list[str]:
        """Trace names for ``kind`` across machines (e.g. 'cpu_used')."""
        return [f"m{i}.{kind}" for i in range(self.num_machines)]

    def _capacity(self, kind: str) -> float:
        """Per-machine capacity that normalizes ``kind``'s traces; fabric
        traces record downlink-fraction units, so the network's is 1."""
        m = self.spec.machine
        caps = {
            "cpu_used": m.cores,
            "cpu_alloc": m.cores,
            "mem_used": m.memory_mb,
            "mem_alloc": m.memory_mb,
            "disk_used": m.disks,
            "net_used": 1.0,
        }
        try:
            return caps[kind]
        except KeyError:
            raise ValueError(
                f"unknown utilization kind {kind!r}; valid kinds: {', '.join(caps)}"
            ) from None

    def mean_utilization(self, kind: str, t0: float, t1: float) -> float:
        """Cluster-average fraction of capacity used for a resource kind.

        ``kind`` is one of cpu_used/cpu_alloc/mem_used/mem_alloc/disk_used/
        net_used; the value is normalized by the per-machine capacity so the
        result is in [0, 1] (CPU alloc may exceed 1 under over-subscription).
        """
        vals = self.per_machine_utilization(kind, t0, t1)
        return sum(vals) / len(vals)

    def per_machine_utilization(self, kind: str, t0: float, t1: float) -> list[float]:
        cap = self._capacity(kind)
        return [self.traces[name].mean(t0, t1) / cap for name in self.series_names(kind)]

    def utilization_timeseries(
        self, kind: str, t0: float, t1: float, dt: float = 1.0
    ) -> tuple[list[float], list[float]]:
        """Cluster-average utilization in [0,100] % resampled to ``dt`` bins —
        the series the paper's utilization figures plot."""
        cap = self._capacity(kind)
        grid: list[float] = []
        acc: list[float] = []
        for i, name in enumerate(self.series_names(kind)):
            g, vals = self.traces[name].resample(t0, t1, dt)
            if i == 0:
                grid = g
                acc = [0.0] * len(vals)
            for j, v in enumerate(vals):
                acc[j] += v
        n = self.num_machines
        return grid, [100.0 * v / (cap * n) for v in acc]

    def integrate(self, kind: str, t0: float, t1: float) -> float:
        """Sum of the trace integrals across machines (e.g. core-seconds)."""
        return sum(self.traces[name].integral(t0, t1) for name in self.series_names(kind))
