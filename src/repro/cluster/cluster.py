"""The simulated cluster: machines + network fabric + shared clock."""

from __future__ import annotations

from typing import Sequence

from ..series import StepSeries
from ..simcore.engine import Simulation
from ..simcore.network import MaxMinFabric, NetworkFabric, ReceiverSideFabric
from .machine import Machine
from .spec import ClusterSpec

__all__ = ["Cluster"]


class Cluster:
    """All simulated hardware for one experiment run.

    Everything that runs "on" the cluster (Ursa, baselines, workload drivers)
    shares ``cluster.sim`` as its clock and records into the machines' step
    series (``machine.cpu_used``, ``machine.cpu_alloc``, ...), which the
    aggregate views below read by kind.
    """

    def __init__(self, spec: ClusterSpec, sim: Simulation | None = None):
        self.spec = spec
        self.sim = sim if sim is not None else Simulation()
        self.machines: list[Machine] = [
            Machine(self.sim, i, spec.machine) for i in range(spec.num_machines)
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
    def _series(self, kind: str) -> tuple[float, list[StepSeries]]:
        """Each machine's ``kind`` series (e.g. 'cpu_used') and the
        per-machine capacity that normalizes them; fabric series record
        downlink-fraction units, so the network's is 1."""
        m = self.spec.machine
        caps = {
            "cpu_used": m.cores,
            "cpu_alloc": m.cores,
            "mem_used": m.memory_mb,
            "mem_alloc": m.memory_mb,
            "disk_used": m.disks,
            "net_used": 1.0,
        }
        if kind not in caps:
            raise ValueError(
                f"unknown utilization kind {kind!r}; valid kinds: {', '.join(caps)}"
            )
        return caps[kind], [getattr(machine, kind) for machine in self.machines]

    def mean_utilization(self, kind: str, t0: float, t1: float) -> float:
        """Cluster-average fraction of capacity used for a resource kind.

        ``kind`` is one of cpu_used/cpu_alloc/mem_used/mem_alloc/disk_used/
        net_used; the value is normalized by the per-machine capacity so the
        result is in [0, 1] (CPU alloc may exceed 1 under over-subscription).
        """
        vals = self.per_machine_utilization(kind, t0, t1)
        return sum(vals) / len(vals)

    def per_machine_utilization(self, kind: str, t0: float, t1: float) -> list[float]:
        cap, series = self._series(kind)
        return [s.mean(t0, t1) / cap for s in series]

    def utilization_timeseries(
        self, kind: str, t0: float, t1: float, dt: float = 1.0
    ) -> tuple[list[float], list[float]]:
        """Cluster-average utilization in [0,100] % resampled to ``dt`` bins —
        the series the paper's utilization figures plot."""
        cap, series = self._series(kind)
        grid: list[float] = []
        acc: list[float] = []
        for i, s in enumerate(series):
            g, vals = s.resample(t0, t1, dt)
            if i == 0:
                grid = g
                acc = [0.0] * len(vals)
            for j, v in enumerate(vals):
                acc[j] += v
        n = self.num_machines
        return grid, [100.0 * v / (cap * n) for v in acc]

    def integrate(self, kind: str, t0: float, t1: float) -> float:
        """Sum of the series integrals across machines (e.g. core-seconds)."""
        return sum(s.integral(t0, t1) for s in self._series(kind)[1])
