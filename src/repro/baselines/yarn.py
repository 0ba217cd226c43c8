"""A YARN-like centralized resource manager (the baselines' scheduler).

Faithful to the properties the paper's comparison relies on:

* **heartbeat-driven**: container requests are satisfied only at heartbeat
  boundaries (:data:`HEARTBEAT_INTERVAL`, 1 s as configured in §5.1.1),
  which is the scheduling latency that executor frameworks amortize via
  container reuse;
* **FIFO app ordering** (the job-scheduling policy the paper enabled);
* **advertised capacity**: each machine advertises ``cores ×
  cpu_subscription_ratio`` cores — ratios above 1 reproduce the §5.1.2
  over-subscription experiments (more concurrent compute phases than
  physical cores ⇒ the fluid CPU slows everyone down);
* container grants reserve cores and memory in the machine ledgers for the
  container's lifetime (driving SE up and UE down when under-used).
"""

from __future__ import annotations

from typing import Optional, Protocol

from ..cluster.cluster import Cluster
from ..rules import at_least, ruled, ruled_dataclass
from .containers import Container

__all__ = ["YarnConfig", "YarnApp", "YarnRM"]

#: seconds between RM heartbeats, the only instants containers are granted
HEARTBEAT_INTERVAL = 1.0
#: seconds to launch an app's AM/driver before its first container request
APP_STARTUP_DELAY = 0.5


@ruled_dataclass()
class YarnConfig:
    cpu_subscription_ratio: float = ruled(at_least(1.0), 1.0)


class YarnApp(Protocol):
    """What the RM needs from an application (Spark/Tez/MonoSpark drivers)."""

    app_id: int
    container_cores: int
    container_memory_mb: float

    def container_target(self) -> int:
        """Desired number of containers right now."""

    def num_containers(self) -> int: ...

    def grant_container(self, container: Container) -> None: ...

    @property
    def finished(self) -> bool: ...


class YarnRM:
    """Centralized allocator: FIFO over apps, first-fit over machines."""

    def __init__(self, cluster: Cluster, config: YarnConfig | None = None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = config or YarnConfig()
        self.apps: list[YarnApp] = []
        self._advertised = [
            m.spec.cores * self.config.cpu_subscription_ratio for m in cluster.machines
        ]
        self._next_cid = 0
        self._hb_scheduled = False
        self._rr = 0

    # ------------------------------------------------------------------
    def register_app(self, app: YarnApp) -> None:
        self.apps.append(app)
        self._ensure_heartbeat()

    def unregister_app(self, app: YarnApp) -> None:
        if app in self.apps:
            self.apps.remove(app)

    def advertised_free_cores(self, machine_index: int) -> float:
        return self._advertised[machine_index] - self.cluster.machine(machine_index).allocated_cores

    # ------------------------------------------------------------------
    def release_container(self, container: Container) -> None:
        if container.released:
            return
        container.released_at = self.sim.now
        machine = self.cluster.machine(container.machine_index)
        machine.release_cores(container.cores)
        machine.release_memory(container.memory_mb)

    # ------------------------------------------------------------------
    def _ensure_heartbeat(self) -> None:
        if not self._hb_scheduled:
            self._hb_scheduled = True
            self.sim.schedule(HEARTBEAT_INTERVAL, self._heartbeat)

    def _heartbeat(self) -> None:
        self._hb_scheduled = False
        for app in list(self.apps):  # FIFO: registration (submission) order
            if app.finished:
                continue
            want = app.container_target() - app.num_containers()
            for _ in range(max(0, want)):
                granted = self._grant_one(app)
                if granted is None:
                    break
                app.grant_container(granted)
        if any(not a.finished for a in self.apps):
            self._ensure_heartbeat()

    def _grant_one(self, app: YarnApp) -> Optional[Container]:
        n = self.cluster.num_machines
        # round-robin first-fit keeps container spread balanced, like YARN's
        # node-local scan
        for probe in range(n):
            idx = (self._rr + probe) % n
            machine = self.cluster.machine(idx)
            if self.advertised_free_cores(idx) < app.container_cores:
                continue
            if not machine.try_reserve_memory(app.container_memory_mb):
                continue
            machine.reserve_cores(app.container_cores)
            self._rr = (idx + 1) % n
            container = Container(
                self._next_cid, app.app_id, idx, app.container_cores,
                app.container_memory_mb, self.sim.now,
            )
            self._next_cid += 1
            return container
        return None
