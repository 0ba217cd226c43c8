"""The open-loop service driver: arrivals → backpressure → admission.

Batch experiments call ``submit_workload`` then ``drain()``; the service
driver instead schedules one engine event per pre-generated arrival and
runs the simulation to a fixed stop time (``horizon + drain_grace``) —
an **open loop**: load keeps coming whether or not the cluster keeps up,
and whatever is still in flight at the end is reported as in flight, not
waited for.

At each arrival the driver applies **admission backpressure** before the
job ever reaches the memory-gated admission queue:

* *queue_full* — the admission queue already holds ``queue_limit`` jobs:
  accepting more would only grow an unbounded backlog, so the request is
  shed (the open-loop analogue of HTTP 503);
* *too_large* — after a scale-in, a request can exceed the currently
  admittable memory pool; such a job could never be admitted at the
  present size, so it is shed rather than wedged.

Everything else is normal Ursa machinery: the job enters
``AdmissionController``, waits for memory, runs through Algorithm-1
placement.  The driver keeps one record per arrival (shed or submitted,
and the job id), from which :mod:`repro.service.slo` derives the
warmup-excluded SLO report, including the accounting identity

    generated = shed + completed + failed + in_flight

that ``tests/service`` pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..obs import recorder as _obs
from ..rules import NONNEG, POS, POS_INT, optional, ruled, ruled_dataclass
from .arrivals import Arrival, ArrivalProcess
from .autoscaler import Autoscaler, AutoscalerConfig
from .slo import build_report
from .workload import ServiceJobType

__all__ = ["ServiceConfig", "ServiceDriver"]


@ruled_dataclass(frozen=True)
class ServiceConfig:
    """One service run: measurement window + backpressure + elasticity."""

    horizon: float = ruled(POS)          # arrivals occur in [0, horizon)
    warmup: float = ruled(NONNEG)        # SLO window starts here (excluded before)
    drain_grace: float = ruled(NONNEG)   # extra simulated seconds after the horizon
    queue_limit: int = ruled(POS_INT, 8)  # shed arrivals beyond this admission depth
    autoscaler: Optional[AutoscalerConfig] = ruled(optional(AutoscalerConfig), None)

    def __post_init__(self) -> None:
        if not self.warmup < self.horizon:
            raise ValueError(f"ServiceConfig.warmup must be < horizon, got {self.warmup!r}")


@dataclass
class _ArrivalRecord:
    """Outcome of one arrival (the driver's per-request ledger)."""

    arrival: Arrival
    shed: bool = False
    reason: str = ""             # "queue_full" / "too_large" when shed
    job_id: Optional[int] = None
    requested_mb: float = 0.0
    queue_at_arrival: int = 0

    def as_dict(self) -> dict:
        return {
            "index": self.arrival.index,
            "t": self.arrival.t,
            "tenant": self.arrival.tenant,
            "job_type": self.arrival.job_type,
            "shed": self.shed,
            "reason": self.reason,
            "job_id": self.job_id,
        }


class ServiceDriver:
    """Stream one arrival process through an :class:`UrsaSystem`."""

    def __init__(self, system, process: ArrivalProcess, cfg: ServiceConfig, scale, seed: int = 0):
        self.system = system
        self.process = process
        self.cfg = cfg
        self.scale = scale
        self.seed = seed
        self.records: list[_ArrivalRecord] = []
        self.peak_queue = 0
        #: job type -> its spec and shape, built at the type's first arrival
        self.job_types: dict[int, ServiceJobType] = {}
        self.autoscaler: Optional[Autoscaler] = None
        if cfg.autoscaler is not None:
            self.autoscaler = Autoscaler(
                system, cfg.autoscaler, stop_time=cfg.horizon + cfg.drain_grace
            )

    # ------------------------------------------------------------------
    def run(self) -> dict:
        """Generate, stream, simulate to the stop time; return the report."""
        arrivals = self.process.schedule(self.cfg.horizon, self.seed)
        for a in arrivals:
            self.system.sim.at(a.t, self._on_arrival, a)
        if self.autoscaler is not None:
            self.autoscaler.start()
        self.system.run(until=self.cfg.horizon + self.cfg.drain_grace)
        return build_report(self)

    # ------------------------------------------------------------------
    def _on_arrival(self, a: Arrival) -> None:
        now = self.system.sim.now
        adm = self.system.admission
        rec = _ArrivalRecord(a, queue_at_arrival=adm.queue_length)
        self.records.append(rec)
        self.peak_queue = max(self.peak_queue, adm.queue_length)
        job_type = self.job_types.get(a.job_type)
        if job_type is None:
            job_type = self.job_types[a.job_type] = ServiceJobType(self.scale, a.job_type)
        spec = job_type.spec
        rec.requested_mb = spec.requested_memory_mb
        if spec.requested_memory_mb > adm.total_memory_mb + 1e-9:
            self._shed(rec, "too_large", now)
            return
        if adm.queue_length >= self.cfg.queue_limit:
            self._shed(rec, "queue_full", now)
            return
        graph, shape = job_type.build(a, self.seed)
        job = self.system.submit(
            graph,
            requested_memory_mb=spec.requested_memory_mb,
            category=spec.category,
            shape=shape,
        )
        job.memory_accuracy = spec.memory_accuracy
        rec.job_id = job.job_id

    def _shed(self, rec: _ArrivalRecord, reason: str, now: float) -> None:
        rec.shed = True
        rec.reason = reason
        seam = _obs.RECORDER
        if seam is not None:
            seam.job_shed(now)
