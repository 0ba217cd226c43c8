"""Open-loop multi-tenant service mode (arrivals → backpressure → SLOs).

The batch experiments answer "how fast does a fixed set of jobs drain?";
this package answers the operator's question instead: "what latency and
goodput does the cluster sustain under a continuous request stream, and
what happens when it can't keep up?"  Four pieces:

* :mod:`~repro.service.arrivals` — deterministic Poisson / diurnal /
  bursty arrival schedules over thousands of tenants;
* :mod:`~repro.service.workload` — the two job types, sized from the
  experiment :class:`~repro.experiments.common.Scale` and planned from one
  compiled shape each;
* :mod:`~repro.service.autoscaler` — hysteresis worker elasticity built
  on the fault layer's crash/rejoin hooks (scale-in = graceful drain);
* :mod:`~repro.service.driver` / :mod:`~repro.service.slo` — the
  open-loop driver with admission backpressure, and the warmup-excluded
  SLO report it produces.

Entry points: the ``fig_service`` experiment (arrival-rate sweep → SLO
curves) and ``python -m repro.experiments --only fig_service
--service-out DIR``.  Operator guide: ``docs/OPERATIONS.md``.
"""

from .arrivals import (
    Arrival,
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    PROCESS_NAMES,
    make_process,
)
from .autoscaler import Autoscaler, AutoscalerConfig, HysteresisScaler, LoadSample
from .driver import ServiceConfig, ServiceDriver
from .slo import SCHEMA, build_report, format_service_rows, validate_report
from .workload import ServiceJobType, mean_job_cpu_mb, mean_request_mb

__all__ = [
    "Arrival", "ArrivalProcess", "PoissonArrivals", "DiurnalArrivals",
    "BurstyArrivals", "make_process", "PROCESS_NAMES",
    "Autoscaler", "AutoscalerConfig", "HysteresisScaler", "LoadSample",
    "ServiceConfig", "ServiceDriver",
    "SCHEMA", "build_report", "validate_report", "format_service_rows",
    "ServiceJobType", "mean_job_cpu_mb", "mean_request_mb",
]
