"""Open-loop arrival processes for service mode.

A closed batch submits N jobs and drains; an open-loop service keeps
receiving work whether or not the cluster is keeping up.  Each process
here pre-generates a deterministic schedule of :class:`Arrival` records —
(time, tenant, job type) — inside a fixed horizon, derived entirely from
``derive_rng(seed, "service_arrivals", name)``: the same seed always
yields the same arrival schedule, byte for byte, which is what lets the
``fig_service`` sweep run bit-identically serial or parallel.

Three processes model the §2 load shapes a production cluster sees:

* **Poisson** — a memoryless baseline at a constant rate;
* **Diurnal** — a day/night sinusoid (non-homogeneous Poisson, thinned
  against the peak rate);
* **Bursty** — a square wave: short bursts at a multiple of the quiet
  rate, the shape that stresses backpressure and the autoscaler.

Tenants stand in for users (thousands of tenant ids sampled per arrival,
standing in for millions of users behind a gateway); the driver maps each
arrival onto a small service job (see :mod:`repro.service.workload`).

Determinism example (the schedule is a pure function of the seed)::

    >>> from repro.service.arrivals import PoissonArrivals
    >>> p = PoissonArrivals(rate_per_s=2.0, n_tenants=100)
    >>> a = p.schedule(horizon=50.0, seed=7)
    >>> a == p.schedule(horizon=50.0, seed=7)
    True
    >>> a[0].t > 0 and all(x.t < 50.0 for x in a)
    True
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..simcore.rng import derive_rng

__all__ = [
    "Arrival", "ArrivalProcess", "PoissonArrivals", "DiurnalArrivals",
    "BurstyArrivals", "make_process", "PROCESS_NAMES",
]

PROCESS_NAMES = ("poisson", "diurnal", "bursty")


@dataclass(frozen=True)
class Arrival:
    """One job arrival: when, from whom, and which template."""

    index: int      # sequence number within the schedule
    t: float        # arrival time (simulation seconds)
    tenant: int     # tenant id in [0, n_tenants)
    job_type: int   # 1 = large (3-stage), 2 = small (2-stage)


def _check(name: str, value, ok: bool, want: str) -> None:
    if not ok:
        raise ValueError(f"{name} must be {want}, got {value!r}")


class ArrivalProcess:
    """Base: thinned non-homogeneous Poisson against :meth:`peak_rate`.

    Subclasses override :meth:`rate_at` (instantaneous arrival rate) and
    :meth:`peak_rate` (its supremum over the horizon).  ``mean_rate`` is
    the long-run average the sweep multiplies to set offered load.
    """

    name = "base"

    def __init__(
        self,
        rate_per_s: float,
        n_tenants: int = 1000,
        large_fraction: float = 0.3,
    ):
        # every check is written so NaN fails it: a NaN or infinite rate
        # would never move the schedule's clock past the horizon
        _check("rate_per_s", rate_per_s, math.isfinite(rate_per_s) and rate_per_s > 0,
               "positive and finite")
        _check("n_tenants", n_tenants, n_tenants > 0, "positive")
        _check("large_fraction", large_fraction, 0.0 <= large_fraction <= 1.0,
               "in [0, 1]")
        self.mean_rate = rate_per_s
        self.n_tenants = n_tenants
        self.large_fraction = large_fraction

    # -- the load shape -------------------------------------------------
    def rate_at(self, t: float) -> float:
        return self.mean_rate

    def peak_rate(self) -> float:
        return self.mean_rate

    # -- schedule generation --------------------------------------------
    def schedule(self, horizon: float, seed: int) -> list[Arrival]:
        """Deterministic arrival schedule over ``[0, horizon)``.

        Candidate points come from a homogeneous Poisson process at the
        peak rate; each is kept with probability ``rate_at(t) / peak``
        (Lewis–Shedler thinning), so the accepted stream follows the
        shaped rate exactly.  All draws flow through one derived
        generator in a fixed order, making the schedule a pure function
        of ``(process, horizon, seed)``.
        """
        _check("horizon", horizon, math.isfinite(horizon) and horizon > 0,
               "positive and finite")
        rng = derive_rng(seed, "service_arrivals", self.name)
        peak = self.peak_rate()
        out: list[Arrival] = []
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / peak))
            if t >= horizon:
                break
            if float(rng.random()) * peak > self.rate_at(t):
                continue  # thinned away (always kept when rate == peak)
            tenant = int(rng.integers(0, self.n_tenants))
            job_type = 1 if float(rng.random()) < self.large_fraction else 2
            out.append(Arrival(index=len(out), t=t, tenant=tenant, job_type=job_type))
        return out


class PoissonArrivals(ArrivalProcess):
    """Constant-rate memoryless arrivals."""

    name = "poisson"


class DiurnalArrivals(ArrivalProcess):
    """Sinusoidal day/night cycle around the mean rate.

    ``rate(t) = mean · (1 + swing · sin(2πt / period))`` — the average
    over a whole period is exactly ``mean``, the peak ``mean·(1+swing)``.
    """

    name = "diurnal"

    def __init__(
        self,
        rate_per_s: float,
        period: float = 60.0,
        swing: float = 0.8,
        **kwargs,
    ):
        super().__init__(rate_per_s, **kwargs)
        _check("period", period, math.isfinite(period) and period > 0,
               "positive and finite")
        _check("swing", swing, 0.0 <= swing < 1.0, "in [0, 1)")
        self.period = period
        self.swing = swing

    def rate_at(self, t: float) -> float:
        return self.mean_rate * (1.0 + self.swing * math.sin(2.0 * math.pi * t / self.period))

    def peak_rate(self) -> float:
        return self.mean_rate * (1.0 + self.swing)


class BurstyArrivals(ArrivalProcess):
    """Square-wave bursts: the first ``burst_fraction`` of every period
    runs at ``burst_factor ×`` the quiet rate; the long-run average still
    equals ``rate_per_s`` (the quiet rate is solved accordingly)."""

    name = "bursty"

    def __init__(
        self,
        rate_per_s: float,
        period: float = 30.0,
        burst_factor: float = 4.0,
        burst_fraction: float = 0.2,
        **kwargs,
    ):
        super().__init__(rate_per_s, **kwargs)
        _check("period", period, math.isfinite(period) and period > 0,
               "positive and finite")
        _check("burst_factor", burst_factor,
               math.isfinite(burst_factor) and burst_factor >= 1.0,
               "finite and >= 1")
        _check("burst_fraction", burst_fraction, 0.0 < burst_fraction < 1.0,
               "in (0, 1)")
        self.period = period
        self.burst_factor = burst_factor
        self.burst_fraction = burst_fraction
        # mean = f·(factor·q) + (1−f)·q  →  q = mean / (f·factor + 1 − f)
        self.quiet_rate = rate_per_s / (
            burst_fraction * burst_factor + (1.0 - burst_fraction)
        )

    def rate_at(self, t: float) -> float:
        phase = math.fmod(t, self.period)
        if phase < self.burst_fraction * self.period:
            return self.quiet_rate * self.burst_factor
        return self.quiet_rate

    def peak_rate(self) -> float:
        return self.quiet_rate * self.burst_factor


def make_process(name: str, rate_per_s: float, **kwargs) -> ArrivalProcess:
    """Factory keyed by process name (``PROCESS_NAMES``)."""
    if name == "poisson":
        return PoissonArrivals(rate_per_s, **kwargs)
    if name == "diurnal":
        return DiurnalArrivals(rate_per_s, **kwargs)
    if name == "bursty":
        return BurstyArrivals(rate_per_s, **kwargs)
    raise ValueError(f"unknown arrival process {name!r}; known: {PROCESS_NAMES}")
