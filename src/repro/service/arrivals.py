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

from ..rules import POS, POS_INT, UNIT, Rule, at_least, require, ruled, ruled_dataclass
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


@ruled_dataclass(frozen=True)
class ArrivalProcess:
    """Base: thinned non-homogeneous Poisson against :meth:`peak_rate`.

    Subclasses override :meth:`rate_at` (instantaneous arrival rate) and
    :meth:`peak_rate` (its supremum over the horizon).  ``rate_per_s`` is
    the long-run average the sweep multiplies to set offered load.
    """

    name = "base"

    rate_per_s: float = ruled(POS)
    n_tenants: int = ruled(POS_INT, 1000, kw_only=True)
    large_fraction: float = ruled(UNIT, 0.3, kw_only=True)

    # -- the load shape -------------------------------------------------
    def rate_at(self, t: float) -> float:
        return self.rate_per_s

    def peak_rate(self) -> float:
        return self.rate_per_s

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
        require(POS, horizon=horizon)
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


@ruled_dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Constant-rate memoryless arrivals."""

    name = "poisson"


@ruled_dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Sinusoidal day/night cycle around the mean rate.

    ``rate(t) = mean · (1 + swing · sin(2πt / period))`` — the average
    over a whole period is exactly ``mean``, the peak ``mean·(1+swing)``.
    """

    name = "diurnal"

    period: float = ruled(POS, 60.0)
    swing: float = ruled(Rule("in [0, 1)", lo=0, hi=1, hi_open=True), 0.8)

    def rate_at(self, t: float) -> float:
        return self.rate_per_s * (1.0 + self.swing * math.sin(2.0 * math.pi * t / self.period))

    def peak_rate(self) -> float:
        return self.rate_per_s * (1.0 + self.swing)


@ruled_dataclass(frozen=True)
class BurstyArrivals(ArrivalProcess):
    """Square-wave bursts: the first ``burst_fraction`` of every period
    runs at ``burst_factor ×`` the quiet rate; the long-run average still
    equals ``rate_per_s`` (the quiet rate is solved accordingly)."""

    name = "bursty"

    period: float = ruled(POS, 30.0)
    burst_factor: float = ruled(at_least(1.0), 4.0)
    burst_fraction: float = ruled(Rule("in (0, 1)", lo=0, hi=1, lo_open=True, hi_open=True), 0.2)

    @property
    def quiet_rate(self) -> float:
        # mean = f·(factor·q) + (1−f)·q  →  q = mean / (f·factor + 1 − f)
        f = self.burst_fraction
        return self.rate_per_s / (f * self.burst_factor + (1.0 - f))

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
