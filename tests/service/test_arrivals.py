"""Arrival processes: determinism, shaping, and schedule invariants."""

import pytest

from repro.service import (
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    PROCESS_NAMES,
    make_process,
)

HORIZON = 200.0


@pytest.mark.parametrize("name", PROCESS_NAMES)
def test_schedule_is_pure_function_of_seed(name):
    p = make_process(name, rate_per_s=2.0, n_tenants=50)
    a = p.schedule(HORIZON, seed=7)
    b = make_process(name, rate_per_s=2.0, n_tenants=50).schedule(HORIZON, seed=7)
    assert a == b
    assert a != p.schedule(HORIZON, seed=8)


@pytest.mark.parametrize("name", PROCESS_NAMES)
def test_schedule_invariants(name):
    p = make_process(name, rate_per_s=2.0, n_tenants=50, large_fraction=0.3)
    arrivals = p.schedule(HORIZON, seed=0)
    assert arrivals, "a 2/s process over 200 s cannot be empty"
    # strictly increasing times inside [0, horizon); contiguous indices
    times = [a.t for a in arrivals]
    assert times == sorted(times)
    assert 0.0 < times[0] and times[-1] < HORIZON
    assert [a.index for a in arrivals] == list(range(len(arrivals)))
    assert all(0 <= a.tenant < 50 for a in arrivals)
    assert set(a.job_type for a in arrivals) <= {1, 2}


@pytest.mark.parametrize("name", PROCESS_NAMES)
def test_mean_rate_is_respected(name):
    # long horizon: the empirical rate lands near the configured mean
    p = make_process(name, rate_per_s=2.0, n_tenants=50)
    n = len(p.schedule(2000.0, seed=1))
    assert 0.85 * 2.0 * 2000.0 <= n <= 1.15 * 2.0 * 2000.0


def test_diurnal_swings_around_the_mean():
    p = DiurnalArrivals(rate_per_s=2.0, period=100.0, swing=0.8)
    assert p.rate_at(25.0) == pytest.approx(2.0 * 1.8)   # peak of the sine
    assert p.rate_at(75.0) == pytest.approx(2.0 * 0.2)   # trough
    assert p.peak_rate() == pytest.approx(3.6)
    # arrivals concentrate in the high-rate half-period
    arrivals = p.schedule(1000.0, seed=3)
    first_half = sum(1 for a in arrivals if (a.t % 100.0) < 50.0)
    assert first_half > 0.6 * len(arrivals)


def test_bursty_long_run_average_matches_nominal():
    p = BurstyArrivals(rate_per_s=2.0, period=20.0, burst_factor=4.0, burst_fraction=0.2)
    # quiet rate solved so f·(factor·q) + (1−f)·q == mean
    assert p.quiet_rate * (0.2 * 4.0 + 0.8) == pytest.approx(2.0)
    assert p.peak_rate() == pytest.approx(p.quiet_rate * 4.0)
    burst, quiet = 0, 0
    for a in p.schedule(2000.0, seed=5):
        if (a.t % 20.0) < 4.0:
            burst += 1
        else:
            quiet += 1
    # bursts cover 20 % of the time but a factor-4 rate: ~50 % of arrivals
    assert burst > quiet * 0.7


def test_large_fraction_controls_the_type_mix():
    p = PoissonArrivals(rate_per_s=5.0, n_tenants=10, large_fraction=0.3)
    arrivals = p.schedule(1000.0, seed=2)
    large = sum(1 for a in arrivals if a.job_type == 1)
    assert 0.25 <= large / len(arrivals) <= 0.35
    assert all(a.job_type == 2 for a in
               PoissonArrivals(5.0, large_fraction=0.0).schedule(50.0, seed=2))


def test_invalid_parameters_are_rejected():
    with pytest.raises(ValueError):
        PoissonArrivals(rate_per_s=0.0)
    with pytest.raises(ValueError):
        PoissonArrivals(2.0, n_tenants=0)
    with pytest.raises(ValueError):
        PoissonArrivals(2.0, large_fraction=1.5)
    with pytest.raises(ValueError):
        DiurnalArrivals(2.0, swing=1.0)
    with pytest.raises(ValueError):
        BurstyArrivals(2.0, burst_fraction=0.0)
    with pytest.raises(ValueError):
        make_process("weibull", 2.0)
    with pytest.raises(ValueError):
        PoissonArrivals(2.0).schedule(0.0, seed=0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, build", [
    ("rate_per_s", lambda v: PoissonArrivals(v)),
    ("period", lambda v: DiurnalArrivals(2.0, period=v)),
    ("swing", lambda v: DiurnalArrivals(2.0, swing=v)),
    ("period", lambda v: BurstyArrivals(2.0, period=v)),
    ("burst_factor", lambda v: BurstyArrivals(2.0, burst_factor=v)),
    ("burst_fraction", lambda v: BurstyArrivals(2.0, burst_fraction=v)),
    ("large_fraction", lambda v: PoissonArrivals(2.0, large_fraction=v)),
    ("horizon", lambda v: PoissonArrivals(2.0).schedule(v, seed=0)),
])
@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_non_finite_parameters_are_rejected_by_name(field, build, value):
    # a NaN or infinite rate used to spin schedule() forever: the clock
    # never reached the horizon
    with pytest.raises(ValueError, match=field):
        build(value)
