"""Queueing-theory oracle for the fluid substrate.

Under Poisson arrivals at load ρ, a processor-sharing server of capacity 1
has mean sojourn time E[S]/(1−ρ) whatever the work distribution (the
M/G/1-PS insensitivity result; Kleinrock, *Queueing Systems* vol. 2).  A
``SharedProcessor`` of capacity 1 and one ``ReceiverSideFabric`` downlink
are both such servers, so both must reproduce it — an outside model, where
the other substrate tests check the simulator against itself.

Each case runs 40,000 jobs from one fixed seed, cuts them (in arrival
order) into 20 batches, drops the first as warm-up, and requires the mean
of the other 19 batch-mean sojourns within 4 standard errors of the
theory value.

Work conservation with aborts is an exact identity: a processor's
delivered service, ``unit_rate`` × ∫ busy units dt, equals the completed
work plus the work banked in cancelled requests.
"""

import math
import random
import statistics

import pytest

from repro.series import StepSeries
from repro.simcore import ReceiverSideFabric, SharedProcessor, Simulation

JOBS = 40_000
BATCHES = 20
SEED = 1

# mean-1 MB work: exponential, or 0.5 / 5.5 MB with probability 0.9 / 0.1
WORK = {
    "exponential": lambda rng: rng.expovariate(1.0),
    "bimodal": lambda rng: 5.5 if rng.random() < 0.1 else 0.5,
}


def _processor(sim):
    cpu = SharedProcessor(sim, capacity=1, unit_rate=1.0)
    return cpu.submit


def _downlink(sim):
    fabric = ReceiverSideFabric(sim, num_machines=2, downlink_mbps=1.0)
    return lambda work, callback, *args: fabric.start_transfer(0, [(1, work)], callback, *args)


def _sojourns(server, rho, work):
    """Sojourn time of each of JOBS Poisson arrivals at rate ``rho`` (mean
    work 1 MB at 1 MB/s), in arrival order."""
    rng = random.Random(SEED)
    sim = Simulation()
    submit = server(sim)
    arrived = [0.0] * JOBS
    sojourn = [0.0] * JOBS

    def finish(i):
        sojourn[i] = sim.now - arrived[i]

    def arrive(i):
        arrived[i] = sim.now
        submit(WORK[work](rng), finish, i)
        if i + 1 < JOBS:
            sim.schedule(rng.expovariate(rho), arrive, i + 1)

    sim.schedule(rng.expovariate(rho), arrive, 0)
    sim.drain()
    return sojourn


@pytest.mark.parametrize("server", [_processor, _downlink], ids=["processor", "downlink"])
@pytest.mark.parametrize("work", sorted(WORK))
@pytest.mark.parametrize("rho", [0.5, 0.8])
def test_processor_sharing_mean_sojourn_is_insensitive(server, work, rho):
    sojourn = _sojourns(server, rho, work)
    size = JOBS // BATCHES
    means = [statistics.fmean(sojourn[k:k + size]) for k in range(size, JOBS, size)]
    theory = 1.0 / (1.0 - rho)
    se = statistics.stdev(means) / math.sqrt(len(means))
    z = (statistics.fmean(means) - theory) / se
    assert abs(z) < 4.0, f"mean sojourn {statistics.fmean(means):.3f} vs {theory:.3f} (z={z:.1f})"


@pytest.mark.parametrize("capacity, unit_rate", [(1, 1.0), (3, 0.7), (8, 2.5)])
def test_work_is_conserved_when_requests_are_cancelled(capacity, unit_rate):
    """Random work with about 30% of it cancelled at exponential times:
    the service the ``used_trace`` integral says was delivered equals Σ
    completed work + Σ (work − the remainder ``cancel`` reports)."""
    rng = random.Random(SEED)
    sim = Simulation()
    used = StepSeries()
    cpu = SharedProcessor(sim, capacity=capacity, unit_rate=unit_rate, used_trace=used)
    load = 0.9 * capacity * unit_rate
    completed: list[float] = []
    banked: list[float] = []

    def cancel(entry, work):
        if entry[2] is not None:  # still in service: its done part is banked
            banked.append(work - cpu.cancel(entry))

    def arrive(i):
        work = rng.expovariate(1.0)
        entry = cpu.submit(work, completed.append, work)
        if rng.random() < 0.3:
            sim.schedule(rng.expovariate(0.5 * unit_rate), cancel, entry, work)
        if i + 1 < 2_000:
            sim.schedule(rng.expovariate(load), arrive, i + 1)

    sim.schedule(0.0, arrive, 0)
    sim.drain()
    assert banked and completed and cpu.active_count == 0
    delivered = unit_rate * used.integral(0.0, sim.now)
    expected = math.fsum(completed) + math.fsum(banked)
    assert delivered == pytest.approx(expected, rel=1e-9, abs=0.0)
