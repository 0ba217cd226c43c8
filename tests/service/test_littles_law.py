"""Little's law on the service driver's records (a queueing oracle).

Over ``[0, end]`` the area under the running-jobs curve telemetry records
equals the total time the jobs spent running: each admitted job counts
from its admission (its JobManager start, when the curve steps up) to its
finish or to ``end`` if it is still in flight.  This is L = λW for the
jobs in the system, with no distribution assumed, so it must hold to
rounding on every run, shed and in-flight jobs included.
"""

import math
from dataclasses import replace

import pytest

from repro.experiments import fig_service
from repro.experiments.common import SCALES
from repro.obs import telemetry

SMALL = replace(SCALES["tiny"], name="svc-test", n_jobs=3)


#: poisson-x2.0 sheds and ends with jobs in flight; diurnal-x1.0 scales
@pytest.mark.parametrize("key", ["poisson-x2.0", "diurnal-x1.0"])
def test_running_jobs_area_is_the_jobs_time_in_system(key):
    tel = telemetry.enable()  # before the build: the engine registers
    try:
        driver = fig_service.build_unit(SMALL, key, seed=0)
        report = driver.run()
    finally:
        telemetry.disable()
    (unit,) = tel.summary()["units"].values()
    end = driver.system.sim.now
    assert unit["sim_end"] == end
    area = unit["running_jobs"]["mean"] * end
    jobs = [j for j in driver.system.jobs if j.admit_time is not None]
    in_system = sum(
        (end if j.finish_time is None else min(j.finish_time, end)) - j.admit_time
        for j in jobs
    )
    assert report["counts"]["completed"] > 0 and area > 0
    assert math.isclose(area, in_system, rel_tol=1e-9)
