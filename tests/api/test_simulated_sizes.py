"""The sizes the simulator sees for API jobs.

An API action runs its UDFs on real data and the simulated job carries the
sizes of what they produce.  These pins fix, for three jobs, the simulated
JCT and the summed input size and work of the job's monotasks, so a change
to how real data becomes sizes cannot move the simulation unnoticed.
"""

import pytest

from repro.api import UrsaContext, connected_components_program, run_pregel
from repro.cluster import ClusterSpec

TEXT = """
ursa schedules monotasks ursa allocates resources timely
monotasks use one resource each so the scheduler can overlap
cpu of one job with network of another job and keep the cluster busy
""".split()


def _word_count(ctx):
    ctx.parallelize(TEXT, partitions=8).map(lambda w: (w, 1)).reduce_by_key(
        lambda a, b: a + b, partitions=4
    ).collect()


def _join(ctx):
    left = ctx.parallelize([(k % 7, k) for k in range(40)], partitions=4, name="left")
    right = ctx.parallelize(
        [(k % 5, str(k)) for k in range(25)], partitions=3, name="right", graph=left.graph
    )
    left.join(right, partitions=2).collect()


def _connected_components(ctx):
    edges = [(v, (v * 5 + 3) % 16) for v in range(16)] + [(v, v + 1) for v in range(0, 15, 4)]
    adjacency = {v: [] for v in range(16)}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    run_pregel(ctx, {v: v for v in range(16)}, adjacency, connected_components_program(),
               supersteps=3, partitions=4)


@pytest.mark.parametrize("build, jct, input_mb, work_mb", [
    (_word_count, 0.50004064, 0.0093, 0.012399999999999998),
    (_join, 0.5001542400000001, 0.019500000000000003, 0.019500000000000003),
    (_connected_components, 1.0000486400000002, 0.025599999999999994, 0.040799999999999996),
], ids=["word-count", "join", "connected-components"])
def test_simulated_sizes_of_api_jobs(build, jct, input_mb, work_mb):
    ctx = UrsaContext(ClusterSpec.small(num_machines=4, cores=8))
    build(ctx)
    job = ctx.system.completed_jobs[-1]
    monotasks = job.plan.monotasks
    got = (job.jct, sum(m.input_size_mb for m in monotasks), sum(m.work_mb for m in monotasks))
    assert got == (jct, input_mb, work_mb)
