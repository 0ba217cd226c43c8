"""Tests for EJF / SRJF job-ordering policies."""

import pytest

from repro.dataflow import DepType, OpGraph, ResourceType
from repro.execution import Job
from repro.scheduler import EarliestJobFirst, SmallestRemainingJobFirst
from repro.scheduler.ordering import SRJF_BONUS_CAP


def make_job(job_id, submit_time, input_mb=100.0, partitions=2):
    g = OpGraph(f"job{job_id}")
    src = g.create_data(partitions)
    g.set_input(src, [input_mb / partitions] * partitions)
    msg = g.create_data(partitions)
    ser = g.create_op(ResourceType.CPU, "ser").read(src).create(msg)
    sh = g.create_op(ResourceType.NETWORK, "sh").read(msg).create(g.create_data(partitions))
    ser.to(sh, DepType.SYNC)
    return Job(job_id, g, submit_time, requested_memory_mb=1024.0)


def test_ejf_ranks_by_submit_time():
    p = EarliestJobFirst()
    a = make_job(0, submit_time=5.0)
    b = make_job(1, submit_time=2.0)
    assert p.job_rank(b, 10.0) < p.job_rank(a, 10.0)


def test_ejf_bonus_grows_linearly_with_age():
    p = EarliestJobFirst(weight=0.1)
    a = make_job(0, submit_time=0.0)
    assert p.placement_bonus(a, 10.0) == pytest.approx(1.0)
    assert p.placement_bonus(a, 20.0) == pytest.approx(2.0)
    assert p.placement_bonus(a, 0.0) == 0.0


def test_srjf_prefers_smaller_remaining_job():
    p = SmallestRemainingJobFirst()
    small = make_job(0, 0.0, input_mb=10.0)
    big = make_job(1, 0.0, input_mb=1000.0)
    p.refresh([small, big], now=0.0)
    assert p.job_rank(small, 0.0) < p.job_rank(big, 0.0)
    assert p.placement_bonus(small, 0.0) > p.placement_bonus(big, 0.0)


def test_srjf_rank_drops_as_work_drains():
    p = SmallestRemainingJobFirst()
    a = make_job(0, 0.0, input_mb=100.0)
    b = make_job(1, 0.0, input_mb=100.0)
    p.refresh([a, b], now=0.0)
    rank_before = p.job_rank(a, 0.0)
    a.decrement_remaining(ResourceType.CPU, 90.0)
    a.decrement_remaining(ResourceType.NETWORK, 90.0)
    assert p.job_rank(a, 0.0) < rank_before
    assert p.job_rank(a, 0.0) < p.job_rank(b, 0.0)


def test_srjf_weights_contended_resource():
    """A job whose remaining work sits on the loaded resource ranks worse."""
    p = SmallestRemainingJobFirst()
    cpu_heavy = make_job(0, 0.0, input_mb=100.0)
    net_heavy = make_job(1, 0.0, input_mb=100.0)
    # distort remaining-work vectors manually
    cpu_heavy.remaining_work = {
        ResourceType.CPU: 100.0,
        ResourceType.NETWORK: 0.0,
        ResourceType.DISK: 0.0,
    }
    net_heavy.remaining_work = {
        ResourceType.CPU: 0.0,
        ResourceType.NETWORK: 10.0,
        ResourceType.DISK: 0.0,
    }
    p.refresh([cpu_heavy, net_heavy], now=0.0)
    assert p.job_rank(net_heavy, 0.0) < p.job_rank(cpu_heavy, 0.0)


def test_srjf_bonus_capped():
    assert SRJF_BONUS_CAP == 200.0
    p = SmallestRemainingJobFirst(weight=1.0)
    nearly_done = make_job(0, 0.0, input_mb=100.0)
    other = make_job(1, 0.0, input_mb=100.0)
    for r in (ResourceType.CPU, ResourceType.NETWORK, ResourceType.DISK):
        nearly_done.remaining_work[r] = 1e-12
    p.refresh([nearly_done, other], now=0.0)
    assert p.placement_bonus(nearly_done, 0.0) == pytest.approx(200.0)


def test_srjf_no_load_no_bonus():
    p = SmallestRemainingJobFirst()
    p.refresh([], now=0.0)
    job = make_job(0, 0.0)
    assert p.placement_bonus(job, 0.0) == 0.0
