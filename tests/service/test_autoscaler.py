"""Hysteresis core: stability windows, cooldown, and no flapping."""

import pytest

from repro.service import AutoscalerConfig, HysteresisScaler, LoadSample

CFG = AutoscalerConfig(
    interval=1.0, up_queue=2, up_wait=3.0, up_util=0.85, down_util=0.25,
    up_stable=2, down_stable=3, cooldown=5.0,
)


def _feed(scaler, samples):
    return [scaler.decide(s) for s in samples]


def _const(util, queue=0, wait=0.0, n=20, t0=0.0):
    return [
        LoadSample(t=t0 + i, queue_depth=queue, head_wait=wait, utilization=util)
        for i in range(n)
    ]


def test_constant_midband_load_never_acts():
    # 50 % utilization with an empty queue is neither pressured nor idle:
    # a constant load in the dead band must never cause an action
    scaler = HysteresisScaler(CFG)
    assert _feed(scaler, _const(util=0.5)) == [0] * 20


def test_constant_pressure_scales_up_at_cooldown_pace_no_flapping():
    scaler = HysteresisScaler(CFG)
    decisions = _feed(scaler, _const(util=0.95, n=20))
    # first action after up_stable samples, then one per cooldown window
    assert decisions[0] == 0 and decisions[1] == 1
    assert -1 not in decisions  # pressure never triggers a down
    ups = [i for i, d in enumerate(decisions) if d == 1]
    assert all(b - a >= CFG.cooldown for a, b in zip(ups, ups[1:]))


def test_constant_idle_scales_down_slowly():
    scaler = HysteresisScaler(CFG)
    decisions = _feed(scaler, _const(util=0.0, n=20))
    assert decisions[:3] == [0, 0, -1]  # down_stable samples first
    assert 1 not in decisions


def test_oscillating_load_inside_the_band_is_ignored():
    # alternating between the two band edges resets both streaks: the
    # scaler must hold steady (this is the anti-flap guarantee)
    scaler = HysteresisScaler(CFG)
    samples = []
    for i in range(30):
        util = 0.80 if i % 2 == 0 else 0.30  # below up_util, above down_util
        samples.append(LoadSample(t=float(i), queue_depth=1, head_wait=0.0,
                                  utilization=util))
    assert _feed(scaler, samples) == [0] * 30


def test_queue_depth_and_head_wait_also_signal_pressure():
    scaler = HysteresisScaler(CFG)
    assert _feed(scaler, _const(util=0.1, queue=5, n=2)) == [0, 1]
    scaler = HysteresisScaler(CFG)
    assert _feed(scaler, _const(util=0.1, wait=10.0, n=2)) == [0, 1]


def test_pressure_resets_the_idle_streak_and_vice_versa():
    scaler = HysteresisScaler(CFG)
    # two idle samples (one short of down_stable), then pressure
    _feed(scaler, _const(util=0.0, n=2))
    decisions = _feed(scaler, _const(util=0.95, n=2, t0=2.0))
    assert decisions == [0, 1]  # the up streak was not polluted


def test_cooldown_spans_action_types():
    scaler = HysteresisScaler(CFG)
    assert _feed(scaler, _const(util=0.95, n=2)) == [0, 1]
    # immediately idle: down_stable is reached inside the cooldown window
    decisions = _feed(scaler, _const(util=0.0, n=3, t0=2.0))
    assert decisions == [0, 0, 0]
    # after the cooldown expires the pending idle streak may act
    assert -1 in _feed(scaler, _const(util=0.0, n=3, t0=5.0))


def test_config_validation():
    with pytest.raises(ValueError):
        AutoscalerConfig(interval=0.0)
    with pytest.raises(ValueError):
        AutoscalerConfig(min_workers=0)
    with pytest.raises(ValueError):
        AutoscalerConfig(up_stable=0)
    with pytest.raises(ValueError):
        AutoscalerConfig(down_util=0.9, up_util=0.8)


@pytest.mark.parametrize("field, value", [
    ("interval", float("nan")),
    ("interval", float("inf")),
    ("up_wait", float("nan")),
    ("up_util", float("inf")),
    ("down_util", float("nan")),
    ("cooldown", float("inf")),
    ("max_workers", -2),
    ("initial_workers", -1),
])
def test_config_rejects_non_finite_or_negative_field(field, value):
    """A bad value fails at construction naming its field, not mid-run
    (NaN ``interval``), silently (NaN ``up_wait`` never signals) or as the
    whole cluster (negative ``max_workers``)."""
    with pytest.raises(ValueError, match=field):
        AutoscalerConfig(**{field: value})
