"""Values a field rule accepts and refuses, derived from the rule's data.

``strategy(rule)`` draws accepted values (each finite closed end is drawn
often), ``config_strategy(cls)`` builds whole configs from their fields'
rules, and ``refused(rule)`` lists the values a rule must turn down.  Test
code only: ``src/`` does not import hypothesis.
"""

from __future__ import annotations

import math

from hypothesis import strategies as st

from repro.baselines.tetris import CapacityPlacement, TetrisPlacement
from repro.faults.plan import FaultPlan, WorkerCrash
from repro.rules import Rule
from repro.scheduler.placement import PlacementPolicy, UrsaPlacement

NAN, INF = float("nan"), float("inf")

#: cross-field checks a config writes by hand, as predicates on its kwargs
CROSS_FIELD = {
    "AutoscalerConfig": lambda kw: kw["down_util"] < kw["up_util"],
    "ServiceConfig": lambda kw: kw["warmup"] < kw["horizon"],
}

#: instances for the type rules that name a class without field rules
_INSTANCES = {
    bool: st.booleans(),
    str: st.text(max_size=8),
    FaultPlan: st.sampled_from([FaultPlan(), FaultPlan((WorkerCrash(at=1.0, worker=0),))]),
    PlacementPolicy: st.sampled_from([UrsaPlacement, TetrisPlacement, CapacityPlacement]).map(
        lambda cls: cls()
    ),
}


def closed_ends(rule: Rule) -> list:
    """The finite ends a numeric rule includes: 0 for NONNEG, 1 for
    ``at_least(1)``, 0 and 1 for UNIT."""
    return [end for end, is_open in ((rule.lo, rule.lo_open), (rule.hi, rule.hi_open))
            if not is_open]


def strategy(rule: Rule) -> st.SearchStrategy:
    """Values ``rule`` accepts."""
    if rule.choices is not None:
        values = st.sampled_from(rule.choices)
    elif rule.types is not None:
        (cls,) = rule.types
        values = _INSTANCES[cls] if cls in _INSTANCES else config_strategy(cls)
    elif rule.items is not None:
        items = strategy(rule.items)
        values = st.lists(items, max_size=3) | st.lists(items, max_size=3).map(tuple)
    else:
        lo = None if rule.lo == -math.inf else rule.lo
        hi = None if rule.hi == math.inf else rule.hi
        if rule.integral:
            values = st.integers(
                min_value=None if lo is None else lo + rule.lo_open,
                max_value=None if hi is None else hi - rule.hi_open,
            )
        else:
            values = st.floats(
                min_value=lo, max_value=hi,
                exclude_min=lo is not None and rule.lo_open,
                exclude_max=hi is not None and rule.hi_open,
                allow_nan=False, allow_infinity=False,
            )
        ends = closed_ends(rule)
        if ends:
            values = st.sampled_from(ends) | values
    return st.none() | values if rule.nullable else values


def config_strategy(cls: type) -> st.SearchStrategy:
    """Instances of a config built from accepted values of every field."""
    check = CROSS_FIELD.get(cls.__name__, lambda kw: True)
    kwargs = st.fixed_dictionaries(
        {name: strategy(rule) for name, rule in cls._field_rules}
    )
    return kwargs.filter(check).map(lambda kw: cls(**kw))


def refused(rule: Rule) -> list:
    """Values ``rule`` must refuse: NaN, ±inf, a negative, zero and a
    non-integral float wherever its data forbids them, values just past
    and at each open finite end, bools and strings for numbers, and
    ``None`` unless the rule is nullable."""
    bad = [] if rule.nullable else [None]
    odd = [NAN, INF, -INF, -1, 0, 2.5, "bogus"]
    if rule.choices is not None:
        return bad + [v for v in odd if v not in rule.choices]
    if rule.types is not None:
        return bad + [v for v in odd if not isinstance(v, rule.types)]
    if rule.items is not None:
        return bad + ["ab", 1] + [[v] for v in refused(rule.items)]
    bad += [NAN, INF, -INF, True, "1"]
    candidates = (-1, 0, 2) if rule.integral else (-1.0, 0.0, 2.5)
    bad += [x for x in candidates if not _within(rule, x)]
    if rule.integral:
        bad += [2.0, 2.5]
    for end, is_open, step in ((rule.lo, rule.lo_open, -1), (rule.hi, rule.hi_open, 1)):
        if math.isfinite(end):
            bad.append(end + step)
            if is_open:
                bad.append(end)
    return bad


def _within(rule: Rule, x: float) -> bool:
    above = x > rule.lo if rule.lo_open else x >= rule.lo
    return above and (x < rule.hi if rule.hi_open else x <= rule.hi)
