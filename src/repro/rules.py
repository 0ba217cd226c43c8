"""Field rules: one vocabulary that checks every public config when it is built.

A :class:`Rule` is plain data: numeric bounds (open or closed ends,
integral or not), a set of choices, a type, or a list of items under
another rule; ``None`` or not.  A test derives from that data both what a
field refuses and what it accepts.  An infinite bound is always open, so
numbers are finite, and ``bool`` is never a number.

:func:`ruled` declares a field's rule on the field.  :func:`ruled_dataclass`
resolves a class's rules once and checks them at the start of
``__post_init__``, before the class's own cross-field checks, so
``dataclasses.replace`` re-checks too.  :func:`require` checks plain
arguments the same way::

    >>> @ruled_dataclass(frozen=True)
    ... class Pool:
    ...     workers: int = ruled(POS_INT, 4)
    >>> Pool(workers=2.5)
    Traceback (most recent call last):
    ...
    ValueError: Pool.workers must be a positive integer, got 2.5
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Any, Callable, Optional, Union


@dataclass(frozen=True)
class Rule:
    """What a field accepts.  ``choices``, ``types`` or ``items`` (a list or
    tuple whose every item ``items`` accepts) set the kind; without them the
    field is a number from ``lo`` to ``hi``, an integer if ``integral``.
    ``nullable`` admits ``None`` too."""

    want: str
    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = False
    integral: bool = False
    choices: Optional[tuple] = None
    types: Optional[tuple] = None
    items: Optional[Rule] = None
    nullable: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo_open", self.lo_open or self.lo == -math.inf)
        object.__setattr__(self, "hi_open", self.hi_open or self.hi == math.inf)

    def ok(self, value: Any) -> bool:
        if value is None:
            return self.nullable
        if self.choices is not None:
            return value in self.choices
        if self.types is not None:
            return isinstance(value, self.types)
        if self.items is not None:
            return isinstance(value, (list, tuple)) and all(map(self.items.ok, value))
        kind = type(value)  # plain ints and floats skip the slower ABC check
        if kind is bool or not (kind is int or (kind is float and not self.integral)
                                or isinstance(value, Integral if self.integral else Real)):
            return False
        # written so NaN fails
        above = self.lo < value if self.lo_open else self.lo <= value
        return above and (value < self.hi if self.hi_open else value <= self.hi)


POS = Rule("positive and finite", lo=0.0, lo_open=True)
NONNEG = Rule("non-negative and finite", lo=0.0)
UNIT = Rule("in [0, 1]", lo=0.0, hi=1.0)
POS_INT = Rule("a positive integer", lo=1, integral=True)
NONNEG_INT = Rule("a non-negative integer", lo=0, integral=True)
INT = Rule("an integer", integral=True)
FLAG = Rule("True or False", types=(bool,))
TEXT = Rule("a string", types=(str,))


def at_least(lo: float) -> Rule:
    return Rule(f"finite and >= {lo:g}", lo=lo)


def one_of(*choices: Any) -> Rule:
    return Rule(f"one of {choices}", choices=choices)


def instance(cls: type) -> Rule:
    return Rule(f"a {cls.__name__}", types=(cls,))


def optional(rule: Union[Rule, type]) -> Rule:
    """``None`` too; a type stands for :func:`instance` of it."""
    rule = instance(rule) if isinstance(rule, type) else rule
    return dataclasses.replace(rule, want=f"None or {rule.want}", nullable=True)


def seq_of(rule: Union[Rule, type]) -> Rule:
    rule = instance(rule) if isinstance(rule, type) else rule
    return Rule(f"a list or tuple of items each {rule.want}", items=rule)


def ruled(rule: Rule, default: Any = dataclasses.MISSING, **kwargs: Any) -> Any:
    """A dataclass field checked by ``rule``; ``kwargs`` go to ``field``."""
    return dataclasses.field(default=default, metadata={"rule": rule}, **kwargs)


def ruled_dataclass(**dataclass_kwargs: Any) -> Callable[[type], type]:
    """``dataclass(**dataclass_kwargs)`` for a class whose every field is
    :func:`ruled`; a field without a rule is a ``TypeError`` here."""
    def wrap(cls: type) -> type:
        own = cls.__dict__.get("__post_init__")
        if own is not None:
            def __post_init__(self) -> None:
                check(self)
                own(self)

            cls.__post_init__ = __post_init__
        elif not hasattr(cls, "__post_init__"):  # else inherited: it checks
            cls.__post_init__ = check
        cls = dataclass(cls, **dataclass_kwargs)
        rules = []
        for f in dataclasses.fields(cls):
            if "rule" not in f.metadata:
                raise TypeError(f"{cls.__name__}.{f.name} declares no rule")
            rules.append((f.name, f.metadata["rule"]))
        cls._field_rules = tuple(rules)
        return cls

    return wrap


def check(obj: Any) -> None:
    """Raise ``ValueError("<Class>.<field> must be <want>, got <value!r>")``
    for the first field of ``obj`` its rule refuses."""
    for name, rule in type(obj)._field_rules:
        value = getattr(obj, name)
        if not rule.ok(value):
            raise ValueError(f"{type(obj).__name__}.{name} must be {rule.want}, got {value!r}")


def require(rule: Rule, **args: Any) -> None:
    """The same check for arguments that are not fields: raise
    ``ValueError("<name> must be <want>, got <value!r>")``."""
    for name, value in args.items():
        if not rule.ok(value):
            raise ValueError(f"{name} must be {rule.want}, got {value!r}")
