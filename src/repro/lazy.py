"""Package re-exports that load their submodule on first read (PEP 562)."""

from __future__ import annotations

import sys
from importlib import import_module

__all__ = ["lazy_exports"]


def lazy_exports(package: str, table: dict[str, str]):
    """The ``__getattr__`` of *package*: *table* maps each submodule to the
    space-separated names it exports besides its own.  The first read of a
    name imports its submodule and stores the value in the package, so later
    reads are plain attribute reads and a run never loads what it never reads."""
    where = {name: sub for sub, names in table.items() for name in (sub, *names.split())}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        sub = where.get(name)
        if sub is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = import_module(f"{package}.{sub}")
        namespace[name] = value = value if name == sub else getattr(value, name)
        return value

    return __getattr__
