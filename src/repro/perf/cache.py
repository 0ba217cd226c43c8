"""Content-addressed on-disk cache for simulation-unit results.

Layout (under the cache root)::

    objects/<first two hex chars>/<sha256>.pkl

Each object is a pickle of ``{"meta": <key material dict>, "payload": ...}``
— the ``meta`` dict is redundant with the address but makes cache debugging
(``repro.experiments --cache-dir ... --list``-style inspection) possible
without reverse-engineering hashes.

A cache key covers everything that determines a unit's result:

* the experiment name and the unit key within it,
* the :class:`~repro.experiments.common.Scale` (its repr covers the cluster
  spec, workload knobs and event budget),
* the seed and any extra experiment kwargs,
* a content fingerprint of the whole ``src/repro`` source tree (see
  :mod:`repro.perf.fingerprint`) so *any* simulator edit invalidates
  everything.

Writes are atomic (tmp file + rename) so a crashed or parallel writer can
never leave a torn object behind.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Any, Optional

from .fingerprint import source_fingerprint

__all__ = ["ResultCache"]

_MISS = object()


class ResultCache:
    """Pickle-backed content-addressed store for unit payloads."""

    def __init__(self, root: str | Path, fingerprint: Optional[str] = None):
        self.root = Path(root)
        self.fingerprint = fingerprint if fingerprint is not None else source_fingerprint()
        (self.root / "objects").mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------
    def key_material(self, experiment: str, scale, unit_key, seed: int, kwargs: dict) -> dict:
        return {
            "experiment": experiment,
            "unit": repr(unit_key),
            "scale": repr(scale),
            "seed": seed,
            "kwargs": repr(sorted(kwargs.items())),
            "source": self.fingerprint,
        }

    def key_for(self, experiment: str, scale, unit_key, seed: int = 0, kwargs: dict | None = None) -> str:
        material = self.key_material(experiment, scale, unit_key, seed, kwargs or {})
        blob = "\0".join(f"{k}={material[k]}" for k in sorted(material))
        return hashlib.sha256(blob.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------------------
    # get / put
    # ------------------------------------------------------------------
    def get(self, key: str) -> Any:
        """Return the cached payload or raise :class:`KeyError`."""
        payload = self._load(key)
        if payload is _MISS:
            raise KeyError(key)
        return payload

    def _load(self, key: str) -> Any:
        path = self._path(key)
        try:
            with path.open("rb") as fh:
                obj = pickle.load(fh)
            return obj["payload"]
        except Exception:
            # Unpickling arbitrary corrupt bytes can raise nearly anything
            # (ValueError, AttributeError, struct.error, ...) — any object
            # we cannot read back cleanly is a miss, never an error.
            return _MISS

    def put(self, key: str, payload: Any, meta: dict | None = None) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with tmp.open("wb") as fh:
            pickle.dump({"meta": meta or {}, "payload": payload}, fh, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.replace(path)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for _ in (self.root / "objects").rglob("*.pkl"))

    def clear(self) -> int:
        """Delete every cached object; returns how many were removed."""
        removed = 0
        for path in (self.root / "objects").rglob("*.pkl"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed
