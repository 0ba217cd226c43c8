"""Opt-in observability: monotask lifecycle tracing and trace export.

Every submodule below loads on first use (``repro/lazy.py``): importing the
package loads none, and a re-exported name loads only its own submodule, so
the simulation path never loads ``export``, ``promexport`` or ``dashboard``.
Public surface:

* :mod:`repro.obs.recorder` — ``enable()`` / ``disable()`` / ``RECORDER``
  (the one seam the hot paths read, once per hook site, ``None`` while
  both trace and telemetry are off; each hook appends one flat row).
* :mod:`repro.obs.events` — the row kinds and field schema and the
  row↔dict converters of the file boundary.
* :mod:`repro.obs.latency` — allocation-latency / queue-wait distributions
  from the per-unit folds.
* :mod:`repro.obs.export` — JSONL and Chrome Trace Format (Perfetto)
  serialization, the JSONL read-back into rows, and schema validation.
* :mod:`repro.obs.telemetry` — aggregated cluster metrics read from the
  seam's folds (counters, gauges, busy-time integrals, histograms); its
  ``enable``/``disable`` clash with the recorder's, so access it via the
  submodule (``from repro.obs import telemetry``).
* :mod:`repro.obs.timeseries` — the streaming histogram telemetry builds on
  (its gauges are :class:`repro.series.StepSeries`).
* :mod:`repro.obs.promexport` — Prometheus/OpenMetrics text exposition of
  a telemetry summary, plus a line-format validator.
* :mod:`repro.obs.dashboard` — ASCII dashboard panels over telemetry.
* :mod:`repro.obs.critpath` — the one per-unit fold of the rows (span
  trees, idle ledger, telemetry's series, latency samples) and the
  scheduling-aware critical path.
* :mod:`repro.obs.attribution` — why-slow JCT ledgers (segments sum to JCT)
  and the per-worker idle-time blame ledger, plus the canonical
  ``attribution.json`` serialization and digest.
"""

from __future__ import annotations

from ..lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    "events": "", "telemetry": "", "timeseries": "", "promexport": "", "dashboard": "",
    "recorder": "TraceRecorder RECORDER enable disable",
    "latency": "Dist dist percentile derive_latency RESOURCE_ORDER",
    "export": "write_jsonl read_trace chrome_trace write_chrome_trace "
              "write_trace_files validate_chrome_trace",
    "critpath": "UnitTrace fold_rows parse_events critical_path",
    "attribution": "attribute attribution_digest render_json write_attribution",
})

__all__ = [
    "events", "telemetry", "timeseries", "promexport", "dashboard",
    "TraceRecorder", "RECORDER", "enable", "disable",
    "Dist", "dist", "percentile", "derive_latency", "RESOURCE_ORDER",
    "write_jsonl", "read_trace", "chrome_trace", "write_chrome_trace",
    "write_trace_files", "validate_chrome_trace",
    "UnitTrace", "fold_rows", "parse_events", "critical_path",
    "attribute", "attribution_digest", "render_json", "write_attribution",
]
