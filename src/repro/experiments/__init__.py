"""One module per table/figure of the paper's evaluation (§5)."""

from .common import SCALES, ExperimentResult, Scale, build_system, run_one_system

__all__ = ["SCALES", "ExperimentResult", "Scale", "build_system", "run_one_system"]
