"""Drift detection estimators and a permutation-based evaluation harness.

The names here are the library API: windows, the concept-pair generators,
estimators by id, ``scan_splits`` and ``detect_drift``, the grid harness
and the error classes.  Everything else is imported from its module, e.g.
``driftbench.detector.rf_estimator`` or
``driftbench.partitions.build_random_tree``.
"""

__version__ = "0.1.0"

from .errors import DataError, DriftBenchError, InvalidSplitError, ParameterError
from .windows import Window, make_paired, window_from_csv
from .generators import csv_concept_pair, rbf_pair, rhp_pair, sea_pair, stagger_pair
from .detector import detect_drift, scan_splits
from .harness import ExperimentConfig, load_config, make_estimator, run_grid
