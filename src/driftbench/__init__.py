"""Drift detection estimators and a permutation-based evaluation harness."""

__version__ = "0.1.0"

from .errors import DataError, DriftBenchError, InvalidSplitError, ParameterError
from .windows import (
    PairedWindows,
    Window,
    candidate_split_times,
    ingest_window,
    make_paired,
    permute_timestamps,
    window_from_csv,
)
from .histograms import (
    CumulativeHistogram,
    histogram_metric,
    to_distribution,
    total_variation,
)
from .partitions import (
    Binning1D,
    GridPartition,
    Partition,
    TreePartition,
    build_grid,
    build_kdq_tree,
    build_marginal,
    build_pca_projection,
    build_random_projection,
    build_random_tree,
)
from .moment_tree import (
    MomentForest,
    MomentTree,
    MomentTreeConfig,
    fit_moment_forest,
    fit_moment_tree,
    truncate_reference,
)
from .neighbor_kernel import (
    KernelGram,
    NeighborGraph,
    build_kernel_gram,
    build_neighbor_graph,
)
from .detector import (
    Descriptor,
    DriftVerdict,
    Estimator,
    KnnKlEstimator,
    LddEstimator,
    MmdEstimator,
    MomentForestEstimator,
    PartitionEstimator,
    classifier_tv_oracle,
    detect_drift,
    scan_splits,
)
from .generators import (
    csv_concept_pair,
    rbf_pair,
    rhp_pair,
    sea_pair,
    stagger_pair,
    with_noise,
)
from .harness import (
    ESTIMATOR_BUILDERS,
    EvalRecords,
    ExperimentConfig,
    ResultTable,
    collect_records,
    load_config,
    make_estimator,
    p_pa,
    p_perm,
    p_thre,
    run_cell,
    run_grid,
)
