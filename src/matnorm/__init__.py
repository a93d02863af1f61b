"""Matrix normal distributions: density evaluation, sampling, and estimation.

The package fits mean and separable covariance parameters to collections of
matrix-valued observations, with or without missing entries, and provides a
small analysis toolkit (spectral decomposition of the fitted row covariance,
class separation measures, classification) plus a command line interface.
"""

from .linalg import (
    SingularPivotError,
    indicator_matrix,
    kron,
    sweep,
    unvec,
    vec,
)
from .model import (
    DataError,
    MatrixNormalParams,
    ObservationSet,
    full_log_likelihood,
    log_density,
    mahalanobis,
    observed_log_likelihood,
    sample,
)
from .mle import (
    EstimationError,
    FitConfig,
    FitResult,
    SingularUpdateError,
    fit_mle,
    stationarity_residual,
)
from .missing import (
    ConditionalMoments,
    MissingPattern,
    UnstructuredParams,
    conditional_moments,
    fit_em,
    fit_gem,
    fit_mm,
)
from .simulate import (
    SimConfig,
    SimReport,
    SimRow,
    inject_missing,
    random_params,
    relative_error_mean,
    relative_error_sigma,
    run_grid,
)
from .spectral import (
    ClassModel,
    ClusterMerge,
    LabeledObservationSet,
    PcaResult,
    class_distance,
    distance_matrix,
    fit_class_models,
    hierarchical_cluster,
    mle_classify,
    pca_row_cov,
    project,
    projected_class_stats,
    separability,
)

__version__ = "0.1.0"

__all__ = [
    "SingularPivotError",
    "indicator_matrix",
    "kron",
    "sweep",
    "unvec",
    "vec",
    "DataError",
    "MatrixNormalParams",
    "ObservationSet",
    "full_log_likelihood",
    "log_density",
    "mahalanobis",
    "observed_log_likelihood",
    "sample",
    "EstimationError",
    "FitConfig",
    "FitResult",
    "SingularUpdateError",
    "fit_mle",
    "stationarity_residual",
    "ConditionalMoments",
    "MissingPattern",
    "UnstructuredParams",
    "conditional_moments",
    "fit_em",
    "fit_gem",
    "fit_mm",
    "SimConfig",
    "SimReport",
    "SimRow",
    "inject_missing",
    "random_params",
    "relative_error_mean",
    "relative_error_sigma",
    "run_grid",
    "ClassModel",
    "ClusterMerge",
    "LabeledObservationSet",
    "PcaResult",
    "class_distance",
    "distance_matrix",
    "fit_class_models",
    "hierarchical_cluster",
    "mle_classify",
    "pca_row_cov",
    "project",
    "projected_class_stats",
    "separability",
    "__version__",
]
