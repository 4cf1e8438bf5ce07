"""Radio-map interpolation over sparse sensor grids.

Predicts received power between sensors using correlation-aware and
distance-weighted interpolators, and quantifies their RMS error both in
closed form and by Monte Carlo simulation.
"""

__version__ = "0.1.0"

import os

# OpenBLAS starts its worker pool when numpy loads, and the spare thread spins
# through the rest of the import; radiomap's parallelism is its own forked
# workers, and its products are small. So it asks for one BLAS thread before
# the first import that loads numpy, unless the caller has chosen a count, and
# leaves the variable set for scipy's own OpenBLAS, loaded at the first normal
# draw. A process that loaded numpy first keeps numpy's pool (README, "One
# BLAS thread by default").
if not any(name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .geometry import Point, QueryGrid, Scenario, build_square_scenario, distance, make_grid
from .correlation import (
    CorrelationModel,
    correlation,
    covariance_matrix,
    cross_covariance,
)
from .field import median_power, sample_shadow
from .estimators import (
    ALL_METHODS,
    AffinePowerMap,
    DegenerateGeometryError,
    FitResult,
    OutsideHullError,
    Prediction,
    as_affine,
    lse_fit,
    method_weights,
    predict,
    sibson_weights,
    sm0_weights,
    sm2_weights,
)
from .analysis import (
    AffineErrorForm,
    LseErrorCoeffs,
    analytic_rmse,
    error_form,
    lse_error_coeffs,
    sm0_sigma0,
)
from .harness import (
    DEFAULT_RATIOS,
    EMITTER_PRESETS,
    ConfigError,
    ExperimentConfig,
    RmseSurface,
    SweepRow,
    WorkerError,
    grid_rmse,
    point_rmse_mc,
    rmse_distribution,
    spatial_average,
    sweep,
)

__all__ = [
    "__version__",
    "Point",
    "QueryGrid",
    "Scenario",
    "build_square_scenario",
    "distance",
    "make_grid",
    "CorrelationModel",
    "correlation",
    "covariance_matrix",
    "cross_covariance",
    "median_power",
    "sample_shadow",
    "ALL_METHODS",
    "AffinePowerMap",
    "DegenerateGeometryError",
    "FitResult",
    "OutsideHullError",
    "Prediction",
    "as_affine",
    "lse_fit",
    "method_weights",
    "predict",
    "sibson_weights",
    "sm0_weights",
    "sm2_weights",
    "AffineErrorForm",
    "LseErrorCoeffs",
    "analytic_rmse",
    "error_form",
    "lse_error_coeffs",
    "sm0_sigma0",
    "DEFAULT_RATIOS",
    "EMITTER_PRESETS",
    "ConfigError",
    "ExperimentConfig",
    "RmseSurface",
    "SweepRow",
    "WorkerError",
    "grid_rmse",
    "point_rmse_mc",
    "rmse_distribution",
    "spatial_average",
    "sweep",
]
