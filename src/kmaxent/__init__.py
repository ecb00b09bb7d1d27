"""Kernel-regularized maximum-entropy spectral estimation for ARMA processes."""

from .covariance import (
    CholeskyFactor,
    TimeSeries,
    ToeplitzCovariance,
    cholesky,
    estimate_lags,
)
from .diagnostics import degrees_of_freedom, shrinkage_df
from .errors import (
    DataParseError,
    InvalidDataError,
    InvalidHyperparameterError,
    InvalidModelError,
    InvalidOrderError,
    KmaxentError,
    NotPositiveDefiniteError,
    PipelineError,
)
from .estimators import (
    EstimateResult,
    Method,
    PredictorPolynomial,
    WhittleDesign,
    check_min_phase,
    kernel_me,
    kernel_pem,
    lagged_gram,
    me_bic,
    preliminary_b0,
    yule_walker,
)
from .harness import (
    ExperimentConfig,
    TrialRecord,
    estimate_file,
    run_monte_carlo,
    run_single_trial,
    summarize,
    trial_seed,
)
from .hyperopt import (
    HyperoptResult,
    PipelineConfig,
    RidgeMarginal,
    neg_log_marginal,
    optimize_hyperparameters,
    run_pem_pipeline,
    run_pipeline,
)
from .kernels import (
    Hyperparameters,
    KernelFactorization,
    KernelFamily,
    KernelSpec,
    inverse_factorization,
)
from .simulate import (
    ArmaModel,
    SpectrumModel,
    benchmark_arma,
    eval_spectrum,
    frequency_grid,
    generate,
    random_arma,
    reconstruction_error,
)

__version__ = "0.1.0"
