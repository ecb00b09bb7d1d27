"""Empirical-Bayes hyperparameter selection and the estimation pipelines.

The kernel scale and decay rate are chosen by minimizing the negative
log-marginal likelihood of the data with the coefficient vector integrated
out. Kernel-ME and kernel-PEM are two cases of one ridge regression,
:class:`~kmaxent.estimators.RidgeMarginal` (re-exported here): its
:meth:`~kmaxent.estimators.RidgeMarginal.profile` gives every score of the
search, the single point of :func:`neg_log_marginal` included, and the same
reduced form gives the coefficient solve and the degrees of freedom. Each
step builds one object from the one before, which computes what it derives.
Both pipelines end in one shared tail: search, coefficient solve, degrees
of freedom and root check.

The surface is not convex, so the search is a deterministic two-stage
procedure inside a fixed box (:class:`PipelineConfig`): an exhaustive coarse
grid over (log10 lambda, beta), then a refinement of the lambda-profiled
likelihood (T. Chen and L. Ljung, Automatica 2013). ``profile`` polishes
each grid beta's best lambda and returns the exact slope in beta of the
profiled value, from the eigendecomposition it already holds. A safeguarded
cubic-Hermite search over beta follows between the best grid beta and the
neighbour its slope points to, one eigendecomposition per beta it tries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import ClassVar

import numpy as np

from .covariance import TimeSeries, ToeplitzCovariance, cholesky, estimate_lags
from .errors import InvalidOrderError, KmaxentError, PipelineError
from .estimators import (
    EstimateResult,
    Method,
    RidgeMarginal,
    WhittleDesign,
    kernel_me,
    kernel_pem,
    lagged_gram,
    preliminary_b0,
)
from .kernels import Hyperparameters, KernelFamily

_BETA_TOL = 1e-7  # absolute tolerance of the refinement over beta
_REFINE_STEPS = 40


@dataclass(frozen=True)
class PipelineConfig:
    """The fixed search box of the kernel-based pipelines; nothing is settable.

    The class constants give its log10 lambda and beta ranges and grid steps,
    17 x 10 points.
    """

    log10_lambda_min: ClassVar[float] = -4.0
    log10_lambda_max: ClassVar[float] = 4.0
    log10_lambda_step: ClassVar[float] = 0.5
    beta_min: ClassVar[float] = 0.05
    beta_max: ClassVar[float] = 0.95
    beta_step: ClassVar[float] = 0.1


def _box_axis(lo: float, hi: float, step: float) -> list[float]:
    """Ascending points lo, lo + step, ..., hi of one axis of the search box."""
    return [float(x) for x in np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)]


_BOX = PipelineConfig
_LOG10_LAMS = _box_axis(_BOX.log10_lambda_min, _BOX.log10_lambda_max, _BOX.log10_lambda_step)
# scalar powers: numpy's vectorized power can differ in the last bit
_LAMS = np.array([10.0**x for x in _LOG10_LAMS])
_BETAS = _box_axis(_BOX.beta_min, _BOX.beta_max, _BOX.beta_step)


@dataclass(frozen=True)
class HyperoptResult:
    """Outcome of the two-stage search; eta_hat attains the trace minimum.

    The edge flags are set when lambda or beta lies on the boundary of the
    search box, where the likelihood may keep falling outside it.
    """

    eta_hat: Hyperparameters
    objective_value: float
    trace: tuple[tuple[float, float, float], ...]
    lambda_on_edge: bool
    beta_on_edge: bool


def neg_log_marginal(obj: RidgeMarginal, eta: Hyperparameters) -> float:
    """Value of 0.5 log det(lam Phi K Phi^T + I) + 0.5 v~^T (lam Phi K Phi^T + I)^{-1} v~.

    Additive constants are fixed to zero by convention. Scored by the
    search's own path, :meth:`RidgeMarginal.profile` at the single point eta.
    """
    return obj.profile(np.array([eta.lam]), [eta.beta])[0][0, 0]


def _cubic_minimizer(x0, f0, g0, x1, f1, g1) -> float:
    """Minimizer of the cubic through (x0, f0) and (x1, f1) with slopes g0 and
    g1 (J. Nocedal and S. Wright, Numerical Optimization, 2006, eq. 3.59);
    nan when the cubic has none."""
    d1 = g0 + g1 - 3.0 * (f0 - f1) / (x0 - x1)
    disc = d1 * d1 - g0 * g1
    if not disc >= 0.0:
        return math.nan
    d2 = math.copysign(math.sqrt(disc), x1 - x0)
    denom = g1 - g0 + 2.0 * d2
    return x1 - (x1 - x0) * (g1 + d2 - d1) / denom if denom != 0.0 else math.nan


def optimize_hyperparameters(obj) -> HyperoptResult:
    """Two-stage deterministic search for (lambda, beta) inside the fixed box.

    Stage 1 scores the 17 x 10 grid of :class:`PipelineConfig` in one
    ``obj.profile(lams, betas)`` call; for the ridge-marginal objectives that
    is one eigendecomposition of the reduced n x n form per beta and O(n) per
    lambda. The trace lists the grid first, ascending log10 lambda outer and
    ascending beta inner, then each grid beta's polished best lambda.

    Stage 2 refines beta on the lambda-profiled likelihood P(beta), whose
    exact slope ``profile`` returns with each value. The best polished grid
    beta and the neighbour its slope points to bracket a minimum; a slope
    that points out of the box ends the search there. Each step goes to the
    minimizer of the cubic through the bracket ends' values and slopes, or
    bisects when that is undefined or outside the bracket, and costs one
    ``obj.profile`` of a single beta. The bracket keeps at one end its lowest
    point, whose slope points into it. The search stops when the bracket or
    the step is within 1e-7, after 40 steps, or at a slope that is not
    finite. Every point stays in the box, and the returned pair attains the
    minimum over the trace, so the result is never worse than the best grid
    point. The ridge objectives raise InvalidDataError from ``profile`` when
    a grid or polished value is not finite.
    """
    values, lam_star, value_star, slope = obj.profile(_LAMS, _BETAS)
    trace = [
        (lam, beta, value)
        for lam, row in zip(_LAMS.tolist(), values.tolist())
        for beta, value in zip(_BETAS, row)
    ]
    trace.extend(zip(lam_star.tolist(), _BETAS, value_star.tolist()))
    j = int(np.argmin(value_star))
    a, fa, ga = _BETAS[j], float(value_star[j]), float(slope[j])
    k = j - 1 if ga > 0.0 else j + 1 if ga < 0.0 else -1
    if 0 <= k < len(_BETAS) and np.isfinite(slope[[j, k]]).all():
        b, fb, gb = _BETAS[k], float(value_star[k]), float(slope[k])
        for _ in range(_REFINE_STEPS):
            x = _cubic_minimizer(a, fa, ga, b, fb, gb)
            if not min(a, b) < x < max(a, b):
                x = 0.5 * (a + b)
            if abs(b - a) <= _BETA_TOL or abs(x - a) <= _BETA_TOL:
                break
            _, lam, value, grad = obj.profile(_LAMS, [x])
            fx, gx = float(value[0]), float(grad[0])
            trace.append((float(lam[0]), x, fx))
            if not math.isfinite(gx):
                break
            if fx > fa:
                b, fb, gb = x, fx, gx
            else:
                if gx * (b - a) >= 0.0:  # the minimum now lies between a and x
                    b, fb, gb = a, fa, ga
                a, fa, ga = x, fx, gx

    lam_best, beta_best, value_best = min(trace, key=lambda entry: entry[2])
    return HyperoptResult(
        eta_hat=Hyperparameters(lam_best, beta_best),
        objective_value=value_best,
        trace=tuple(trace),
        lambda_on_edge=bool(not _LAMS[0] < lam_best < _LAMS[-1]),
        beta_on_edge=bool(not _BETAS[0] < beta_best < _BETAS[-1]),
    )


def _step(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except KmaxentError as exc:
        raise PipelineError(name, str(exc)) from exc


def _fit(route: str, family: KernelFamily, objective, solve, jitter=0.0):
    """Shared tail of both pipelines: search, coefficient solve, degrees of
    freedom and the result tagged ``<route>-<family>``, whose construction
    runs the root check.

    ``solve(family, eta)`` is the coefficient solve of ``route`` ("me" or
    "pem"); failures name the step ``hyperparameters`` or ``kernel_<route>``.
    """
    hyper = _step("hyperparameters", optimize_hyperparameters, objective)
    b_hat = _step(f"kernel_{route}", solve, family, hyper.eta_hat)
    return EstimateResult(
        b_hat=b_hat,
        eta_hat=hyper.eta_hat,
        df=objective.df(hyper.eta_hat),
        method_tag=Method(f"{route}-{family.value}"),
        jitter_used=jitter,
    )


def run_pipeline(
    y: TimeSeries, n: int, kernel_family: KernelFamily, low_order: int = 4
) -> EstimateResult:
    """Full kernel-based maximum-entropy estimation.

    Executes, in order: preliminary leading-coefficient estimate (Yule-Walker
    at order ``low_order``), covariance lags and their ToeplitzCovariance at
    order ``n``, Cholesky factorization (with capped jitter), the factor's
    WhittleDesign, marginal-likelihood hyperparameter search, and the
    closed-form coefficient solve at the selected hyperparameters; degrees of
    freedom (from the search's reduced form) and the minimum-phase root check
    are evaluated on the result, all on the covariance the factor carries
    (jitter-repaired when needed). Deterministic given its inputs.
    """
    N = y.n_samples
    if not 0 < n < N:
        raise InvalidOrderError(f"order n={n} must satisfy 0 < n < N={N}")
    kernel_family = KernelFamily(kernel_family)
    b0 = _step("preliminary_b0", preliminary_b0, y, low_order)
    lags = _step("estimate_lags", estimate_lags, y, n)
    cov = _step("build_toeplitz", ToeplitzCovariance, lags)
    factor = _step("cholesky", cholesky, cov)
    design = _step("whittle_design", WhittleDesign, factor, b0, N)
    objective = _step("hyperparameters", RidgeMarginal.whittle, design, kernel_family)
    return _fit("me", kernel_family, objective, partial(kernel_me, design), factor.jitter)


def run_pem_pipeline(
    y: TimeSeries, n: int, kernel_family: KernelFamily, low_order: int = 4
) -> EstimateResult:
    """Kernel-regularized predictor baseline with tuned hyperparameters.

    Shares the marginal-likelihood search and the fit tail with
    :func:`run_pipeline`, applied to the lagged-regression form of the data.
    Its Gram is built once by :func:`lagged_gram` (autocorrelation sums minus
    the 2n edge rows), and the objective and :func:`kernel_pem` both take the
    whole matrix, so no N x n design is formed and memory is O(N + n^2).
    Like :func:`run_pipeline` it runs the preliminary b_0 step first. Raises
    InvalidOrderError unless N > 2n >= 2.
    """
    kernel_family = KernelFamily(kernel_family)
    b0 = _step("preliminary_b0", preliminary_b0, y, low_order)
    gram = lagged_gram(y, n)
    objective = _step("hyperparameters", RidgeMarginal.regression, gram, b0, kernel_family)
    return _fit("pem", kernel_family, objective, partial(kernel_pem, y, gram))
