"""Empirical-Bayes hyperparameter selection and the estimation pipelines.

The kernel scale and decay rate are chosen by minimizing the negative
log-marginal likelihood of the data with the coefficient vector integrated
out. Kernel-ME and kernel-PEM are two cases of one ridge regression,
:class:`~kmaxent.estimators.RidgeMarginal` (re-exported here): its
:meth:`~kmaxent.estimators.RidgeMarginal.profile` gives every score of the
search, the single point of :func:`neg_log_marginal` included, and the same
reduced form gives the coefficient solve and the degrees of freedom. Both
pipelines end in one shared tail: search, coefficient solve, degrees of
freedom and root check.

The surface is not convex, so the search is a deterministic two-stage
procedure inside a fixed box (:class:`PipelineConfig`): an exhaustive coarse
grid over (log10 lambda, beta), then a refinement of the lambda-profiled
likelihood. ``profile`` polishes each grid beta's best lambda, and a bounded
Brent search (R. Brent, 1973) over beta follows, one eigendecomposition per
beta it tries (T. Chen and L. Ljung, Automatica 2013). That search lives in
this module (:func:`_bounded_brent`, a port of scipy's bounded scalar
minimizer), so the betas it tries do not move with the installed scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import ClassVar

import numpy as np

from .covariance import TimeSeries, build_toeplitz, cholesky, estimate_lags
from .errors import InvalidOrderError, KmaxentError, PipelineError
from .estimators import (
    EstimateResult,
    Method,
    RidgeMarginal,
    build_whittle_design,
    kernel_me,
    kernel_pem,
    lagged_gram,
    preliminary_b0,
)
from .kernels import Hyperparameters, KernelFamily

_BETA_TOL = 1e-7  # absolute tolerance of the bounded Brent search over beta


@dataclass(frozen=True)
class PipelineConfig:
    """The fixed search box of the kernel-based pipelines; nothing is settable.

    The class constants give its log10 lambda and beta ranges and grid steps,
    17 x 19 points.
    """

    log10_lambda_min: ClassVar[float] = -4.0
    log10_lambda_max: ClassVar[float] = 4.0
    log10_lambda_step: ClassVar[float] = 0.5
    beta_min: ClassVar[float] = 0.05
    beta_max: ClassVar[float] = 0.95
    beta_step: ClassVar[float] = 0.05


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


def _bounded_brent(func, lo: float, hi: float, xatol: float) -> None:
    """Minimize ``func`` on [lo, hi] by Brent's bounded method (R. Brent,
    1973): golden-section steps with parabolic interpolation, stopping when
    the bracket around the best point is within about xatol of it.

    A line-for-line port of scipy's ``_minimize_scalar_bounded``, with its
    variable names, so it calls ``func`` at the same points in the same
    order, at most 500 times (scipy's default). Callers read the evaluations
    ``func`` records; nothing is returned.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break


def optimize_hyperparameters(obj) -> HyperoptResult:
    """Two-stage deterministic search for (lambda, beta) inside the fixed box.

    Stage 1 scores the 17 x 19 grid of :class:`PipelineConfig` in one
    ``obj.profile(lams, betas)`` call; for the ridge-marginal objectives that
    is one eigendecomposition of the reduced n x n form per beta and O(n) per
    lambda. The trace lists the grid first, ascending log10 lambda outer and
    ascending beta inner. Stage 2 adds each grid beta's polished best lambda,
    then runs a bounded Brent search over the lambda-profiled likelihood
    between the grid neighbours of the best beta, one ``obj.profile`` of a
    single beta per point. Every point stays in the box, and the returned
    pair attains the minimum over the trace, so the result is never worse
    than the best grid point. The ridge objectives raise InvalidDataError
    from ``profile`` when a grid or polished value is not finite.
    """
    values, lam_star, value_star = obj.profile(_LAMS, _BETAS)
    trace = [
        (lam, beta, value)
        for lam, row in zip(_LAMS.tolist(), values.tolist())
        for beta, value in zip(_BETAS, row)
    ]
    trace.extend(zip(lam_star.tolist(), _BETAS, value_star.tolist()))
    j = int(np.argmin(value_star))
    lo, hi = _BETAS[max(j - 1, 0)], _BETAS[min(j + 1, len(_BETAS) - 1)]

    def profiled(beta: float) -> float:
        _, lam, value = obj.profile(_LAMS, [float(beta)])
        trace.append((float(lam[0]), float(beta), float(value[0])))
        return trace[-1][2]

    _bounded_brent(profiled, lo, hi, _BETA_TOL)

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
    at order ``low_order``), covariance lags and Toeplitz assembly at order
    ``n``, Cholesky factorization (with capped jitter), whitened design
    construction, marginal-likelihood hyperparameter search, and the
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
    cov = _step("build_toeplitz", build_toeplitz, lags)
    factor = _step("cholesky", cholesky, cov)
    design = _step("whittle_design", build_whittle_design, factor, b0, N)
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
