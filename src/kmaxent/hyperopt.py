"""Empirical-Bayes hyperparameter selection and the estimation pipelines.

The kernel scale and decay rate are chosen by minimizing the negative
log-marginal likelihood of the data with the coefficient vector integrated
out. Kernel-ME and kernel-PEM are two cases of one ridge-regression marginal
likelihood, implemented once in :class:`RidgeMarginal` on the reduced form
B^T G B of the Gram matrix G and the structured kernel root B.

The surface is not convex, so the search is a deterministic two-stage
procedure: an exhaustive coarse grid over (log10 lambda, beta), scored with
one eigendecomposition of the reduced form per beta, followed by a
Nelder-Mead refinement in (log lambda, logit beta), coordinates in which the
open-box constraints lambda > 0 and 0 < beta < 1 hold automatically; each
refinement point costs one Cholesky of the reduced n x n form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .covariance import (
    JitterPolicy,
    TimeSeries,
    ToeplitzCovariance,
    build_toeplitz,
    cholesky,
    estimate_lags,
)
from .diagnostics import degrees_of_freedom, shrinkage_df
from .errors import (
    InvalidHyperparameterError,
    InvalidOrderError,
    KmaxentError,
    PipelineError,
)
from .estimators import (
    EstimateResult,
    Method,
    WhittleDesign,
    build_whittle_design,
    check_min_phase,
    kernel_me,
    kernel_pem,
    lagged_gram,
    preliminary_b0,
)
from .kernels import (
    Hyperparameters,
    KernelFamily,
    KernelSpec,
    root_scale,
)


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the kernel-based pipelines (defaults match the experiments)."""

    n: int = 50
    low_order: int = 4
    log10_lambda_min: float = -4.0
    log10_lambda_max: float = 4.0
    log10_lambda_step: float = 0.5
    beta_min: float = 0.05
    beta_max: float = 0.95
    beta_step: float = 0.05
    refine: bool = True
    refine_diameter_tol: float = 1e-6
    refine_max_evals: int = 500
    jitter: JitterPolicy = field(default_factory=JitterPolicy)


@dataclass(frozen=True)
class RidgeMarginal:
    """Negative log-marginal likelihood of a ridge regression with a kernel prior.

    Scores 0.5 [log det(I + lam A) + p (t - lam w^T (I + lam A)^{-1} w)] with
    A = B^T G B and w = B^T m, where G is the Gram matrix of the regression,
    m its moment vector, t the target sum of squares, p the noise precision
    and B B^T the prior covariance at decay rate beta. Both estimation routes
    are this form; see :meth:`whittle` and :meth:`regression`.

    Every structured kernel root is S diag(c(beta)) for tc, with S the
    upper-triangular matrix of ones, and diag(c(beta)) for di. The constructors
    therefore store S^T G S and S^T m once (G and m for di), and for each beta
    A = c c^T * S^T G S and w = c * S^T m are elementwise scalings; no kernel
    matrix is formed.
    """

    reduced_gram: np.ndarray
    reduced_moment: np.ndarray
    target_ss: float
    noise_precision: float
    family: KernelFamily
    size: int  # kernel size n + 1
    trailing: bool  # root of the trailing n x n kernel block instead of the full kernel

    @classmethod
    def _reduce(cls, gram, moment, target_ss, noise_precision, family, size, trailing):
        family = KernelFamily(family)
        if family is KernelFamily.TC:
            # S^T G S and S^T m are cumulative sums
            gram = np.cumsum(np.cumsum(gram, axis=0), axis=1)
            moment = np.cumsum(moment)
        return cls(
            reduced_gram=gram,
            reduced_moment=moment,
            target_ss=float(target_ss),
            noise_precision=float(noise_precision),
            family=family,
            size=size,
            trailing=trailing,
        )

    @classmethod
    def whittle(cls, design: WhittleDesign, cov: ToeplitzCovariance, family: KernelFamily):
        """Whitened maximum-entropy fit: Phi^T Phi = (N - n) Sigma,
        Phi^T v~ = (N - n) / b0 e_1, target v~^T v~ and unit precision, with
        the root of the full size-(n+1) kernel."""
        moment = np.zeros(cov.order + 1)
        moment[0] = design.n_eff / design.b0_prelim
        return cls._reduce(
            design.n_eff * cov.matrix,
            moment,
            design.v_tilde @ design.v_tilde,
            1.0,
            family,
            cov.order + 1,
            trailing=False,
        )

    @classmethod
    def regression(cls, gram, moment, target_ss, b0_prelim, family: KernelFamily):
        """One-step-predictor regression with noise variance 1 / b0^2 and the
        root of the trailing n x n block of the size-(n+1) kernel."""
        return cls._reduce(
            gram, moment, target_ss, b0_prelim**2, family, len(moment) + 1, trailing=True
        )

    def _reduced(self, beta: float) -> tuple[np.ndarray, np.ndarray]:
        """A = B^T G B and w = B^T m at decay rate beta."""
        c = root_scale(KernelSpec(self.family, beta, self.size), trailing=self.trailing)
        return c[:, None] * self.reduced_gram * c, c * self.reduced_moment

    def evaluate(self, eta: Hyperparameters) -> float:
        # M = I + lam A >= I, so its Cholesky is stable: the log-determinant
        # comes from the factor diagonal, the quadratic form from one solve
        A, w = self._reduced(eta.beta)
        L = np.linalg.cholesky(eta.lam * A + np.eye(w.size))
        log_det = 2.0 * np.sum(np.log(np.diag(L)))
        z = scipy.linalg.solve_triangular(L, w, lower=True, check_finite=False)
        return 0.5 * (log_det + self.noise_precision * (self.target_ss - eta.lam * (z @ z)))

    def grid_values(self, lams: np.ndarray, betas: np.ndarray) -> np.ndarray:
        """Objective on the grid lams x betas, shape (len(lams), len(betas)).

        One eigendecomposition A = Q diag(s) Q^T per beta; then for each lam
        log det = sum log(1 + lam s) and w^T (I + lam A)^{-1} w =
        sum (Q^T w)^2 / (1 + lam s), both O(n).
        """
        lams = np.asarray(lams, dtype=float)[:, None]
        values = np.empty((lams.size, len(betas)))
        for j, beta in enumerate(betas):
            A, w = self._reduced(float(beta))
            s, Q = np.linalg.eigh(A)
            s = np.clip(s, 0.0, None)
            u2 = (Q.T @ w) ** 2
            log_det = np.sum(np.log1p(lams * s), axis=1)
            quad = self.target_ss - lams[:, 0] * np.sum(u2 / (1.0 + lams * s), axis=1)
            values[:, j] = 0.5 * (log_det + self.noise_precision * quad)
        return values

    def df(self, eta: Hyperparameters) -> float:
        """Ridge degrees of freedom from the eigenvalues of A at eta."""
        return shrinkage_df(np.linalg.eigvalsh(self._reduced(eta.beta)[0]), eta.lam)


@dataclass(frozen=True)
class MarginalObjective:
    """Negative log-marginal likelihood of the whitened maximum-entropy fit."""

    design: WhittleDesign
    cov: ToeplitzCovariance
    kernel_family: KernelFamily
    N: int
    n: int

    @cached_property
    def core(self) -> RidgeMarginal:
        return RidgeMarginal.whittle(self.design, self.cov, self.kernel_family)

    def evaluate(self, eta: Hyperparameters) -> float:
        return self.core.evaluate(eta)

    def grid_values(self, lams: np.ndarray, betas: np.ndarray) -> np.ndarray:
        return self.core.grid_values(lams, betas)


@dataclass(frozen=True)
class RegressionMarginalObjective:
    """Marginal likelihood of the one-step-predictor regression baseline.

    The regression y_t = sum_k a_k y_{t-k} + u_t is scored with noise variance
    fixed at the preliminary estimate 1 / b0_prelim^2 and prior covariance
    proportional to the trailing kernel block, which makes the posterior mode
    coincide with the baseline's penalized least-squares estimate for every
    (lambda, beta). Only the n x n Gram statistics are stored.
    """

    gram: np.ndarray  # X^T X
    moment: np.ndarray  # X^T y
    target_ss: float  # y^T y
    b0_prelim: float
    kernel_family: KernelFamily
    n: int

    @cached_property
    def core(self) -> RidgeMarginal:
        return RidgeMarginal.regression(
            self.gram, self.moment, self.target_ss, self.b0_prelim, self.kernel_family
        )

    def evaluate(self, eta: Hyperparameters) -> float:
        return self.core.evaluate(eta)

    def grid_values(self, lams: np.ndarray, betas: np.ndarray) -> np.ndarray:
        return self.core.grid_values(lams, betas)


@dataclass(frozen=True)
class HyperoptResult:
    """Outcome of the two-stage search; eta_hat attains the trace minimum."""

    eta_hat: Hyperparameters
    objective_value: float
    evaluations: int
    trace: tuple[tuple[float, float, float], ...]


def neg_log_marginal(obj: MarginalObjective, eta: Hyperparameters) -> float:
    """Value of 0.5 log det(lam Phi K Phi^T + I) + 0.5 v~^T (lam Phi K Phi^T + I)^{-1} v~.

    Additive constants are fixed to zero by convention. Evaluated through the
    shared :class:`RidgeMarginal` core.
    """
    return obj.evaluate(eta)


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    if hi < lo:
        raise InvalidHyperparameterError(f"empty grid: [{lo}, {hi}]")
    if hi == lo or step <= 0:
        return np.array([lo])
    count = int(round((hi - lo) / step)) + 1
    return np.linspace(lo, hi, count)


def _simplex_diameter(points: list[np.ndarray]) -> float:
    return max(
        float(np.linalg.norm(p - q)) for i, p in enumerate(points) for q in points[i + 1 :]
    )


def _nelder_mead(f, x0: np.ndarray, diameter_tol: float, max_evals: int) -> None:
    """Minimal deterministic Nelder-Mead (reflection 1, expansion 2,
    contraction 0.5, shrink 0.5) run purely for its side effect of evaluating
    ``f``; the caller keeps the running minimum. Stops when the simplex
    diameter drops below ``diameter_tol`` or the evaluation budget is spent.
    """
    dim = x0.size
    step = 0.25
    points = [np.array(x0, dtype=float)]
    for i in range(dim):
        vertex = np.array(x0, dtype=float)
        vertex[i] += step
        points.append(vertex)
    values = [f(p) for p in points]
    evals = dim + 1

    while evals < max_evals:
        order = np.argsort(values, kind="stable")
        points = [points[i] for i in order]
        values = [values[i] for i in order]
        if _simplex_diameter(points) < diameter_tol:
            return
        centroid = np.mean(points[:-1], axis=0)
        reflected = centroid + (centroid - points[-1])
        f_reflected = f(reflected)
        evals += 1
        if f_reflected < values[0]:
            if evals >= max_evals:
                points[-1], values[-1] = reflected, f_reflected
                return
            expanded = centroid + 2.0 * (reflected - centroid)
            f_expanded = f(expanded)
            evals += 1
            if f_expanded < f_reflected:
                points[-1], values[-1] = expanded, f_expanded
            else:
                points[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-2]:
            points[-1], values[-1] = reflected, f_reflected
            continue
        if evals >= max_evals:
            return
        if f_reflected < values[-1]:
            contracted = centroid + 0.5 * (reflected - centroid)
        else:
            contracted = centroid + 0.5 * (points[-1] - centroid)
        f_contracted = f(contracted)
        evals += 1
        if f_contracted < min(f_reflected, values[-1]):
            points[-1], values[-1] = contracted, f_contracted
            continue
        # shrink toward the best vertex
        for i in range(1, dim + 1):
            if evals >= max_evals:
                return
            points[i] = points[0] + 0.5 * (points[i] - points[0])
            values[i] = f(points[i])
            evals += 1


def optimize_hyperparameters(obj, config: PipelineConfig = PipelineConfig()) -> HyperoptResult:
    """Two-stage deterministic search for (lambda, beta).

    Stage 1 scores the full grid in one ``obj.grid_values(lams, betas)`` call;
    for the ridge-marginal objectives that is one eigendecomposition of the
    reduced n x n form per beta and O(n) per lambda. The trace lists the grid
    first, ascending log10 lambda outer and ascending beta inner. Stage 2
    refines from the best grid point with Nelder-Mead in (log lambda, logit
    beta) through ``obj.evaluate``, one Cholesky of the reduced form per
    point. The returned pair attains the minimum over every evaluation made,
    so the result is never worse than the best grid point.
    """
    trace: list[tuple[float, float, float]] = []

    def evaluate(lam: float, beta: float) -> float:
        value = float(obj.evaluate(Hyperparameters(lam, beta)))
        trace.append((lam, beta, value))
        return value

    log10_lams = _grid(config.log10_lambda_min, config.log10_lambda_max, config.log10_lambda_step)
    # scalar powers: numpy's vectorized power can differ in the last bit
    lams = [10.0 ** float(x) for x in log10_lams]
    betas = [float(b) for b in _grid(config.beta_min, config.beta_max, config.beta_step)]
    values = obj.grid_values(np.array(lams), np.array(betas))
    for i, lam in enumerate(lams):
        trace.extend((lam, beta, float(values[i, j])) for j, beta in enumerate(betas))

    rejected = 0
    if config.refine:
        lam0, beta0, _ = min(trace, key=lambda entry: entry[2])

        def transformed(x: np.ndarray) -> float:
            lam = float(np.exp(x[0]))
            beta = 1.0 / (1.0 + np.exp(-x[1]))
            if not (np.isfinite(lam) and lam > 0.0 and 0.0 < beta < 1.0):
                nonlocal rejected
                rejected += 1
                return np.inf
            return evaluate(lam, beta)

        start = np.array([np.log(lam0), np.log(beta0) - np.log1p(-beta0)])
        _nelder_mead(transformed, start, config.refine_diameter_tol, config.refine_max_evals)

    lam_best, beta_best, value_best = min(trace, key=lambda entry: entry[2])
    return HyperoptResult(
        eta_hat=Hyperparameters(lam_best, beta_best),
        objective_value=value_best,
        evaluations=len(trace) + rejected,
        trace=tuple(trace),
    )


def _step(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except KmaxentError as exc:
        raise PipelineError(name, str(exc)) from exc


def run_pipeline(
    y: TimeSeries,
    n: int,
    kernel_family: KernelFamily,
    config: PipelineConfig = PipelineConfig(),
) -> EstimateResult:
    """Full kernel-based maximum-entropy estimation.

    Executes, in order: preliminary leading-coefficient estimate, covariance
    lags and Toeplitz assembly at order ``n``, Cholesky factorization (with
    the configured jitter policy), whitened design construction, marginal-
    likelihood hyperparameter search, and the closed-form coefficient solve at
    the selected hyperparameters; degrees of freedom and the minimum-phase
    root check are evaluated on the result. Deterministic given its inputs.
    """
    N = y.n_samples
    if not 0 < n < N:
        raise InvalidOrderError(f"order n={n} must satisfy 0 < n < N={N}")
    kernel_family = KernelFamily(kernel_family)
    b0 = _step("preliminary_b0", preliminary_b0, y, config.low_order)
    lags = _step("estimate_lags", estimate_lags, y, n)
    cov = _step("build_toeplitz", build_toeplitz, lags)
    factor = _step("cholesky", cholesky, cov, config.jitter)
    if factor.jitter > 0.0:
        # keep all downstream solves consistent with the repaired matrix,
        # which is again Toeplitz (the shift only moves r_0)
        adjusted = lags.copy()
        adjusted[0] += factor.jitter
        cov = build_toeplitz(adjusted)
    design = _step("whittle_design", build_whittle_design, factor, b0, N, n)
    objective = RidgeMarginal.whittle(design, cov, kernel_family)
    hyper = _step("hyperparameters", optimize_hyperparameters, objective, config)
    spec = KernelSpec(kernel_family, hyper.eta_hat.beta, n + 1)
    b_hat = _step("kernel_me", kernel_me, design, cov, spec, hyper.eta_hat)
    df = _step("diagnostics", degrees_of_freedom, cov, spec, hyper.eta_hat, N)
    is_min_phase, max_modulus = check_min_phase(b_hat)
    tag = Method.ME_DI if kernel_family is KernelFamily.DI else Method.ME_TC
    return EstimateResult(
        b_hat=b_hat,
        eta_hat=hyper.eta_hat,
        df=df,
        min_phase_verified=is_min_phase,
        jitter_used=factor.jitter,
        method_tag=tag,
        max_root_modulus=max_modulus,
    )


def run_pem_pipeline(
    y: TimeSeries,
    n: int,
    kernel_family: KernelFamily,
    config: PipelineConfig = PipelineConfig(),
) -> EstimateResult:
    """Kernel-regularized predictor baseline with tuned hyperparameters.

    Shares the marginal-likelihood search machinery with
    :func:`run_pipeline`, applied to the lagged-regression form of the data.
    Its Gram is built once by :func:`lagged_gram` (autocorrelation sums minus
    the 2n edge rows); the objective takes its blocks and :func:`kernel_pem`
    the whole matrix, so no N x n design is formed and memory is O(N + n^2).
    Raises InvalidOrderError unless N > 2n >= 2.
    """
    gram = lagged_gram(y, n)
    kernel_family = KernelFamily(kernel_family)
    b0 = _step("preliminary_b0", preliminary_b0, y, config.low_order)
    objective = RidgeMarginal.regression(gram[1:, 1:], gram[1:, 0], gram[0, 0], b0, kernel_family)
    hyper = _step("hyperparameters", optimize_hyperparameters, objective, config)
    spec = KernelSpec(kernel_family, hyper.eta_hat.beta, n + 1)
    b_hat = _step("kernel_pem", kernel_pem, y, gram, spec, hyper.eta_hat)
    df = objective.df(hyper.eta_hat)
    is_min_phase, max_modulus = check_min_phase(b_hat)
    tag = Method.PEM_DI if kernel_family is KernelFamily.DI else Method.PEM_TC
    return EstimateResult(
        b_hat=b_hat,
        eta_hat=hyper.eta_hat,
        df=df,
        min_phase_verified=is_min_phase,
        jitter_used=0.0,
        method_tag=tag,
        max_root_modulus=max_modulus,
    )
