"""Spectral-factor estimators.

Contains the classical maximum-entropy (Yule-Walker) solve with BIC order
selection, the kernel-regularized maximum-entropy estimator in closed form,
a kernel-regularized one-step-predictor baseline, and the minimum-phase root
check applied to every estimate.

Every estimator reads the lag sums P_k = sum_t y_t y_{t+k} that each series
computes once (:meth:`TimeSeries.lag_sums`). The predictor baseline's
statistics are blocks of one (n+1) x (n+1) Gram matrix of the covariance
method: :func:`lagged_gram` builds it from those sums minus the 2n edge rows
of the zero-padded design, so the baseline needs O(N + n^2) memory.

Conventions: the estimated inverse spectral factor is the polynomial
b(z) = sum_k b_k z^{-k}; its coefficient vector [b_0 ... b_n] has b_0 > 0 for
all estimators here (b_0 is the inverse innovation standard deviation), and
the implied spectrum is 1 / |b(e^{j theta})|^2.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .covariance import (
    CholeskyFactor,
    TimeSeries,
    ToeplitzCovariance,
    build_toeplitz,
    estimate_lags,
)
from .errors import (
    InvalidDataError,
    InvalidHyperparameterError,
    InvalidOrderError,
    NotPositiveDefiniteError,
)
from .kernels import Hyperparameters, KernelSpec, _scaled_inverse


class Method(str, enum.Enum):
    """Tags for the estimators exposed by the experiment harness."""

    ME = "me"
    ME_DI = "me-di"
    ME_TC = "me-tc"
    PEM_DI = "pem-di"
    PEM_TC = "pem-tc"


@dataclass(frozen=True)
class PredictorPolynomial:
    """Coefficients [b_0 ... b_n] of the estimated inverse spectral factor.

    ``coeffs`` is a read-only copy of the input, so the cached :attr:`roots`
    always belong to it.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        b = np.array(self.coeffs, dtype=float)
        if b.ndim != 1 or b.size == 0:
            raise InvalidDataError("coefficients must form a non-empty 1d vector")
        if not np.all(np.isfinite(b)):
            raise InvalidDataError("coefficients contain non-finite values")
        if b[0] == 0.0:
            raise InvalidDataError("leading coefficient b_0 must be nonzero")
        b.flags.writeable = False
        object.__setattr__(self, "coeffs", b)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    @functools.cached_property
    def roots(self) -> np.ndarray:
        """Roots of b_0 z^n + b_1 z^{n-1} + ... + b_n by ``numpy.roots``.

        Computed on first use and kept, so the minimum-phase check and the
        spectrum's near-singular check share one companion-matrix solve.
        """
        roots = np.roots(self.coeffs)
        roots.flags.writeable = False
        return roots


@dataclass(frozen=True)
class WhittleDesign:
    """Whitened regression form of the linearized log-likelihood.

    v_tilde = (sqrt(N - n) / b0_prelim) * L^{-1} e_1 and
    phi_data = sqrt(N - n) * L^T, where L L^T is the covariance matrix.
    ``n_eff`` stores N - n, the effective sample count of the fit.
    """

    v_tilde: np.ndarray
    phi_data: np.ndarray
    b0_prelim: float
    n_eff: int


@dataclass(frozen=True)
class EstimateResult:
    """One estimator run: coefficients plus the diagnostics surfaced with them.

    ``min_phase_verified`` and ``max_root_modulus`` are not arguments: every
    construction runs :func:`check_min_phase` on ``b_hat`` and stores its
    outcome, so they always report an explicit root check, never an
    assumption. ``eta_hat`` is None for the plain maximum-entropy method,
    which has no hyperparameters.
    """

    b_hat: PredictorPolynomial
    eta_hat: Hyperparameters | None
    df: float
    method_tag: Method
    jitter_used: float = 0.0
    chosen_n: int | None = None
    min_phase_verified: bool = field(init=False)
    max_root_modulus: float = field(init=False)

    def __post_init__(self):
        is_min_phase, max_modulus = check_min_phase(self.b_hat)
        object.__setattr__(self, "min_phase_verified", is_min_phase)
        object.__setattr__(self, "max_root_modulus", max_modulus)


def _cho_factor(matrix: np.ndarray) -> tuple[np.ndarray, bool]:
    """Lower Cholesky factor of an SPD matrix, mapping failure to a package error."""
    try:
        return scipy.linalg.cho_factor(matrix, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


def _solve_spd(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve an SPD system by Cholesky, mapping failure to a package error."""
    return scipy.linalg.cho_solve(_cho_factor(matrix), rhs, check_finite=False)


def yule_walker(cov: ToeplitzCovariance) -> PredictorPolynomial:
    """Classical maximum-entropy solve: a = Sigma^{-1} e_1, b = a / sqrt(a_0).

    a_0 > 0 is guaranteed by positive definiteness (it is a diagonal entry of
    the inverse); a solve that overflows is named by the finite check of b.
    """
    v = np.zeros(cov.order + 1)
    v[0] = 1.0
    a = _solve_spd(cov.matrix, v)
    with np.errstate(over="ignore", invalid="ignore"):
        return PredictorPolynomial(a / np.sqrt(a[0]))


def _variance_lags(y: TimeSeries, n: int) -> np.ndarray:
    """Lags r_0..r_n, checked for zero variance before any factorization."""
    lags = estimate_lags(y, n)
    if lags[0] == 0.0:
        raise NotPositiveDefiniteError("series has zero variance (r_0 = 0)")
    return lags


def me_bic(y: TimeSeries, n_max: int) -> tuple[PredictorPolynomial, int]:
    """Yule-Walker fit with BIC order selection over n = 1..n_max.

    BIC(n) = N log(sigma_n^2) + n log N, where sigma_n^2 = 1 / a_0(n) is the
    one-step prediction-error variance of the order-n solve. The order-n
    Toeplitz matrix is the leading block of the order-n_max one, and by
    persymmetry 1 / a_0(n) = 1 / (Sigma_n^{-1})_{nn} = L_nn^2, with L the
    Cholesky factor of Sigma_{n_max}. One factorization therefore gives every
    order's variance, and Yule-Walker is solved once, at the chosen order.
    Ties are broken toward the smaller order. Raises NotPositiveDefiniteError
    when the series has zero variance or Sigma_{n_max} cannot be factored.
    """
    N = y.n_samples
    if not 1 <= n_max < N:
        raise InvalidOrderError(f"n_max={n_max} must satisfy 1 <= n_max < N={N}")
    lags = _variance_lags(y, n_max)
    L, _ = _cho_factor(build_toeplitz(lags).matrix)
    bic = 2.0 * N * np.log(np.diag(L)[1:]) + np.arange(1, n_max + 1) * np.log(N)
    n = int(np.argmin(bic)) + 1  # the first minimum: the smaller order wins ties
    return yule_walker(build_toeplitz(lags[: n + 1])), n


def preliminary_b0(y: TimeSeries, low_order: int = 4) -> float:
    """Leading coefficient of a low-order Yule-Walker fit.

    Equals sqrt(a_0), the inverse innovation standard deviation of the
    low-order autoregressive model; used to linearize the log term of the
    likelihood and to scale the whitened design. Raises
    NotPositiveDefiniteError when the series has zero variance.
    """
    b = yule_walker(build_toeplitz(_variance_lags(y, low_order)))
    return float(b.coeffs[0])


def build_whittle_design(
    L: CholeskyFactor, b0_prelim: float, N: int, n: int
) -> WhittleDesign:
    """Whitened target and design matrix from the covariance factor.

    L^{-1} e_1 is obtained by a triangular solve; the factor is never
    inverted explicitly.
    """
    if N <= n:
        raise InvalidOrderError(f"need N > n, got N={N}, n={n}")
    if not (np.isfinite(b0_prelim) and b0_prelim > 0):
        raise InvalidDataError(f"preliminary b_0 must be finite and > 0, got {b0_prelim}")
    size = L.L.shape[0]
    if size != n + 1:
        raise InvalidOrderError(f"factor size {size} does not match n + 1 = {n + 1}")
    v = np.zeros(size)
    v[0] = 1.0
    root = np.sqrt(N - n)
    linv_v = scipy.linalg.solve_triangular(L.L, v, lower=True, check_finite=False)
    return WhittleDesign(
        v_tilde=(root / b0_prelim) * linv_v,
        phi_data=root * L.L.T,
        b0_prelim=float(b0_prelim),
        n_eff=N - n,
    )


def _check_kernel_args(spec: KernelSpec, eta: Hyperparameters, size: int) -> None:
    if spec.size != size:
        raise InvalidOrderError(f"kernel size {spec.size} does not match problem size {size}")
    if spec.beta != eta.beta:
        raise InvalidHyperparameterError(
            f"kernel beta {spec.beta} differs from hyperparameter beta {eta.beta}"
        )


def kernel_me(
    design: WhittleDesign,
    cov: ToeplitzCovariance,
    spec: KernelSpec,
    eta: Hyperparameters,
) -> PredictorPolynomial:
    """Kernel-regularized maximum-entropy estimate, normal-equation form.

    Minimizes ||v_tilde - Phi b||^2 + lam^{-1} ||b||^2_{K^{-1}} through the
    equivalent solve b = b0_prelim^{-1} (Sigma + R)^{-1} e_1 with
    R = ((N - n) lam K)^{-1} assembled structurally, so the kernel is never
    inverted numerically. Sigma + R is SPD whenever Sigma is PSD.
    """
    size = cov.order + 1
    _check_kernel_args(spec, eta, size)
    if design.phi_data.shape[0] != size:
        raise InvalidOrderError("design and covariance sizes differ")
    R = _scaled_inverse(spec, design.n_eff * eta.lam)
    v = np.zeros(size)
    v[0] = 1.0
    b = _solve_spd(cov.matrix + R, v) / design.b0_prelim
    return PredictorPolynomial(b)


def lagged_gram(y: TimeSeries, n: int) -> np.ndarray:
    """Gram matrix Z^T Z of the rows Z_t = [y_t, y_{t-1}, ..., y_{t-n}], t = n+1..N.

    Its blocks are the one-step-predictor statistics: y^T y = G[0, 0],
    X^T y = G[1:, 0] and X^T X = G[1:, 1:], with targets y_t and lagged rows
    X_t = [y_{t-1} ... y_{t-n}]. Padding the series with n zeros at both ends
    gives a windowed design whose Gram is toeplitz(P_0..P_n), with lag sums
    P_k = sum_t y_t y_{t+k} (:meth:`TimeSeries.lag_sums`, kept on the series);
    Z is that design without its n head rows H and n tail rows T, so
    G = toeplitz(P) - (H^T H + T^T T). Only y[:n] and y[N-n:] enter H and T,
    and Z is never formed: O(n^2) time beyond the lag sums, O(n^2) memory.
    """
    N = y.n_samples
    if n < 1 or N <= 2 * n:
        raise InvalidOrderError(f"predictor baseline needs N > 2n >= 2, got N={N}, n={n}")
    s = y.samples
    pad = np.zeros(n)
    windows = np.lib.stride_tricks.sliding_window_view
    H = windows(np.concatenate((pad, s[:n])), n + 1)[:, ::-1]
    T = windows(np.concatenate((s[N - n :], pad)), n + 1)[:, ::-1]
    return scipy.linalg.toeplitz(y.lag_sums(n)) - (H.T @ H + T.T @ T)


def kernel_pem(
    y: TimeSeries, gram: np.ndarray, spec: KernelSpec, eta: Hyperparameters
) -> PredictorPolynomial:
    """Kernel-regularized one-step-predictor baseline.

    Fits predictor weights a minimizing
    sum_t (y_t - sum_k a_k y_{t-k})^2 + lam^{-1} a^T Kbar^{-1} a, where Kbar is
    the trailing n x n principal block of the size-(n+1) kernel. The innovation
    variance is the mean squared residual and the returned polynomial is
    (1 - sum_k a_k z^{-k}) / sigma_hat. Unlike the maximum-entropy routes, the
    result carries no minimum-phase guarantee.

    ``gram`` is :func:`lagged_gram` of ``y`` at order n = gram.shape[0] - 1.
    The normal equations (X^T X + (lam Kbar)^{-1}) a = X^T y use its blocks,
    damped like :func:`kernel_me` by a structured inverse: Kbar equals beta
    times the size-n kernel of the same family. The residuals come
    from filtering y with (1, -a) by ``np.convolve``, which is exact, O(N n)
    time and O(N) memory; the quadratic form in the Gram would cancel badly
    on nearly predictable series. Residuals that are all zero, as when only
    the first n samples are nonzero, raise InvalidDataError.
    """
    n = gram.shape[0] - 1
    _check_kernel_args(spec, eta, n + 1)
    R = _scaled_inverse(KernelSpec(spec.family, spec.beta, n), eta.lam * spec.beta)
    a = _solve_spd(gram[1:, 1:] + R, gram[1:, 0])
    predictor = np.concatenate(([1.0], -a))
    resid = np.convolve(y.samples, predictor, mode="valid")
    sigma_hat = np.sqrt(np.mean(resid**2))
    if sigma_hat == 0.0:
        raise InvalidDataError("predictor residuals are all zero")
    return PredictorPolynomial(predictor / sigma_hat)


def check_min_phase(b: PredictorPolynomial) -> tuple[bool, float]:
    """Explicit stability check of b(z) via companion-matrix eigenvalues.

    Roots of b_0 z^n + b_1 z^{n-1} + ... + b_n are computed with
    ``numpy.roots`` once per polynomial (:attr:`PredictorPolynomial.roots`);
    returns (all roots strictly inside the unit circle, maximum root
    modulus). The inequality is strict with no tolerance slack.
    """
    roots = b.roots
    if roots.size == 0:
        return True, 0.0
    max_modulus = float(np.max(np.abs(roots)))
    return max_modulus < 1.0, max_modulus
