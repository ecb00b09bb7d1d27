"""Spectral-factor estimators.

Contains the classical maximum-entropy (Yule-Walker) solve with BIC order
selection, the kernel-regularized maximum-entropy estimator in closed form,
a kernel-regularized one-step-predictor baseline, and the minimum-phase root
check applied to every estimate.

Both kernel estimators are one ridge regression, :class:`RidgeMarginal`, on
the reduced form B^T G B of a Gram matrix G and the structured kernel root
B, which it computes from G when constructed, as :class:`WhittleDesign`
computes the whitened design from the covariance factor. It gives the
marginal likelihood the hyperparameter search minimizes
(:meth:`RidgeMarginal.profile`), the coefficients
(:meth:`RidgeMarginal.posterior_mean`, one Cholesky solve) and the degrees of
freedom (:meth:`RidgeMarginal.df`); no kernel or kernel inverse is formed.

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
from dataclasses import InitVar, dataclass, field

import numpy as np
import scipy.linalg

from .covariance import (
    CholeskyFactor,
    TimeSeries,
    ToeplitzCovariance,
    cholesky,
    estimate_lags,
    factorizations,
)
from .errors import InvalidDataError, InvalidOrderError, NotPositiveDefiniteError
from .kernels import Hyperparameters, KernelFamily, KernelSpec, root_scale, root_scale_log_slope


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

    ``coeffs`` is a read-only copy of the input, so the cached
    :attr:`root_summary` always belongs to it.
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

    @property
    def roots(self) -> np.ndarray:
        """Roots of b_0 z^n + b_1 z^{n-1} + ... + b_n by ``numpy.roots``."""
        return np.roots(self.coeffs)

    @functools.cached_property
    def root_summary(self) -> tuple[float, tuple[complex, ...]]:
        """(maximum root modulus, roots within 1e-12 of the unit circle).

        Computed from one :attr:`roots` solve on first use and kept, so the
        minimum-phase check and the spectrum's near-singular check share it;
        the root array itself is not kept.
        """
        roots = self.roots
        if roots.size == 0:
            return 0.0, ()
        modulus = np.abs(roots)
        return float(modulus.max()), tuple(roots[np.abs(modulus - 1.0) <= 1e-12].tolist())


@dataclass(frozen=True)
class WhittleDesign:
    """Whitened regression form of the linearized log-likelihood.

    Computed read-only from ``factor``, L L^T = ``cov.matrix`` of order n:
    v_tilde = (sqrt(N - n) / b0_prelim) * L^{-1} e_1, by a triangular solve,
    and phi_data = sqrt(N - n) * L^T. ``cov`` is the covariance the factor
    carries (jitter-repaired when one was needed) and ``n_eff`` is N - n, the
    effective sample count. Requires N > n and a finite b0_prelim > 0.
    """

    factor: CholeskyFactor
    b0_prelim: float
    N: int
    v_tilde: np.ndarray = field(init=False)
    phi_data: np.ndarray = field(init=False)
    n_eff: int = field(init=False)
    cov: ToeplitzCovariance = field(init=False)

    def __post_init__(self):
        L, n, b0 = self.factor.L, self.factor.cov.order, self.b0_prelim
        if self.N <= n:
            raise InvalidOrderError(f"need N > n, got N={self.N}, n={n}")
        if not (np.isfinite(b0) and b0 > 0):
            raise InvalidDataError(f"preliminary b_0 must be finite and > 0, got {b0}")
        v = np.zeros(n + 1)
        v[0] = 1.0
        root = np.sqrt(self.N - n)
        linv_v = scipy.linalg.solve_triangular(L, v, lower=True, check_finite=False)
        v_tilde, phi_data = (root / b0) * linv_v, root * L.T
        v_tilde.flags.writeable = phi_data.flags.writeable = False
        object.__setattr__(self, "b0_prelim", float(b0))
        object.__setattr__(self, "v_tilde", v_tilde)
        object.__setattr__(self, "phi_data", phi_data)
        object.__setattr__(self, "n_eff", self.N - n)
        object.__setattr__(self, "cov", self.factor.cov)


@dataclass(frozen=True, slots=True)
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


def _solve_spd(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve an SPD system by Cholesky; with no repair, failure is a named error."""
    try:
        L = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    return scipy.linalg.cho_solve((L, True), rhs, check_finite=False)


def _yule_walker_solve(L: np.ndarray) -> PredictorPolynomial:
    """b = a / sqrt(a_0) with a = Sigma^{-1} e_1, from the Cholesky factor L of
    Sigma; a solve that overflows is named by the finite check of b."""
    v = np.zeros(L.shape[0])
    v[0] = 1.0
    a = scipy.linalg.cho_solve((L, True), v, check_finite=False)
    with np.errstate(over="ignore", invalid="ignore"):
        return PredictorPolynomial(a / np.sqrt(a[0]))


def yule_walker(cov: ToeplitzCovariance) -> PredictorPolynomial:
    """Classical maximum-entropy solve: a = Sigma^{-1} e_1, b = a / sqrt(a_0).

    Sigma is factored by :func:`cholesky`, with its r_0 repair, so a_0 > 0;
    a solve that overflows is named by the finite check of b.
    """
    return _yule_walker_solve(cholesky(cov).L)


def _variance_lags(y: TimeSeries, n: int) -> np.ndarray:
    """Lags r_0..r_n, checked for zero variance before any factorization."""
    lags = estimate_lags(y, n)
    if lags[0] == 0.0:
        raise NotPositiveDefiniteError("series has zero variance (r_0 = 0)")
    return lags


def me_bic(y: TimeSeries, n_max: int) -> EstimateResult:
    """Yule-Walker fit with BIC order selection over n = 1..n_max.

    BIC(n) = N log(sigma_n^2) + n log N, where sigma_n^2 = 1 / a_0(n) is the
    one-step prediction-error variance of the order-n solve. The order-n
    Toeplitz matrix is the leading block of the order-n_max one, and by
    persymmetry 1 / a_0(n) = 1 / (Sigma_n^{-1})_{nn} = L_nn^2, with L the
    Cholesky factor of Sigma_{n_max}. One factorization therefore gives every
    order's variance, and Yule-Walker is solved once, at the chosen order n,
    on the leading (n+1) x (n+1) block of that factor, which is the factor of
    Sigma_n. Ties are broken toward the smaller order, and df is the chosen
    order plus one.

    Sigma_{n_max} is factored as :func:`cholesky` does. A positive definite
    Toeplitz matrix has a minimum-phase Yule-Walker solution, so a solution
    that is not minimum phase shows a numerically indefinite matrix that
    happened to factor, as on a steep smooth bump; the fit then moves on to
    the next r_0 shift of :func:`~kmaxent.covariance.factorizations`, as a
    failed factorization does. The shift used is the result's
    ``jitter_used``. Raises NotPositiveDefiniteError when the series has
    zero variance, when no shift factors, or when no shift gives a
    minimum-phase solution.
    """
    N = y.n_samples
    if not 1 <= n_max < N:
        raise InvalidOrderError(f"n_max={n_max} must satisfy 1 <= n_max < N={N}")
    cov = ToeplitzCovariance(_variance_lags(y, n_max))
    for factor in factorizations(cov):
        bic = 2.0 * N * np.log(np.diag(factor.L)[1:]) + np.arange(1, n_max + 1) * np.log(N)
        n = int(np.argmin(bic)) + 1  # the first minimum: the smaller order wins ties
        b = _yule_walker_solve(factor.L[: n + 1, : n + 1])
        result = EstimateResult(
            b, None, float(n + 1), Method.ME, jitter_used=factor.jitter, chosen_n=n
        )
        if result.min_phase_verified:
            return result
    cholesky(cov)  # raises cholesky's own error when no shift factors
    raise NotPositiveDefiniteError(
        "Yule-Walker solution is not minimum phase even after maximum jitter"
    )


def preliminary_b0(y: TimeSeries, low_order: int = 4) -> float:
    """Leading coefficient of a low-order Yule-Walker fit.

    Equals sqrt(a_0), the inverse innovation standard deviation of the
    low-order autoregressive model; used to linearize the log term of the
    likelihood and to scale the whitened design. Raises
    NotPositiveDefiniteError when the series has zero variance.
    """
    b = yule_walker(ToeplitzCovariance(_variance_lags(y, low_order)))
    return float(b.coeffs[0])


# The lambda polish takes at most 50 steps (bisection alone narrows a bracket
# to 2^-50 of its width). It stops once each beta's last Newton step in
# ln lambda is below 1e-4, which leaves an error of order 1e-8, or its
# bisected bracket is narrower than 1e-7.
_NEWTON_STEPS = 50
_NEWTON_STEP_TOL = 1e-4
_BRACKET_TOL = 1e-7


def shrinkage_df(gram_eigs: np.ndarray, lam: float) -> float:
    """Ridge degrees of freedom sum_i lam*s_i / (1 + lam*s_i).

    ``gram_eigs`` are the eigenvalues of B^T G B where G is the data Gram
    matrix and B B^T the prior covariance.
    """
    s = np.clip(gram_eigs, 0.0, None)
    return float(np.sum(lam * s / (1.0 + lam * s)))


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise InvalidDataError("marginal likelihood is not finite; the data scale is too extreme")
    return values


@dataclass(frozen=True)
class RidgeMarginal:
    """Ridge regression with a kernel prior: marginal likelihood, coefficients, df.

    Scores 0.5 [log det(I + lam A) + t - lam w^T (I + lam A)^{-1} w] with
    A = B^T G B and w = B^T m, where G is the Gram matrix of the regression,
    m its moment vector, t the target sum of squares and B B^T the prior
    covariance at decay rate beta. The noise precision is one: a route with
    another precision p folds sqrt(p) into m and p into t. Both estimation
    routes are this form; see :meth:`whittle` and :meth:`regression`.

    Every structured kernel root is S diag(c(beta)) for tc, with S the
    upper-triangular matrix of ones, and diag(c(beta)) for di. The constructors
    therefore store S^T G S and S^T m once (G and m for di), and for each beta
    A = c c^T * S^T G S and w = c * S^T m are elementwise scalings; no kernel
    matrix is formed. The root scales c are the last ``reduced_moment.size``
    of the size-``size`` kernel root: all of them for the full kernel, and
    all but the first for its trailing block. Both are read-only copies, so
    a later write to the caller's G or m changes nothing; a reduced form that
    overflows raises InvalidDataError.
    """

    gram: InitVar[np.ndarray]
    moment: InitVar[np.ndarray]
    target_ss: float
    family: KernelFamily
    size: int  # kernel size n + 1
    reduced_gram: np.ndarray = field(init=False)
    reduced_moment: np.ndarray = field(init=False)

    def __post_init__(self, gram, moment):
        family = KernelFamily(self.family)
        gram, moment = np.array(gram, dtype=float), np.array(moment, dtype=float)
        if family is KernelFamily.TC:
            # S^T G S and S^T m are cumulative sums
            with np.errstate(over="ignore", invalid="ignore"):
                gram = np.cumsum(np.cumsum(gram, axis=0), axis=1)
                moment = np.cumsum(moment)
        if not (np.isfinite(gram).all() and np.isfinite(moment).all()):
            raise InvalidDataError("reduced Gram matrix overflows; the data scale is too large")
        gram.flags.writeable = moment.flags.writeable = False
        object.__setattr__(self, "reduced_gram", gram)
        object.__setattr__(self, "reduced_moment", moment)
        object.__setattr__(self, "target_ss", float(self.target_ss))
        object.__setattr__(self, "family", family)

    @classmethod
    def whittle(cls, design: WhittleDesign, family: KernelFamily):
        """Whitened maximum-entropy fit: Phi^T Phi = (N - n) Sigma,
        Phi^T v~ = (N - n) / b0 e_1 and target v~^T v~, with Sigma the
        design's covariance and the root of the full size-(n+1) kernel."""
        size = design.cov.order + 1
        moment = np.zeros(size)
        moment[0] = design.n_eff / design.b0_prelim
        gram = design.n_eff * design.cov.matrix
        return cls(gram, moment, design.v_tilde @ design.v_tilde, family, size)

    @classmethod
    def regression(cls, gram: np.ndarray, b0_prelim: float, family: KernelFamily):
        """One-step-predictor regression on the blocks of the lagged Gram
        (:func:`lagged_gram`): X^T X = gram[1:, 1:], X^T y = gram[1:, 0] and
        y^T y = gram[0, 0], with noise variance 1 / b0^2 and the root of the
        trailing n x n block of the size-(n+1) kernel, which is the
        size-(n+1) root without its first scale. The precision b0^2 is
        folded into the data: the moment is scaled by b0 and the target by
        b0^2. Raises InvalidOrderError at order n = 0 (a 1 x 1 Gram), which
        has no predictor weights."""
        size = gram.shape[0]
        if size < 2:
            raise InvalidOrderError("predictor regression needs order n >= 1")
        moment, target_ss = b0_prelim * gram[1:, 0], b0_prelim**2 * gram[0, 0]
        return cls(gram[1:, 1:], moment, target_ss, family, size)

    def _reduced(self, beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Root scales c, A = B^T G B and w = B^T m at decay rate beta."""
        c = root_scale(KernelSpec(self.family, beta, self.size))
        c = c[self.size - self.reduced_moment.size :]  # the last m; c[-m:] is all of c at m = 0
        return c, c[:, None] * self.reduced_gram * c, c * self.reduced_moment

    def _score(self, s: np.ndarray, u2: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Objective from eigenvalues s of A and u2 = (Q^T w)^2, one row per
        beta: log det = sum log(1 + lam s) and w^T (I + lam A)^{-1} w =
        sum u2 / (1 + lam s), summed over the last axis. ``lam`` carries a
        trailing unit axis and broadcasts against the rows."""
        lam_s = lam * s
        quad = self.target_ss - lam[..., 0] * (u2 / (1.0 + lam_s)).sum(axis=-1)
        return 0.5 * (np.log1p(lam_s).sum(axis=-1) + quad)

    @np.errstate(over="ignore", invalid="ignore")
    def profile(self, lams: np.ndarray, betas) -> tuple[np.ndarray, ...]:
        """Grid values, shape (len(lams), len(betas)), each beta's polished
        best lambda in the box of the ascending ``lams`` with its value, and
        the slope of that lambda-profiled value in beta.

        One eigendecomposition A = Q diag(s) Q^T per beta gives u = Q^T w.
        Each beta's grid argmin is then polished by safeguarded Newton steps
        on x = ln lam, inside the bracket of its grid neighbours. With
        d = 1 / (1 + lam s), a = lam s d and q = lam u^2 d^2 the derivatives
        are g = df/dx = 0.5 sum(a - q) and h = d2f/dx2 = g + 0.5 sum(a (2q - a)).
        The value returned is never above the grid minimum. A grid value that
        is not finite raises InvalidDataError before the polish, and so does a
        polished one: the minimum of such a trace would depend on its order.

        The slope dP/dbeta is exact at the returned lambda (envelope theorem:
        it is the partial derivative in beta there). With r = d ln c / d beta
        (:func:`~kmaxent.kernels.root_scale_log_slope`) and R = diag(r),
        dA/dbeta = R A + A R and dw/dbeta = R w. With z = (I + lam A)^{-1} w
        = Q (d u), which satisfies w - lam A z = z, the slope is
        lam sum_k r_k [((Q o Q)(d s))_k - z_k^2], from the same Q. It is not
        checked: it can be non-finite where the values are not.

        Numpy's overflow and invalid-value warnings are off throughout: the
        finiteness checks name the failure, and the polish may overflow in q
        on a finite grid, where it bisects.
        """
        lams = np.asarray(lams, dtype=float)
        m = self.reduced_moment.size
        s, u, r = np.empty((3, len(betas), m))
        Q = np.empty((len(betas), m, m))
        for j, beta in enumerate(betas):
            _, A, w = self._reduced(float(beta))
            s[j], Q[j] = np.linalg.eigh(A)
            u[j] = Q[j].T @ w
            spec = KernelSpec(self.family, float(beta), self.size)
            r[j] = root_scale_log_slope(spec)[self.size - m :]
        s, u2 = np.clip(s, 0.0, None), u**2
        values = _finite(self._score(s, u2, lams[:, None, None]))
        best = np.argmin(values, axis=0)
        x0 = np.log(lams[best])
        lo = np.log(lams[np.maximum(best - 1, 0)])
        hi = np.log(lams[np.minimum(best + 1, lams.size - 1)])
        x = x0
        for _ in range(_NEWTON_STEPS):
            lam = np.exp(x)[:, None]
            d = 1.0 / (1.0 + lam * s)
            a, q = lam * s * d, lam * u2 * d * d
            g = 0.5 * (a - q).sum(axis=1)
            h = g + 0.5 * (a * (2.0 * q - a)).sum(axis=1)
            # the minimum lies downhill of x; a step that leaves the bracket,
            # or has no positive curvature, bisects it instead
            lo, hi = np.where(g < 0.0, x, lo), np.where(g > 0.0, x, hi)
            newton = x - g / np.where(h > 0.0, h, np.inf)
            inside = (lo <= newton) & (newton <= hi)
            x, step = np.where(inside, newton, 0.5 * (lo + hi)), np.abs(newton - x)
            if np.all(np.where(inside, step <= _NEWTON_STEP_TOL, hi - lo <= _BRACKET_TOL)):
                break
        lam = np.where(x == x0, lams[best], np.clip(np.exp(x), lams[0], lams[-1]))
        polished = _finite(self._score(s, u2, lam[:, None]))
        grid_best = values[best, np.arange(best.size)]
        keep = polished < grid_best
        lam = np.where(keep, lam, lams[best])
        d = 1.0 / (1.0 + lam[:, None] * s)
        z = np.einsum("bki,bi->bk", Q, d * u)
        diag = np.einsum("bki,bki,bi->bk", Q, Q, d * s)
        slope = lam * (r * (diag - z * z)).sum(axis=1)
        return values, lam, np.where(keep, polished, grid_best), slope

    def df(self, eta: Hyperparameters) -> float:
        """Ridge degrees of freedom from the eigenvalues of A at eta."""
        return shrinkage_df(np.linalg.eigvalsh(self._reduced(eta.beta)[1]), eta.lam)

    def posterior_mean(self, eta: Hyperparameters) -> np.ndarray:
        """Ridge coefficients lam B (I + lam A)^{-1} w at eta.

        One Cholesky solve of I + lam A, whose eigenvalues are at least one;
        B is then applied as the column scaling c and, for tc, as the
        upper-triangular matrix of ones, a reversed cumulative sum. No kernel
        or kernel inverse is formed. Where rounding leaves I + lam A
        indefinite (kernel-PEM on a constant series of 3e14), the
        factorization fails and the fit is a named error.
        """
        c, A, w = self._reduced(eta.beta)
        theta = eta.lam * c * _solve_spd(np.eye(w.size) + eta.lam * A, w)
        return np.cumsum(theta[::-1])[::-1] if self.family is KernelFamily.TC else theta


def kernel_me(
    design: WhittleDesign, family: KernelFamily, eta: Hyperparameters
) -> PredictorPolynomial:
    """Kernel-regularized maximum-entropy estimate.

    The prior K is the size-(n+1) kernel of ``family`` at eta's beta, with n
    the order of ``design.cov``, whose matrix is Sigma. Minimizes
    ||v_tilde - Phi b||^2 + lam^{-1} ||b||^2_{K^{-1}}, which equals
    b = b0_prelim^{-1} (Sigma + ((N - n) lam K)^{-1})^{-1} e_1; computed as
    the posterior mean of the search's own reduced form,
    :meth:`RidgeMarginal.posterior_mean` of :meth:`RidgeMarginal.whittle`.
    """
    return PredictorPolynomial(RidgeMarginal.whittle(design, family).posterior_mean(eta))


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
    return ToeplitzCovariance(y.lag_sums(n)).matrix - (H.T @ H + T.T @ T)


def _residuals(y: TimeSeries, predictor: np.ndarray) -> np.ndarray:
    """Residuals e_t = sum_j p_j y_{t-j}, t = n+1..N, of the filter p = predictor.

    The valid correlation of y with the reversed filter, as a sum of matrix
    products over the rows of B samples of :attr:`TimeSeries.blocks`: the
    residual row m is sum_d Y[m + d] T_d, d = 0..ceil(n / B), against the
    banded Toeplitz blocks T_d[i, j] = p[n - dB - i + j] of the filter (zero
    outside 0..n): ceil(n / B) + 1 products, two for 0 < n <= B. Each
    residual sums the same n + 1 products as the direct filter, in another
    order; the zero padding adds exact zeros. The products accumulate in
    place, so the only series-sized array is the result.
    """
    Y = y.blocks
    B, N, n = Y.shape[1], y.n_samples, predictor.size - 1
    rows, terms = -(-(N - n) // B), -(-n // B) + 1
    band = np.zeros((terms + 1) * B - 1)
    band[terms * B - 1 - n : terms * B] = predictor
    # T[dB + i, j] = band[terms B - 1 - dB - i + j] = p[n - dB - i + j]
    step = band.itemsize
    T = np.ndarray((terms * B, B), float, band, (terms * B - 1) * step, (-step, step)).copy()
    out = np.zeros((B, rows), order="F")  # the residual rows, transposed
    for d in range(terms):
        out = scipy.linalg.blas.dgemm(
            1.0, T[d * B : (d + 1) * B].T, Y[d : rows + d].T, 1.0, out, overwrite_c=True
        )
    return out.T.ravel()[: N - n]


def kernel_pem(
    y: TimeSeries, gram: np.ndarray, family: KernelFamily, eta: Hyperparameters
) -> PredictorPolynomial:
    """Kernel-regularized one-step-predictor baseline.

    Fits predictor weights a minimizing
    sum_t (y_t - sum_k a_k y_{t-k})^2 + lam^{-1} a^T Kbar^{-1} a, where Kbar is
    the trailing n x n principal block of the size-(n+1) kernel of ``family``
    at eta's beta. The innovation variance is the mean squared residual and
    the returned polynomial is (1 - sum_k a_k z^{-k}) / sigma_hat. Unlike the
    maximum-entropy routes, the result carries no minimum-phase guarantee.

    ``gram`` is :func:`lagged_gram` of ``y`` at order n = gram.shape[0] - 1.
    The weights a = (X^T X + (lam Kbar)^{-1})^{-1} X^T y are the posterior
    mean of :meth:`RidgeMarginal.regression` of that Gram at unit noise
    precision, the reduced form :func:`kernel_me` solves. The N - n residuals
    come from filtering y with (1, -a) as blocked matrix products
    (:func:`_residuals`), O(N n) time and O(N) memory, whose last bits follow
    the BLAS kernel; sigma_hat^2 = resid . resid / (N - n), one dot product.
    The quadratic form in the Gram would cancel badly on nearly predictable
    series. Residuals that are all zero, as when only the first n samples
    are nonzero, raise InvalidDataError; a 1 x 1 Gram (order 0) raises
    InvalidOrderError.
    """
    a = RidgeMarginal.regression(gram, 1.0, family).posterior_mean(eta)
    predictor = np.concatenate(([1.0], -a))
    with np.errstate(over="ignore", invalid="ignore"):
        resid = _residuals(y, predictor)
        sigma_hat = np.sqrt(resid @ resid / resid.size)
    if sigma_hat == 0.0:
        raise InvalidDataError("predictor residuals are all zero")
    return PredictorPolynomial(predictor / sigma_hat)


def check_min_phase(b: PredictorPolynomial) -> tuple[bool, float]:
    """Explicit stability check of b(z) via companion-matrix eigenvalues.

    Roots of b_0 z^n + b_1 z^{n-1} + ... + b_n are computed with
    ``numpy.roots`` once per polynomial
    (:attr:`PredictorPolynomial.root_summary`); returns (all roots strictly
    inside the unit circle, maximum root modulus). The inequality is strict
    with no tolerance slack.
    """
    max_modulus = b.root_summary[0]
    return max_modulus < 1.0, max_modulus
