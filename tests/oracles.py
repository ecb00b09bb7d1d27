"""Dense reference implementations that the structured library code is checked
against, and the scipy routines the library's own ports reproduce. This is the
only module that imports ``scipy.optimize``."""

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.optimize

from kmaxent.covariance import TimeSeries, ToeplitzCovariance, build_toeplitz, estimate_lags
from kmaxent.errors import DataParseError, InvalidHyperparameterError, InvalidOrderError
from kmaxent.estimators import (
    PredictorPolynomial,
    RidgeMarginal,
    WhittleDesign,
    _solve_spd,
    yule_walker,
)
from kmaxent.kernels import (
    Hyperparameters,
    KernelFamily,
    KernelSpec,
    inverse_factorization,
    root_scale,
)


def lagged_design(y: TimeSeries, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows [y_{t-1} ... y_{t-n}] and targets y_t for t = n+1..N."""
    s = y.samples
    windows = np.lib.stride_tricks.sliding_window_view(s, n)[:-1]
    return np.ascontiguousarray(windows[:, ::-1]), s[n:]


def me_bic_by_order(y: TimeSeries, n_max: int) -> tuple[PredictorPolynomial, int]:
    """BIC order selection by one Yule-Walker solve per order n = 1..n_max.

    BIC(n) = -2 N log b_0(n) + n log N, since sigma_n^2 = 1 / a_0(n) = b_0(n)^-2;
    a later order must be strictly better to win.
    """
    N = y.n_samples
    lags = estimate_lags(y, n_max)
    best_bic, best = np.inf, None
    for n in range(1, n_max + 1):
        b = yule_walker(build_toeplitz(lags[: n + 1]))
        bic = -2.0 * N * np.log(b.coeffs[0]) + n * np.log(N)
        if bic < best_bic:
            best_bic, best = bic, (b, n)
    return best


def kernel_matrix(spec: KernelSpec) -> np.ndarray:
    """Dense kernel matrix for the given spec.

    di: diag(beta, beta^2, ..., beta^{n+1}).
    tc: entry (t, s) = beta^{max(t, s)} - beta^{n+2} with t, s = 1..n+1.
    """
    beta, size = spec.beta, spec.size
    if spec.family is KernelFamily.DI:
        return np.diag(beta ** np.arange(1, size + 1))
    idx = np.arange(1, size + 1)
    return beta ** np.maximum.outer(idx, idx) - beta ** (size + 1)


def scaled_inverse_R(spec: KernelSpec, lam: float, N: int, n: int) -> np.ndarray:
    """The regularization matrix R = ((N - n) * lam * K)^{-1}, built structurally.

    di: diagonal with entries ((N - n) * lam * beta^k)^{-1}, k = 1..n+1.
    tc: F diag(d) F^T with d_k = ((N - n) * lam * beta^{k-1} * (beta - beta^2))^{-1}.
    """
    if n < 0 or N <= n:
        raise InvalidOrderError(f"need N > n >= 0, got N={N}, n={n}")
    if spec.size != n + 1:
        raise InvalidOrderError(f"kernel size {spec.size} does not match n + 1 = {n + 1}")
    if not (np.isfinite(lam) and lam > 0):
        raise InvalidHyperparameterError(f"lambda must be finite and > 0, got {lam}")
    fac = inverse_factorization(spec)
    return (fac.F * (fac.d / ((N - n) * lam))) @ fac.F.T


def dense_degrees_of_freedom(
    cov: ToeplitzCovariance, family: KernelFamily, eta: Hyperparameters, N: int
) -> float:
    """df = tr[(Sigma + R)^{-1} Sigma] by one dense Cholesky solve against Sigma."""
    spec = KernelSpec(family, eta.beta, cov.order + 1)
    R = scaled_inverse_R(spec, eta.lam, N, cov.order)
    return float(np.trace(_solve_spd(cov.matrix + R, cov.matrix)))


def kernel_me_regularized_ls(
    design: WhittleDesign, family: KernelFamily, eta: Hyperparameters
) -> PredictorPolynomial:
    """Algebraically equivalent closed form lam*K*Phi^T (lam*Phi*K*Phi^T + I)^{-1} v_tilde.

    An independent route for cross-checking :func:`kmaxent.estimators.kernel_me`;
    the two must agree to high relative accuracy on any valid input.
    """
    size = design.phi_data.shape[0]
    K = kernel_matrix(KernelSpec(family, eta.beta, size))
    phi = design.phi_data
    M = eta.lam * (phi @ K @ phi.T) + np.eye(size)
    t = _solve_spd(M, design.v_tilde)
    return PredictorPolynomial(eta.lam * (K @ (phi.T @ t)))


def cholesky_neg_log_marginal(core: RidgeMarginal, eta: Hyperparameters) -> float:
    """The ridge marginal likelihood at one point by Cholesky, not eigenvalues."""
    # M = I + lam A >= I, so its Cholesky is stable: the log-determinant
    # comes from the factor diagonal, the quadratic form from one solve
    _, A, w = core._reduced(eta.beta)
    L = np.linalg.cholesky(eta.lam * A + np.eye(w.size))
    log_det = 2.0 * np.sum(np.log(np.diag(L)))
    z = scipy.linalg.solve_triangular(L, w, lower=True, check_finite=False)
    return 0.5 * (log_det + core.target_ss - eta.lam * (z @ z))


@dataclass(frozen=True)
class MarginalObjective:
    """Negative log-marginal likelihood of the whitened maximum-entropy fit.

    Keeps the design (which carries the covariance) and order next to the
    library's :class:`RidgeMarginal` so the dense oracles of a test can
    rebuild them.
    """

    design: WhittleDesign
    kernel_family: KernelFamily
    N: int
    n: int

    @cached_property
    def core(self) -> RidgeMarginal:
        return RidgeMarginal.whittle(self.design, self.kernel_family)

    def profile(self, lams: np.ndarray, betas):
        return self.core.profile(lams, betas)


def square_root(spec: KernelSpec) -> np.ndarray:
    """Closed-form factor B with kernel_matrix(spec) == B @ B.T exactly: diag(c)
    for di and the upper-triangular matrix of ones times diag(c) for tc, with c
    the library's structured root scales."""
    c = root_scale(spec)
    if spec.family is KernelFamily.DI:
        return np.diag(c)
    return np.triu(np.tile(c, (c.size, 1)))


def trailing_block_root(spec: KernelSpec) -> np.ndarray:
    """Factor B with kernel_matrix(spec)[1:, 1:] == B @ B.T exactly: the
    square root without its first row and column, which is diagonal for di
    and upper triangular for tc."""
    return square_root(spec)[1:, 1:]


def direct_spectrum(coeffs: np.ndarray, grid_size: int) -> np.ndarray:
    """1 / |sum_m b_m e^{-j theta_k m}|^2 from the grid_size x (n+1) exponential matrix."""
    grid = -np.pi + 2.0 * np.pi * np.arange(grid_size) / grid_size
    response = np.exp(-1j * np.outer(grid, np.arange(coeffs.size))) @ coeffs
    with np.errstate(divide="ignore"):
        return 1.0 / np.abs(response) ** 2


def direct_form_filter(numerator: np.ndarray, denominator: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y_t = sum_k b_k x_{t-k} - sum_{k>=1} a_k y_{t-k} from rest (monic a, equal
    lengths), one sample at a time in long double, rounded to float at the end."""
    b, a = numerator.astype(np.longdouble), denominator.astype(np.longdouble)
    x = x.astype(np.longdouble)
    p = a.size - 1
    y = np.zeros(x.size + p, dtype=np.longdouble)  # p leading zeros: the filter starts at rest
    xp = np.concatenate((np.zeros(p, dtype=np.longdouble), x))
    for t in range(x.size):
        y[t + p] = b @ xp[t : t + p + 1][::-1] - a[1:] @ y[t : t + p][::-1]
    return y[p:].astype(float)


def read_sample_column(path: str) -> np.ndarray:
    """The CSV sample reader as a plain row loop: csv.reader over the whole file."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataParseError(f"cannot read '{path}': {exc}") from exc
    values: list[float] = []
    for i, row in enumerate(rows, start=1):
        cells = [c.strip() for c in row if c.strip() != ""]
        if not cells:
            continue
        if len(cells) > 1:
            raise DataParseError(f"row {i}: expected a single column, got {len(cells)}")
        if i == 1 and cells[0].lower() == "y":
            continue
        try:
            values.append(float(cells[0]))
        except ValueError:
            raise DataParseError(f"row {i}: non-numeric value {cells[0]!r}") from None
    if not values:
        raise DataParseError(f"no samples found in '{path}'")
    return np.array(values)


def scipy_bounded_brent(func, lo: float, hi: float, xatol: float) -> None:
    """scipy's bounded scalar minimizer, called as the search called it before
    ``hyperopt._bounded_brent`` ported it; same signature as the port."""
    scipy.optimize.minimize_scalar(func, bounds=(lo, hi), method="bounded", options={"xatol": xatol})


def brent_evaluations(search, func, lo: float, hi: float, xatol: float) -> list[tuple[float, float]]:
    """The (x, func(x)) pairs that ``search(func, lo, hi, xatol)`` evaluates, in order."""
    calls: list[tuple[float, float]] = []

    def record(x):
        calls.append((float(x), float(func(float(x)))))
        return calls[-1][1]

    search(record, lo, hi, xatol)
    return calls
