"""Covariance-lag estimation and Toeplitz assembly / factorization.

The sample covariance lags use the biased estimator (divisor N), which keeps
the assembled Toeplitz matrix positive semidefinite by construction; a
capped diagonal jitter repairs the rare numerically indefinite case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidDataError, InvalidOrderError, NotPositiveDefiniteError

_JITTER_SCALE = 1e-8
_JITTER_GROWTH = 10.0
_JITTER_ESCALATIONS = 4


@dataclass(frozen=True)
class TimeSeries:
    """A finite real sample y_1..y_N.

    Parameters
    ----------
    samples : array_like, 1d
        Signal values. Must be finite and contain at least two samples.
    """

    samples: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.samples, dtype=float)
        if y.ndim != 1:
            raise InvalidDataError("samples must be one-dimensional")
        if y.size < 2:
            raise InvalidDataError("need at least two samples")
        if not np.all(np.isfinite(y)):
            raise InvalidDataError("samples contain non-finite values")
        object.__setattr__(self, "samples", y)

    @property
    def n_samples(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class ToeplitzCovariance:
    """Covariance lags r_0..r_n and the symmetric Toeplitz matrix they define.

    ``matrix[i, j] == lags[|i - j|]`` exactly; positive definiteness is only
    checked when the matrix is factored, not here.
    """

    lags: np.ndarray
    matrix: np.ndarray

    @property
    def order(self) -> int:
        return self.lags.size - 1


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with L @ L.T equal to the (possibly
    jitter-repaired) covariance matrix; ``jitter`` is the diagonal shift used,
    0.0 when none was needed."""

    L: np.ndarray
    jitter: float = 0.0


def _lag_products(s: np.ndarray, n: int) -> np.ndarray:
    """Lag sums P_k = sum_t s_t s_{t+k} for k = 0..n, one dot product per lag.

    Raises InvalidDataError when a sum overflows, before any caller uses it.
    """
    N = s.size
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.array([s[: N - k] @ s[k:] for k in range(n + 1)])
    if not np.isfinite(sums).all():
        raise InvalidDataError("lags contain non-finite values")
    return sums


def estimate_lags(y: TimeSeries, n: int) -> np.ndarray:
    """Biased sample covariance lags r_k = (1/N) * sum_t y_t y_{t+k}.

    Parameters
    ----------
    y : TimeSeries
    n : int
        Largest lag; requires 0 <= n < N.

    Returns
    -------
    ndarray of shape (n + 1,) holding r_0..r_n.
    """
    N = y.n_samples
    if not 0 <= n < N:
        raise InvalidOrderError(f"lag order n={n} must satisfy 0 <= n < N={N}")
    return _lag_products(y.samples, n) / N


def build_toeplitz(lags: np.ndarray) -> ToeplitzCovariance:
    """Assemble the symmetric Toeplitz covariance matrix from its lags."""
    r = np.asarray(lags, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise InvalidDataError("lags must be a non-empty 1d vector")
    if not np.all(np.isfinite(r)):
        raise InvalidDataError("lags contain non-finite values")
    return ToeplitzCovariance(lags=r, matrix=scipy.linalg.toeplitz(r))


def cholesky(cov: ToeplitzCovariance) -> CholeskyFactor:
    """Lower Cholesky factor of the covariance matrix, with capped jitter.

    Tries the unmodified matrix first. If the factorization fails, adds
    1e-8 * r_0 to the diagonal, escalating by 10 up to 4 times.

    Raises
    ------
    NotPositiveDefiniteError
        If every attempt fails.
    """
    sigma = cov.matrix
    try:
        return CholeskyFactor(L=np.linalg.cholesky(sigma), jitter=0.0)
    except np.linalg.LinAlgError:
        pass
    eps = _JITTER_SCALE * abs(cov.lags[0])
    if eps == 0.0:
        raise NotPositiveDefiniteError("covariance matrix has zero leading lag")
    eye = np.eye(sigma.shape[0])
    for _ in range(_JITTER_ESCALATIONS + 1):
        try:
            return CholeskyFactor(L=np.linalg.cholesky(sigma + eps * eye), jitter=eps)
        except np.linalg.LinAlgError:
            eps *= _JITTER_GROWTH
    raise NotPositiveDefiniteError(
        "covariance matrix is not positive definite even after maximum jitter"
    )
