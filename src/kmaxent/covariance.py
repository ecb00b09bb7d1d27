"""Covariance-lag estimation and Toeplitz assembly / factorization.

The sample covariance lags use the biased estimator (divisor N), which keeps
the assembled Toeplitz matrix positive semidefinite by construction.
:func:`cholesky` factors every Toeplitz matrix, for ME-BIC, the preliminary
b_0 and kernel-ME alike; its capped shift of r_0 repairs the rare
numerically indefinite case, and the factor keeps the shifted covariance, so
every later step reads one matrix. :class:`ToeplitzCovariance` computes its
matrix from its lags and :class:`CholeskyFactor` its factor from its
covariance, so no pair can disagree. The lag sums P_k are computed once per
series and kept on it (:meth:`TimeSeries.lag_sums`), so every estimator
reads the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDataError, InvalidOrderError, NotPositiveDefiniteError

_JITTER_SCALE = 1e-8
_JITTER_GROWTH = 10.0
_JITTER_ESCALATIONS = 4


@dataclass(frozen=True)
class TimeSeries:
    """A finite real sample y_1..y_N of at least two values.

    ``samples`` is a read-only copy of the input, so the lag sums kept by
    :meth:`lag_sums` always belong to it.
    """

    samples: np.ndarray

    def __post_init__(self):
        y = np.array(self.samples, dtype=float)
        if y.ndim != 1:
            raise InvalidDataError("samples must be one-dimensional")
        if y.size < 2:
            raise InvalidDataError("need at least two samples")
        if not np.all(np.isfinite(y)):
            raise InvalidDataError("samples contain non-finite values")
        y.flags.writeable = False
        object.__setattr__(self, "samples", y)

    @property
    def n_samples(self) -> int:
        return self.samples.size

    def lag_sums(self, n: int) -> np.ndarray:
        """Lag sums P_k = sum_t y_t y_{t+k} for k = 0..n; requires 0 <= n < N.

        One slice dot product per lag, so a prefix is bitwise equal to a
        fresh computation. The sums are kept on the series: a call computes
        only the lags beyond those already kept and returns a read-only
        prefix. Raises InvalidDataError when a sum overflows.
        """
        N = self.n_samples
        if not 0 <= n < N:
            raise InvalidOrderError(f"lag order n={n} must satisfy 0 <= n < N={N}")
        kept = self.__dict__.get("_lag_sums", np.empty(0))
        if kept.size <= n:
            s = self.samples
            with np.errstate(over="ignore", invalid="ignore"):
                new = np.array([s[: N - k] @ s[k:] for k in range(kept.size, n + 1)])
            if not np.isfinite(new).all():
                raise InvalidDataError("lags contain non-finite values")
            kept = np.concatenate((kept, new))
            kept.flags.writeable = False
            object.__setattr__(self, "_lag_sums", kept)
        return kept[: n + 1]


@dataclass(frozen=True)
class ToeplitzCovariance:
    """Covariance lags r_0..r_n and the symmetric Toeplitz matrix they define.

    ``lags`` is a read-only copy of the input, a finite non-empty 1d vector
    (InvalidDataError otherwise), and the read-only ``matrix[i, j] ==
    lags[|i - j|]`` is computed from it, so the pair cannot drift apart.
    Positive definiteness is checked only when the matrix is factored.
    """

    lags: np.ndarray
    matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        r = np.array(self.lags, dtype=float)
        if r.ndim != 1 or r.size == 0:
            raise InvalidDataError("lags must be a non-empty 1d vector")
        if not np.all(np.isfinite(r)):
            raise InvalidDataError("lags contain non-finite values")
        index = np.arange(r.size)
        matrix = r[np.abs(index[:, None] - index)]
        for name, values in (("lags", r), ("matrix", matrix)):
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    @property
    def order(self) -> int:
        return self.lags.size - 1


@dataclass(frozen=True)
class CholeskyFactor:
    """Read-only lower-triangular factor L with L @ L.T equal to ``cov.matrix``.

    ``L`` is computed from ``cov`` by ``np.linalg.cholesky``, which raises
    LinAlgError when the matrix is not positive definite. ``cov`` is the input
    of :func:`cholesky` when ``jitter`` is 0.0, otherwise the Toeplitz matrix
    of its lags with r_0 raised by ``jitter``.
    """

    cov: ToeplitzCovariance
    jitter: float = 0.0
    L: np.ndarray = field(init=False)

    def __post_init__(self):
        L = np.linalg.cholesky(self.cov.matrix)
        L.flags.writeable = False
        object.__setattr__(self, "L", L)


def estimate_lags(y: TimeSeries, n: int) -> np.ndarray:
    """Biased sample covariance lags r_k = (1/N) * sum_t y_t y_{t+k}, k = 0..n.

    The series' kept lag sums (:meth:`TimeSeries.lag_sums`) divided by N;
    requires 0 <= n < N.
    """
    return y.lag_sums(n) / y.n_samples


def cholesky(cov: ToeplitzCovariance) -> CholeskyFactor:
    """Lower Cholesky factor of the covariance matrix, with capped jitter.

    Tries the unmodified matrix first. If the factorization fails, raises
    r_0 by 1e-8 * r_0, escalating by 10 up to 4 times, and factors the
    Toeplitz matrix of the shifted lags, which the factor keeps as ``cov``.

    Raises
    ------
    NotPositiveDefiniteError
        If every attempt fails.
    """
    try:
        return CholeskyFactor(cov)
    except np.linalg.LinAlgError:
        pass
    eps = _JITTER_SCALE * abs(cov.lags[0])
    if eps == 0.0:
        raise NotPositiveDefiniteError("covariance matrix has zero leading lag")
    for _ in range(_JITTER_ESCALATIONS + 1):
        repaired = ToeplitzCovariance(np.concatenate(([cov.lags[0] + eps], cov.lags[1:])))
        try:
            return CholeskyFactor(repaired, eps)
        except np.linalg.LinAlgError:
            eps *= _JITTER_GROWTH
    raise NotPositiveDefiniteError(
        "covariance matrix is not positive definite even after maximum jitter"
    )
