"""Covariance-lag estimation and Toeplitz assembly / factorization.

The sample covariance lags use the biased estimator (divisor N), which keeps
the assembled Toeplitz matrix positive semidefinite by construction.
One repair policy factors every Toeplitz matrix: a capped shift of r_0
repairs the rare numerically indefinite case, and the factor keeps the
shifted covariance, so every later step reads one matrix.
:func:`factorizations` lists the factors in the order tried; :func:`cholesky`
returns the first, for the preliminary b_0 and kernel-ME, and ME-BIC walks
the list. :class:`ToeplitzCovariance` computes its
matrix from its lags and :class:`CholeskyFactor` its factor from its
covariance, so no pair can disagree. The lag sums P_k are computed once per
series and kept on it (:meth:`TimeSeries.lag_sums`), so every estimator
reads the same numbers. Both O(N n) passes over a series, the lag sums and
kernel-PEM's residuals, read it in one blocked layout
(:attr:`TimeSeries.blocks`) and run as dense matrix products.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDataError, InvalidOrderError, NotPositiveDefiniteError

_JITTER_SCALE = 1e-8
_JITTER_GROWTH = 10.0
_JITTER_ESCALATIONS = 4
_BLOCK = 64  # samples per row of TimeSeries.blocks


@dataclass(frozen=True)
class TimeSeries:
    """A finite real sample y_1..y_N of at least two values.

    ``samples`` is a read-only copy of the input, so the lag sums kept by
    :meth:`lag_sums` always belong to it. It is the head of the read-only
    :attr:`blocks`, the samples and then B + 1 to 2B zeros read as rows of
    B = 64, so the blocked layout costs no second copy; the residual
    products of kernel-PEM read up to one row past the last sample.
    """

    samples: np.ndarray
    blocks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        y = np.asarray(self.samples, dtype=float)
        if y.ndim != 1:
            raise InvalidDataError("samples must be one-dimensional")
        if y.size < 2:
            raise InvalidDataError("need at least two samples")
        if not np.all(np.isfinite(y)):
            raise InvalidDataError("samples contain non-finite values")
        padded = np.empty((y.size // _BLOCK + 2) * _BLOCK)
        padded[: y.size], padded[y.size :] = y, 0.0
        padded.flags.writeable = False
        object.__setattr__(self, "samples", padded[: y.size])
        object.__setattr__(self, "blocks", padded.reshape(-1, _BLOCK))

    @property
    def n_samples(self) -> int:
        return self.samples.size

    def lag_sums(self, n: int) -> np.ndarray:
        """Lag sums P_k = sum_t y_t y_{t+k} for k = 0..n; requires 0 <= n < N.

        Read as rows of B samples (:attr:`blocks`), the lag-q block products
        G_q = Y[:-q]^T Y[q:] hold every product y_t y_{t+k}: P_k for
        k = qB + r is the sum of G_q's diagonal at offset r and G_{q+1}'s at
        offset r - B. Each block product is one matrix product of fixed
        shape and each P_k one sum of the same B entries, so P_k depends
        only on the series and k: a prefix is bitwise equal to a fresh
        computation. The last bits follow the BLAS kernel. The sums are
        kept on the series: a call computes only the lags beyond those
        already kept and returns a read-only prefix. Raises InvalidDataError
        when a sum overflows.
        """
        N = self.n_samples
        if not 0 <= n < N:
            raise InvalidOrderError(f"lag order n={n} must satisfy 0 <= n < N={N}")
        kept = self.__dict__.get("_lag_sums", np.empty(0))
        if kept.size <= n:
            Y, B = self.blocks, _BLOCK
            first, last = kept.size // B, n // B
            # pairs[j] = [G_{first+j} | G_{first+j+1}], so lag (first + j) B + r
            # sums its B entries pairs[j, i, i + r], i = 0..B-1
            pairs = np.zeros((last - first + 2, B, 2 * B))
            with np.errstate(over="ignore", invalid="ignore"):
                for j, q in enumerate(range(first, last + 2)):
                    np.matmul(Y[: Y.shape[0] - q].T, Y[q:], out=pairs[j, :, :B])
                pairs[:-1, :, B:] = pairs[1:, :, :B]
                s0, s1, s2 = pairs.strides
                entries = np.lib.stride_tricks.as_strided(
                    pairs, (last - first + 1, B, B), (s0, s2, s1 + s2), writeable=False
                )
                new = entries.copy().sum(axis=2).ravel()[kept.size - first * B : n + 1 - first * B]
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

    The series' kept lag sums (:meth:`TimeSeries.lag_sums`, blocked matrix
    products whose last bits follow the BLAS kernel) divided by N; requires
    0 <= n < N.
    """
    return y.lag_sums(n) / y.n_samples


def factorizations(cov: ToeplitzCovariance) -> Iterator[CholeskyFactor]:
    """The factors :func:`cholesky` may return, in the order it tries them.

    The unmodified matrix first; then r_0 raised by 1e-8 * r_0, escalating
    by 10 up to 4 times, each the factor of the Toeplitz matrix of the
    shifted lags, which it keeps as ``cov``. Matrices that do not factor are
    skipped, and so are the shifts when 1e-8 * r_0 is zero.
    """
    eps = _JITTER_SCALE * abs(cov.lags[0])
    shifts = [0.0]
    if eps != 0.0:
        for _ in range(_JITTER_ESCALATIONS + 1):
            shifts.append(eps)
            eps *= _JITTER_GROWTH
    for shift in shifts:
        shifted = cov if shift == 0.0 else ToeplitzCovariance(
            np.concatenate(([cov.lags[0] + shift], cov.lags[1:]))
        )
        try:
            factor = CholeskyFactor(shifted, shift)
        except np.linalg.LinAlgError:
            continue
        yield factor


def cholesky(cov: ToeplitzCovariance) -> CholeskyFactor:
    """Lower Cholesky factor of the covariance matrix, with capped jitter.

    The first of :func:`factorizations`: the unmodified matrix if it
    factors, otherwise the smallest r_0 shift whose Toeplitz matrix does.

    Raises
    ------
    NotPositiveDefiniteError
        If every attempt fails.
    """
    factor = next(factorizations(cov), None)
    if factor is not None:
        return factor
    if _JITTER_SCALE * abs(cov.lags[0]) == 0.0:
        raise NotPositiveDefiniteError("covariance matrix has zero leading lag")
    raise NotPositiveDefiniteError(
        "covariance matrix is not positive definite even after maximum jitter"
    )
