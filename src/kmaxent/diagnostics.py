"""Model-complexity diagnostics for the regularized estimators.

The pipelines take their degrees of freedom from :func:`shrinkage_df` on the
eigenvalues of the shared reduced form; :func:`degrees_of_freedom` is the
dense cross-check, a direct trace of (Sigma + R)^{-1} Sigma.
"""

from __future__ import annotations

import numpy as np

from .covariance import ToeplitzCovariance
from .errors import InvalidOrderError
from .estimators import _solve_spd
from .kernels import Hyperparameters, KernelSpec, scaled_inverse_R


def degrees_of_freedom(
    cov: ToeplitzCovariance, spec: KernelSpec, eta: Hyperparameters, N: int
) -> float:
    """Effective parameter count df = tr[(Sigma + R)^{-1} Sigma].

    R = ((N - n) lam K)^{-1} in structured form; the trace is obtained from a
    single Cholesky solve against Sigma. Ranges over [0, n + 1], reaching the
    upper end as lam grows without bound (no regularization).
    """
    n = cov.order
    if N <= n:
        raise InvalidOrderError(f"need N > n, got N={N}, n={n}")
    R = scaled_inverse_R(spec, eta.lam, N, n)
    return float(np.trace(_solve_spd(cov.matrix + R, cov.matrix)))


def shrinkage_df(gram_eigs: np.ndarray, lam: float) -> float:
    """Ridge degrees of freedom sum_i lam*s_i / (1 + lam*s_i).

    ``gram_eigs`` are the eigenvalues of B^T G B where G is the data Gram
    matrix and B B^T the prior covariance; used for the predictor baseline.
    """
    s = np.clip(gram_eigs, 0.0, None)
    return float(np.sum(lam * s / (1.0 + lam * s)))
