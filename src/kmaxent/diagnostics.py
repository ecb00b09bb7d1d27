"""Model-complexity diagnostics for the regularized estimators.

:func:`degrees_of_freedom` is the pipelines' df of the maximum-entropy route:
:func:`shrinkage_df` on the eigenvalues of the reduced form that the search
and the coefficient solve use (:class:`~kmaxent.estimators.RidgeMarginal`).
"""

from __future__ import annotations

import numpy as np

from .covariance import ToeplitzCovariance
from .errors import InvalidOrderError
from .estimators import RidgeMarginal, shrinkage_df
from .kernels import Hyperparameters, KernelFamily


def degrees_of_freedom(
    cov: ToeplitzCovariance, family: KernelFamily, eta: Hyperparameters, N: int
) -> float:
    """Effective parameter count df = tr[(Sigma + R)^{-1} Sigma], R = ((N - n) lam K)^{-1}.

    K is the size-(n+1) kernel of ``family`` at eta's beta, with n the order
    of ``cov``. Evaluated as the ridge df of the Gram (N - n) Sigma under the
    kernel root; it ranges over [0, n + 1], reaching the upper end as lam
    grows without bound (no regularization).
    """
    n = cov.order
    if N <= n:
        raise InvalidOrderError(f"need N > n, got N={N}, n={n}")
    gram, moment = (N - n) * cov.matrix, np.zeros(n + 1)
    return RidgeMarginal._reduce(gram, moment, 0.0, family, n + 1).df(eta)
