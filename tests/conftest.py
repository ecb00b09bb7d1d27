import numpy as np
import pytest

from kmaxent.covariance import build_toeplitz, cholesky, estimate_lags
from kmaxent.estimators import build_whittle_design, preliminary_b0
from kmaxent.simulate import benchmark_arma, generate


@pytest.fixture(scope="session")
def benchmark_series():
    """Fixed-seed series from the benchmark narrow-band process (seed 42, N=500)."""
    return generate(benchmark_arma(), 500, 42)


@pytest.fixture(scope="session")
def benchmark_setup(benchmark_series):
    """Order-50 covariance, factor, and whitened design for the fixed series."""
    y = benchmark_series
    b0 = preliminary_b0(y, 4)
    cov = build_toeplitz(estimate_lags(y, 50))
    factor = cholesky(cov)
    design = build_whittle_design(factor, b0, y.n_samples)
    return y, cov, factor, design


def naive_lags(samples: np.ndarray, n: int) -> np.ndarray:
    """Brute-force double-loop covariance lags (independent oracle)."""
    N = len(samples)
    out = np.zeros(n + 1)
    for k in range(n + 1):
        acc = 0.0
        for t in range(N - k):
            acc += samples[t] * samples[t + k]
        out[k] = acc / N
    return out
