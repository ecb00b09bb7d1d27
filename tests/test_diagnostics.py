import numpy as np
import pytest

from kmaxent.covariance import ToeplitzCovariance, estimate_lags
from kmaxent.diagnostics import degrees_of_freedom, shrinkage_df
from kmaxent.errors import InvalidOrderError
from kmaxent.hyperopt import run_pipeline
from kmaxent.kernels import Hyperparameters, KernelFamily
from kmaxent.simulate import generate, random_arma


class TestDegreesOfFreedom:
    def test_no_regularization_limit(self, benchmark_setup):
        _, cov, _, _ = benchmark_setup
        df = degrees_of_freedom(cov, KernelFamily.DI, Hyperparameters(1e12, 0.85), 500)
        assert abs(df - (cov.order + 1)) <= 1e-4

    def test_full_shrinkage_limit(self, benchmark_setup):
        _, cov, _, _ = benchmark_setup
        for family in KernelFamily:
            df = degrees_of_freedom(cov, family, Hyperparameters(1e-12, 0.85), 500)
            assert 0.0 <= df <= 1e-4

    def test_identity_covariance_closed_form(self):
        # with Sigma = I and a diagonal kernel every term decouples:
        # df = sum_k 1 / (1 + ((N - n) lam beta^k)^{-1})
        n, N, lam, beta = 7, 100, 0.3, 0.6
        lags = np.zeros(n + 1)
        lags[0] = 1.0
        cov = ToeplitzCovariance(lags)
        df = degrees_of_freedom(cov, KernelFamily.DI, Hyperparameters(lam, beta), N)
        k = np.arange(1, n + 2)
        expected = np.sum(1.0 / (1.0 + 1.0 / ((N - n) * lam * beta**k)))
        assert abs(df - expected) <= 1e-10

    def test_monotone_in_lambda_and_bounded(self):
        rng = np.random.default_rng(31)
        lam_grid = np.logspace(-6, 6, 20)
        for trial in range(10):
            n = int(rng.integers(3, 30))
            model = random_arma(rng.integers(0, 2**63))
            y = generate(model, 300, rng.integers(0, 2**63))
            cov = ToeplitzCovariance(estimate_lags(y, n))
            beta = float(rng.uniform(0.1, 0.95))
            family = KernelFamily.DI if trial % 2 == 0 else KernelFamily.TC
            dfs = np.array(
                [
                    degrees_of_freedom(cov, family, Hyperparameters(float(l), beta), 300)
                    for l in lam_grid
                ]
            )
            assert np.all(dfs >= 0.0) and np.all(dfs <= n + 1 + 1e-9)
            assert np.all(np.diff(dfs) >= -1e-9)

    def test_is_the_pipeline_df(self, benchmark_setup):
        y, cov, _, _ = benchmark_setup
        for family in KernelFamily:
            result = run_pipeline(y, cov.order, family)
            assert degrees_of_freedom(cov, family, result.eta_hat, y.n_samples) == result.df

    def test_rejects_n_not_less_than_N(self, benchmark_setup):
        _, cov, _, _ = benchmark_setup
        with pytest.raises(InvalidOrderError):
            degrees_of_freedom(cov, KernelFamily.DI, Hyperparameters(1.0, 0.5), cov.order)


class TestShrinkageDf:
    def test_limits(self):
        eigs = np.array([0.5, 2.0, 10.0])
        assert shrinkage_df(eigs, 1e15) == pytest.approx(3.0, abs=1e-9)
        assert shrinkage_df(eigs, 1e-15) == pytest.approx(0.0, abs=1e-9)
