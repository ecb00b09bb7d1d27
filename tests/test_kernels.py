import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmaxent.errors import InvalidHyperparameterError, InvalidOrderError
from kmaxent.kernels import Hyperparameters, KernelFamily, KernelSpec, inverse_factorization
from oracles import kernel_matrix, scaled_inverse_R, square_root, trailing_block_root


class TestKernelMatrix:
    def test_di_small(self):
        K = kernel_matrix(KernelSpec(KernelFamily.DI, 0.5, 3))
        np.testing.assert_allclose(K, np.diag([0.5, 0.25, 0.125]), rtol=1e-15)

    def test_tc_small(self):
        K = kernel_matrix(KernelSpec(KernelFamily.TC, 0.5, 2))
        np.testing.assert_allclose(K, [[0.375, 0.125], [0.125, 0.125]], rtol=1e-15)

    def test_tc_matches_inverse_factorization(self):
        spec = KernelSpec(KernelFamily.TC, 0.85, 51)
        fac = inverse_factorization(spec)
        rebuilt = np.linalg.inv((fac.F * fac.d) @ fac.F.T)
        K = kernel_matrix(spec)
        rel = np.linalg.norm(rebuilt - K) / np.linalg.norm(K)
        assert rel <= 1e-9

    def test_tc_positive_definite_across_betas(self):
        for beta in np.linspace(0.05, 0.95, 19):
            K = kernel_matrix(KernelSpec(KernelFamily.TC, float(beta), 51))
            np.linalg.cholesky(K)  # raises if not PD

    def test_invalid_beta_rejected(self):
        for beta in (0.0, 1.0, -0.2, 1.7, np.nan):
            with pytest.raises(InvalidHyperparameterError):
                KernelSpec(KernelFamily.DI, beta, 5)

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(InvalidHyperparameterError):
            Hyperparameters(0.0, 0.5)
        with pytest.raises(InvalidHyperparameterError):
            Hyperparameters(np.inf, 0.5)
        with pytest.raises(InvalidHyperparameterError):
            Hyperparameters(1.0, 1.0)

    def test_tc_close_to_unmodified_variant_for_large_n(self):
        # the variant without the constant offset, beta^{max(t,s)}, differs
        # from the implemented kernel by exactly beta^{n+2} per entry
        beta, size = 0.85, 51
        idx = np.arange(1, size + 1)
        unmodified = beta ** np.maximum.outer(idx, idx)
        K = kernel_matrix(KernelSpec(KernelFamily.TC, beta, size))
        np.testing.assert_allclose(unmodified - K, np.full((size, size), beta ** (size + 1)))
        assert beta ** (size + 1) < 3e-4


class TestScaledInverse:
    def test_di_example(self):
        spec = KernelSpec(KernelFamily.DI, 0.5, 2)
        R = scaled_inverse_R(spec, lam=1.0, N=2, n=1)
        np.testing.assert_allclose(R, np.diag([2.0, 4.0]), rtol=1e-15)

    def test_product_with_kernel_is_scaled_identity(self):
        for family in KernelFamily:
            for beta in (0.1, 0.5, 0.85, 0.95):
                for lam, N, n in ((0.3, 40, 7), (12.0, 500, 50)):
                    spec = KernelSpec(family, beta, n + 1)
                    R = scaled_inverse_R(spec, lam, N, n)
                    target = np.eye(n + 1) / ((N - n) * lam)
                    prod = R @ kernel_matrix(spec)
                    rel = np.linalg.norm(prod - target) / np.linalg.norm(target)
                    assert rel <= 1e-8, (family, beta, lam, N, n, rel)

    @given(st.floats(min_value=0.02, max_value=0.98))
    @settings(max_examples=60, deadline=None)
    def test_di_diagonal_nondecreasing(self, beta):
        spec = KernelSpec(KernelFamily.DI, beta, 12)
        diag = np.diag(scaled_inverse_R(spec, 1.0, 13, 11))
        assert np.all(np.diff(diag) >= 0)
        assert np.all(diag > 0)

    def test_dimension_and_argument_validation(self):
        spec = KernelSpec(KernelFamily.DI, 0.5, 4)
        with pytest.raises(InvalidOrderError):
            scaled_inverse_R(spec, 1.0, 3, 3)  # N == n
        with pytest.raises(InvalidOrderError):
            scaled_inverse_R(spec, 1.0, 10, 5)  # size mismatch
        with pytest.raises(InvalidHyperparameterError):
            scaled_inverse_R(spec, -1.0, 10, 3)


class TestSquareRoots:
    def test_square_root_reproduces_kernel(self):
        for family in KernelFamily:
            for beta in (0.05, 0.5, 0.85, 0.95):
                spec = KernelSpec(family, beta, 51)
                K = kernel_matrix(spec)
                B = square_root(spec)
                rel = np.linalg.norm(B @ B.T - K) / np.linalg.norm(K)
                assert rel <= 1e-13, (family, beta, rel)

    def test_trailing_block_root(self):
        for family in KernelFamily:
            for beta in (0.05, 0.5, 0.95):
                spec = KernelSpec(family, beta, 51)
                block = kernel_matrix(spec)[1:, 1:]
                B = trailing_block_root(spec)
                rel = np.linalg.norm(B @ B.T - block) / np.linalg.norm(block)
                assert rel <= 1e-13

    def test_square_root_valid_at_extreme_beta(self):
        # decay rates the refinement stage may visit; a numerical Cholesky of
        # the dense tc kernel fails here, while the structured root must not
        for beta in (1e-12, 1.0 - 1e-12):
            B = trailing_block_root(KernelSpec(KernelFamily.TC, beta, 51))
            assert np.all(np.isfinite(B))

    def test_trailing_block_requires_size_two(self):
        with pytest.raises(InvalidOrderError):
            trailing_block_root(KernelSpec(KernelFamily.DI, 0.5, 1))


class TestSampledDecay:
    def test_tail_coefficients_decay(self):
        # draws from N(0, lam K) must shrink with coefficient index:
        # the 95th percentile of |b_50| sits below that of |b_10|
        rng = np.random.default_rng(7)
        n, lam, beta, draws = 50, 1.0, 0.85, 10_000
        for family in KernelFamily:
            spec = KernelSpec(family, beta, n + 1)
            B = np.sqrt(lam) * square_root(spec)
            samples = rng.standard_normal((draws, n + 1)) @ B.T
            p95_late = np.percentile(np.abs(samples[:, 50]), 95)
            p95_early = np.percentile(np.abs(samples[:, 10]), 95)
            assert p95_late < p95_early, (family, p95_late, p95_early)
