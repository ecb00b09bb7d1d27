import itertools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.signal

from kmaxent.covariance import (
    TimeSeries,
    ToeplitzCovariance,
    cholesky,
    estimate_lags,
)
from kmaxent.errors import InvalidDataError, InvalidOrderError, NotPositiveDefiniteError
from kmaxent.estimators import (
    EstimateResult,
    Method,
    PredictorPolynomial,
    RidgeMarginal,
    WhittleDesign,
    _residuals,
    check_min_phase,
    kernel_me,
    kernel_pem,
    lagged_gram,
    me_bic,
    preliminary_b0,
    yule_walker,
)
from kmaxent.hyperopt import run_pipeline
from kmaxent.kernels import Hyperparameters, KernelFamily, KernelSpec, inverse_factorization
from kmaxent.simulate import SpectrumModel, eval_spectrum, generate, random_arma
from oracles import (
    kernel_matrix,
    kernel_me_regularized_ls,
    lagged_design,
    me_bic_by_order,
    trailing_block_root,
)


# (lam, beta) at the corners of the hyperparameter search box
BOX_CORNERS = [(lam, beta) for lam in (1e-4, 1e4) for beta in (0.05, 0.95)]


# (width, centre) of the N=500 bumps whose order-50 Toeplitz matrix needs jitter
BUMPS_NEEDING_JITTER = [(w, c) for w in (10, 20) for c in (100, 250, 400)] + [(40, 250), (60, 250)]


def bump_series(N, width, centre):
    """The Gaussian bump y_t = exp(-((t - centre) / width)^2), t = 0..N-1."""
    return TimeSeries(np.exp(-(((np.arange(N) - centre) / width) ** 2)))


def exact_residuals(samples, predictor):
    """Residuals sum_j p_j y_{t-j}, t = n+1..N, each by math.fsum of its products."""
    windows = np.lib.stride_tricks.sliding_window_view(samples, predictor.size)
    return np.array([math.fsum(row) for row in (windows * predictor[::-1]).tolist()])


def ar_series(coeffs, N, seed, sigma=1.0, burn=500):
    """AR data with y_t = sum_k coeffs[k] y_{t-k-1} + sigma * e_t."""
    rng = np.random.default_rng(seed)
    den = np.concatenate(([1.0], -np.asarray(coeffs)))
    out = scipy.signal.lfilter([sigma], den, rng.standard_normal(N + burn))
    return TimeSeries(out[burn:])


class TestYuleWalker:
    def test_white_noise_diagonal(self):
        cov = ToeplitzCovariance(np.array([4.0, 0.0, 0.0, 0.0]))
        b = yule_walker(cov)
        np.testing.assert_allclose(b.coeffs, [0.5, 0.0, 0.0, 0.0], atol=1e-15)

    def test_ar1_exact_lags(self):
        rho = 0.5
        lags = rho ** np.arange(2) / (1 - rho**2)
        b = yule_walker(ToeplitzCovariance(lags))
        np.testing.assert_allclose(b.coeffs, [1.0, -0.5], rtol=1e-12)
        ok, max_mod = check_min_phase(b)
        assert ok and abs(max_mod - 0.5) < 1e-12

    def test_defining_equation(self, benchmark_setup):
        _, cov, _, _ = benchmark_setup
        b = yule_walker(cov)
        v = np.zeros(cov.order + 1)
        v[0] = 1.0
        lhs = cov.matrix @ b.coeffs
        rhs = v / b.coeffs[0]
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) <= 1e-9

    def test_matches_dense_inverse_oracle(self, benchmark_setup):
        _, cov, _, _ = benchmark_setup
        b = yule_walker(cov)
        v = np.zeros(cov.order + 1)
        v[0] = 1.0
        a = np.linalg.inv(cov.matrix) @ v
        np.testing.assert_allclose(b.coeffs, a / np.sqrt(a[0]), rtol=1e-12, atol=1e-15)

    def test_always_min_phase(self):
        for seed in range(25):
            model = random_arma(seed)
            y = generate(model, 400, seed + 1000)
            for n in (3, 12, 35):
                b = yule_walker(ToeplitzCovariance(estimate_lags(y, n)))
                ok, _ = check_min_phase(b)
                assert ok


class TestMeBic:
    def test_white_noise_concentrates_on_order_one(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            y = TimeSeries(rng.standard_normal(5000))
            hits += me_bic(y, 30).chosen_n == 1
        assert hits >= 80

    def test_ar2_recovered(self):
        hits = 0
        for seed in range(100):
            y = ar_series([1.5, -0.7], 5000, seed)
            hits += me_bic(y, 20).chosen_n == 2
        assert hits > 50

    def test_degenerate_single_candidate(self):
        y = ar_series([0.5], 200, 3)
        fit = me_bic(y, 1)
        assert fit.chosen_n == 1 and fit.b_hat.order == 1

    def test_invalid_order(self):
        y = TimeSeries(np.arange(10.0))
        with pytest.raises(InvalidOrderError):
            me_bic(y, 10)
        with pytest.raises(InvalidOrderError):
            me_bic(y, 0)

    @staticmethod
    def assert_matches_order_loop(y, n_max):
        fit = me_bic(y, n_max)
        b_ref, chosen_ref = me_bic_by_order(y, n_max)
        assert fit.chosen_n == chosen_ref
        np.testing.assert_allclose(fit.b_hat.coeffs, b_ref.coeffs, rtol=1e-12, atol=0.0)

    def test_matches_order_loop_on_random_arma(self):
        for seed in range(40):
            model = random_arma(np.random.SeedSequence([606, seed, 0]))
            y = generate(model, 500, np.random.SeedSequence([606, seed, 1]))
            self.assert_matches_order_loop(y, 50)

    def test_matches_order_loop_on_white_noise(self):
        for seed in range(20):
            self.assert_matches_order_loop(
                TimeSeries(np.random.default_rng(seed).standard_normal(500)), 50
            )

    def test_matches_order_loop_at_order_one(self, benchmark_series):
        self.assert_matches_order_loop(benchmark_series, 1)

    def test_factor_diagonal_is_every_orders_error_variance(self, benchmark_series):
        # sigma_n^2 = 1 / (Sigma_n^{-1})_00 for the leading order-n block
        matrix = ToeplitzCovariance(estimate_lags(benchmark_series, 50)).matrix
        L = np.linalg.cholesky(matrix)
        for n in range(51):
            dense = 1.0 / np.linalg.inv(matrix[: n + 1, : n + 1])[0, 0]
            assert abs(L[n, n] ** 2 - dense) <= 1e-12 * dense, n

    def test_singular_covariance_is_a_named_error(self):
        with pytest.raises(NotPositiveDefiniteError):
            me_bic(TimeSeries(np.zeros(100)), 5)

    @pytest.mark.parametrize(
        "N, width, centre, scale, n_max",
        [
            (235, 15.506553579752817, 92.93656842962906, 1e-53, 8),
            (237, 7.816935015802286, 120.59865250838459, 1e-19, 23),
            (215, 7.472814408145096, 145.6467847645158, 1e116, 12),
            (286, 28.72218144179919, 151.7783254889725, 1e150, 8),
            (154, 5.388929157638645, 48.59838582665077, 1e67, 15),
            (136, 5.244140625, 68.0, 1e78, 20),
        ],
    )
    def test_steep_bump_that_factors_unshifted_fits_minimum_phase(
        self, N, width, centre, scale, n_max
    ):
        # each order-n_max matrix is near singular and factors unshifted;
        # the rounding of its lags decides whether that Yule-Walker solve has
        # a root outside the unit circle (moduli up to 1.66 were seen), and
        # such a fit must take an r_0 shift
        y = TimeSeries(scale * bump_series(N, width, centre).samples)
        fit = me_bic(y, n_max)
        assert fit.min_phase_verified, fit.max_root_modulus

    def test_solves_on_the_leading_block_of_its_factor(self):
        # the chosen-order solve reads the order-n_max factor's leading block,
        # which matches a fresh factorization of the order-n matrix
        for seed in range(20):
            model = random_arma(np.random.SeedSequence([707, seed, 0]))
            y = generate(model, 500, np.random.SeedSequence([707, seed, 1]))
            fit = me_bic(y, 50)
            fresh = yule_walker(ToeplitzCovariance(estimate_lags(y, fit.chosen_n)))
            np.testing.assert_allclose(fit.b_hat.coeffs, fresh.coeffs, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("width, centre", BUMPS_NEEDING_JITTER)
    def test_bump_series_fits_with_the_kernel_routes_repair(self, width, centre):
        # the order-50 Toeplitz matrix of a smooth bump is numerically
        # indefinite; ME-BIC takes the r_0 shift kernel-ME takes on it
        y = bump_series(500, width, centre)
        fit = me_bic(y, 50)
        assert fit.min_phase_verified, fit.max_root_modulus
        assert fit.jitter_used > 0
        assert fit.jitter_used == run_pipeline(y, 50, KernelFamily.TC).jitter_used


class TestPreliminaryB0:
    def test_white_noise_limit(self):
        sigma = 2.0
        rng = np.random.default_rng(11)
        y = TimeSeries(sigma * rng.standard_normal(200_000))
        assert abs(preliminary_b0(y, 4) - 1.0 / sigma) < 0.02

    def test_matches_independent_yw_oracle(self, benchmark_series):
        got = preliminary_b0(benchmark_series, 4)
        lags = estimate_lags(benchmark_series, 4)
        sigma = ToeplitzCovariance(lags).matrix
        a = np.linalg.inv(sigma)[:, 0]
        assert abs(got - np.sqrt(a[0])) <= 1e-10 * abs(got)

    def test_order_zero(self, benchmark_series):
        r0 = estimate_lags(benchmark_series, 0)[0]
        assert abs(preliminary_b0(benchmark_series, 0) - 1.0 / np.sqrt(r0)) < 1e-14


class TestWhittleDesign:
    def test_identity_factor(self):
        factor = cholesky(ToeplitzCovariance([1.0, 0.0, 0.0]))
        design = WhittleDesign(factor, 1.0, 6)
        np.testing.assert_allclose(design.v_tilde, [2.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(design.phi_data, 2.0 * np.eye(3), atol=1e-15)
        assert design.n_eff == 4

    def test_gram_identity(self, benchmark_setup):
        _, cov, _, design = benchmark_setup
        gram = design.phi_data.T @ design.phi_data
        target = design.n_eff * cov.matrix
        rel = np.linalg.norm(gram - target) / np.linalg.norm(target)
        assert rel <= 1e-10

    def test_fields_are_the_documented_forms(self, benchmark_setup):
        _, cov, factor, design = benchmark_setup
        N, n = design.N, cov.order
        e1 = np.zeros(n + 1)
        e1[0] = 1.0
        root = np.sqrt(N - n)
        linv_e1 = scipy.linalg.solve_triangular(factor.L, e1, lower=True)
        assert np.array_equal(design.v_tilde, (root / design.b0_prelim) * linv_e1)
        assert np.array_equal(design.phi_data, root * factor.L.T)
        assert design.n_eff == N - n and design.cov is factor.cov
        for kept in (design.v_tilde, design.phi_data):
            with pytest.raises(ValueError):
                kept[0] = 0.0
        with pytest.raises(TypeError):
            WhittleDesign(v_tilde=design.v_tilde, factor=factor, b0_prelim=1.0, N=N)

    def test_rejects_degenerate_inputs(self):
        factor = cholesky(ToeplitzCovariance([1.0, 0.0, 0.0]))
        with pytest.raises(InvalidOrderError):
            WhittleDesign(factor, 1.0, 2)
        with pytest.raises(InvalidDataError):
            WhittleDesign(factor, 0.0, 6)


class TestKernelMe:
    def test_lambda_infinity_reduces_to_yule_walker(self, benchmark_setup):
        _, cov, _, design = benchmark_setup
        v = np.zeros(cov.order + 1)
        v[0] = 1.0
        a = np.linalg.solve(cov.matrix, v)
        for family in KernelFamily:
            eta = Hyperparameters(1e12, 0.85)
            b = kernel_me(RidgeMarginal.whittle(design, family), eta)
            target = a / design.b0_prelim
            rel = np.linalg.norm(b.coeffs - target) / np.linalg.norm(target)
            assert rel <= 1e-4, (family, rel)

    def test_lambda_zero_shrinks_to_nothing(self, benchmark_setup):
        _, _, _, design = benchmark_setup
        eta = Hyperparameters(1e-12, 0.85)
        b = kernel_me(RidgeMarginal.whittle(design, KernelFamily.TC), eta)
        assert np.linalg.norm(b.coeffs) < 1e-6

    def test_matches_dense_normal_equations_oracle(self, benchmark_setup):
        _, cov, _, design = benchmark_setup
        cases = [(KernelFamily.DI, 1.0, 0.85, 1e-6)] + [
            (family, lam, beta, 1e-8) for family in KernelFamily for lam, beta in BOX_CORNERS
        ]
        for family, lam, beta, tol in cases:
            eta = Hyperparameters(lam, beta)
            b = kernel_me(RidgeMarginal.whittle(design, family), eta)
            K = kernel_matrix(KernelSpec(family, beta, cov.order + 1))
            phi, vt = design.phi_data, design.v_tilde
            oracle = np.linalg.solve(
                phi.T @ phi + np.linalg.inv(K) / eta.lam, phi.T @ vt
            )
            rel = np.linalg.norm(b.coeffs - oracle) / np.linalg.norm(oracle)
            assert rel <= tol, (family, lam, beta, rel)

    def test_closed_forms_agree(self, benchmark_setup):
        _, _, _, design = benchmark_setup
        rng = np.random.default_rng(5)
        cases = []
        for _ in range(10):
            beta = rng.uniform(0.1, 0.95)
            lam = 10.0 ** rng.uniform(-3, 3)
            cases.append((KernelFamily.DI if rng.random() < 0.5 else KernelFamily.TC, lam, beta))
        cases += [(family, lam, beta) for family in KernelFamily for lam, beta in BOX_CORNERS]
        for family, lam, beta in cases:
            eta = Hyperparameters(lam, beta)
            b1 = kernel_me(RidgeMarginal.whittle(design, family), eta)
            b2 = kernel_me_regularized_ls(design, family, eta)
            rel = np.linalg.norm(b1.coeffs - b2.coeffs) / np.linalg.norm(b1.coeffs)
            assert rel <= 1e-8, (family, lam, beta, rel)

    def test_scale_equivariance(self, benchmark_series):
        # scaling the data by c scales the covariance by c^2 and the
        # preliminary coefficient by 1/c; the coefficients scale by 1/c, so
        # their prior variance (lambda) must be rescaled by 1/c^2
        c = 3.7
        N, n, lam, beta = benchmark_series.n_samples, 20, 0.8, 0.7

        def fit(samples, lam_value):
            y = TimeSeries(samples)
            b0 = preliminary_b0(y, 4)
            cov = ToeplitzCovariance(estimate_lags(y, n))
            design = WhittleDesign(cholesky(cov), b0, N)
            objective = RidgeMarginal.whittle(design, KernelFamily.TC)
            return kernel_me(objective, Hyperparameters(lam_value, beta))

        base = fit(benchmark_series.samples, lam)
        scaled = fit(c * benchmark_series.samples, lam / c**2)
        np.testing.assert_allclose(scaled.coeffs, base.coeffs / c, rtol=1e-10)

    def test_monotone_shrinkage_in_penalty_norm(self, benchmark_setup):
        _, cov, _, design = benchmark_setup
        beta = 0.8
        for family in KernelFamily:
            fac = inverse_factorization(KernelSpec(family, beta, cov.order + 1))
            norms = []
            for lam in np.logspace(-3, 3, 13):
                b = kernel_me(RidgeMarginal.whittle(design, family), Hyperparameters(lam, beta))
                w = fac.F.T @ b.coeffs
                norms.append(float(w @ (fac.d * w)))
            norms = np.array(norms)
            assert np.all(np.diff(norms) >= -1e-10 * norms[1:])


class TestKernelPem:
    def test_full_shrinkage_constant_predictor(self):
        rng = np.random.default_rng(2)
        y = TimeSeries(1.3 * rng.standard_normal(2000))
        n = 10
        objective = RidgeMarginal.regression(lagged_gram(y, n), 1.0, KernelFamily.DI)
        b = kernel_pem(y, objective, Hyperparameters(1e-12, 0.8))
        assert np.all(np.abs(b.coeffs[1:]) < 1e-8)
        _, target = lagged_design(y, n)
        assert abs(b.coeffs[0] - 1.0 / np.sqrt(np.mean(target**2))) < 1e-9

    def test_ar1_consistency_with_weak_penalty(self):
        y = ar_series([0.5], 10_000, 9)
        n = 5
        objective = RidgeMarginal.regression(lagged_gram(y, n), 1.0, KernelFamily.TC)
        b = kernel_pem(y, objective, Hyperparameters(1e6, 0.8))
        a1 = -b.coeffs[1] / b.coeffs[0]
        assert abs(a1 - 0.5) < 0.05

    def test_minimizes_its_own_objective(self, benchmark_setup):
        y, cov, _, design = benchmark_setup
        n = cov.order
        beta, lam = 0.85, 0.5
        spec = KernelSpec(KernelFamily.TC, beta, n + 1)
        eta = Hyperparameters(lam, beta)
        X, target = lagged_design(y, n)
        kbar_inv = np.linalg.inv(kernel_matrix(spec)[1:, 1:])

        def objective(a):
            r = target - X @ a
            return r @ r + (a @ kbar_inv @ a) / lam

        regression = RidgeMarginal.regression(lagged_gram(y, n), 1.0, KernelFamily.TC)
        b_pem = kernel_pem(y, regression, eta)
        a_pem = -b_pem.coeffs[1:] / b_pem.coeffs[0]
        b_me = kernel_me(RidgeMarginal.whittle(design, KernelFamily.TC), eta)
        a_me = -b_me.coeffs[1:] / b_me.coeffs[0]
        assert objective(a_pem) <= objective(a_me)

    def test_matches_dense_normal_equations_oracle(self, benchmark_series):
        # the weights do not depend on the b0 folded into the objective
        n = 12
        cases = [(0.4, 0.8, 1e-9)] + [(lam, beta, 1e-8) for lam, beta in BOX_CORNERS]
        for family, b0 in itertools.product(KernelFamily, (1e-3, 1.0, 1e3)):
            for lam, beta, tol in cases:
                spec = KernelSpec(family, beta, n + 1)
                gram = lagged_gram(benchmark_series, n)
                objective = RidgeMarginal.regression(gram, b0, family)
                b = kernel_pem(benchmark_series, objective, Hyperparameters(lam, beta))
                X, target = lagged_design(benchmark_series, n)
                kbar_inv = np.linalg.inv(kernel_matrix(spec)[1:, 1:])
                a = np.linalg.solve(X.T @ X + kbar_inv / lam, X.T @ target)
                resid = target - X @ a
                expected = np.concatenate(([1.0], -a)) / np.sqrt(np.mean(resid**2))
                rel = np.linalg.norm(b.coeffs - expected) / np.linalg.norm(expected)
                assert rel <= tol, (family, b0, lam, beta, rel)

    @pytest.mark.parametrize("family", list(KernelFamily))
    @pytest.mark.parametrize("lam", [1e-4, 1e4])
    @pytest.mark.parametrize("beta", [0.05, 0.95])
    def test_matches_dense_trailing_root_form(self, family, lam, beta, benchmark_series):
        # a = lam B (I + lam B^T X^T X B)^{-1} B^T X^T y with B B^T the
        # trailing kernel block, the form the marginal likelihood reduces
        n = 50
        gram = lagged_gram(benchmark_series, n)
        spec = KernelSpec(family, beta, n + 1)
        objective = RidgeMarginal.regression(gram, 1.0, family)
        b = kernel_pem(benchmark_series, objective, Hyperparameters(lam, beta))
        B = trailing_block_root(spec)
        M = np.eye(n) + lam * (B.T @ gram[1:, 1:] @ B)
        a = lam * (B @ np.linalg.solve(M, B.T @ gram[1:, 0]))
        X, target = lagged_design(benchmark_series, n)
        resid = target - X @ a
        expected = np.concatenate(([1.0], -a)) / np.sqrt(np.mean(resid**2))
        rel = np.linalg.norm(b.coeffs - expected) / np.linalg.norm(expected)
        assert rel <= 1e-10

    def test_each_solve_takes_only_its_own_routes_objective(self, benchmark_setup):
        y, _, _, design = benchmark_setup
        eta, b0 = Hyperparameters(1.0, 0.5), preliminary_b0(y, 4)
        whittle = RidgeMarginal.whittle(design, KernelFamily.TC)
        regression = RidgeMarginal.regression(lagged_gram(y, 50), b0, KernelFamily.TC)
        assert whittle.fold == 1.0 and regression.fold == b0
        with pytest.raises(InvalidDataError, match="kernel_pem needs a regression objective"):
            kernel_pem(y, whittle, eta)
        with pytest.raises(InvalidDataError, match="kernel_me needs a whittle objective"):
            kernel_me(regression, eta)

    def test_rejects_short_series(self):
        y = TimeSeries(np.arange(20.0))
        with pytest.raises(InvalidOrderError):
            objective = RidgeMarginal.regression(lagged_gram(y, 10), 1.0, KernelFamily.DI)
            kernel_pem(y, objective, Hyperparameters(1.0, 0.5))

    @pytest.mark.parametrize("N, n", [(10**5, 12), (75, 12), (76, 12), (77, 12), (500, 100)])
    def test_innovation_scale_matches_exactly_rounded_residuals(self, N, n):
        # N - n = 63, 64, 65 straddle one block of residuals; n = 100 needs
        # three block products
        y = generate(random_arma(np.random.SeedSequence([808, N, n])), N, 3)
        gram = lagged_gram(y, n)
        eta = Hyperparameters(1e3, 0.8)
        objective = RidgeMarginal.regression(gram, 1.0, KernelFamily.TC)
        b = kernel_pem(y, objective, eta)
        a = objective.posterior_mean(eta)
        resid = exact_residuals(y.samples, np.concatenate(([1.0], -a)))
        sigma_hat = np.sqrt(math.fsum((resid**2).tolist()) / resid.size)
        assert abs(1.0 / b.coeffs[0] - sigma_hat) <= 1e-12 * sigma_hat

    @pytest.mark.parametrize(
        "n, n_resid",
        [(n, r) for n in (0, 1, 12, 63, 64, 65, 100) for r in (1, 63, 64, 65) if n + r >= 2],
    )
    def test_block_residuals_match_exactly_rounded_ones(self, n, n_resid):
        rng = np.random.default_rng(n * 100 + n_resid)
        y = TimeSeries(rng.standard_normal(n + n_resid))
        predictor = np.concatenate(([1.0], 0.3 * rng.standard_normal(n)))
        resid = _residuals(y, predictor)
        exact = exact_residuals(y.samples, predictor)
        assert resid.shape == (n_resid,)
        windows = np.lib.stride_tricks.sliding_window_view(y.samples, n + 1)
        scale = np.abs(windows * predictor[::-1]).sum(axis=1)
        assert np.all(np.abs(resid - exact) <= 1e-14 * scale)

    def test_spike_beyond_one_block_leaves_all_zero_residuals(self):
        # only samples 0 and 70 of the first n = 100 are nonzero: every target
        # is 0, so the predictor and all residuals are 0
        y = np.zeros(500)
        y[0], y[70] = 1.0, -2.0
        y = TimeSeries(y)
        with pytest.raises(InvalidDataError, match="residuals are all zero"):
            objective = RidgeMarginal.regression(lagged_gram(y, 100), 1.0, KernelFamily.TC)
            kernel_pem(y, objective, Hyperparameters(1.0, 0.5))


def assert_gram_matches_dense(y, n):
    X, target = lagged_design(y, n)
    Z = np.column_stack((target, X))
    expected = Z.T @ Z
    gram = lagged_gram(y, n)
    assert gram.shape == (n + 1, n + 1)
    assert np.max(np.abs(gram - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestLaggedGram:
    @pytest.mark.parametrize(
        "N, n", [(3, 1), (11, 5), (101, 50), (500, 50), (10_000, 1)]
    )
    def test_matches_dense_gram(self, N, n):
        rng = np.random.default_rng(N + n)
        assert_gram_matches_dense(TimeSeries(rng.standard_normal(N)), n)

    def test_matches_dense_gram_with_large_mean(self):
        rng = np.random.default_rng(5)
        assert_gram_matches_dense(TimeSeries(1e3 + rng.standard_normal(500)), 50)

    @pytest.mark.parametrize("scale", [1e-50, 1e50])
    def test_matches_dense_gram_at_extreme_scale(self, scale, benchmark_series):
        assert_gram_matches_dense(TimeSeries(scale * benchmark_series.samples), 50)

    @pytest.mark.parametrize("N, n", [(20, 10), (10, 0)])
    def test_rejects_short_series_or_zero_order(self, N, n):
        with pytest.raises(InvalidOrderError):
            lagged_gram(TimeSeries(np.arange(float(N))), n)

    @pytest.mark.parametrize("series", ["benchmark", "nearly_predictable"])
    def test_kernel_pem_residual_matches_dense_design(self, series, benchmark_series):
        # the nearly predictable sinusoid has residuals ~1e-6 of its signal,
        # where y^T y - 2 a^T X^T y + a^T X^T X a would lose most digits
        if series == "benchmark":
            y = benchmark_series
        else:
            rng = np.random.default_rng(8)
            t = np.arange(2000)
            y = TimeSeries(np.sin(0.3 * t) + 1e-6 * rng.standard_normal(t.size))
        n = 12
        objective = RidgeMarginal.regression(lagged_gram(y, n), 1.0, KernelFamily.TC)
        b = kernel_pem(y, objective, Hyperparameters(1e3, 0.8))
        a = -b.coeffs[1:] / b.coeffs[0]
        X, target = lagged_design(y, n)
        resid = target - X @ a
        sigma_hat = np.sqrt(np.mean(resid**2))
        assert abs(1.0 / b.coeffs[0] - sigma_hat) <= 1e-9 * sigma_hat


class TestCheckMinPhase:
    def test_stable_linear_factor(self):
        ok, mod = check_min_phase(PredictorPolynomial(np.array([1.0, -0.5])))
        assert ok and abs(mod - 0.5) < 1e-15

    def test_unstable_linear_factor(self):
        ok, mod = check_min_phase(PredictorPolynomial(np.array([1.0, -2.0])))
        assert not ok and abs(mod - 2.0) < 1e-12

    def test_all_roots_at_origin(self):
        ok, mod = check_min_phase(PredictorPolynomial(np.array([1.0, 0.0, 0.0, 0.0])))
        assert ok and mod == 0.0

    def test_order_zero(self):
        ok, mod = check_min_phase(PredictorPolynomial(np.array([2.0])))
        assert ok and mod == 0.0

    def test_roots_computed_once_per_polynomial(self, monkeypatch):
        calls = []
        original = np.roots
        monkeypatch.setattr(np, "roots", lambda c: calls.append(1) or original(c))
        b = PredictorPolynomial(np.array([1.0, -0.9, 0.2]))
        assert check_min_phase(b) == check_min_phase(b)
        eval_spectrum(SpectrumModel(b), 64)
        assert len(calls) == 1
        np.testing.assert_allclose(np.sort_complex(b.roots), [0.4, 0.5], rtol=1e-12)

    def test_coefficients_are_a_read_only_copy(self):
        source = np.array([1.0, -0.5])
        b = PredictorPolynomial(source)
        source[1] = -2.0
        assert b.coeffs[1] == -0.5
        assert check_min_phase(b) == (True, 0.5)
        with pytest.raises(ValueError):
            b.coeffs[1] = -2.0

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(InvalidDataError):
            PredictorPolynomial(np.array([0.0, 1.0]))
        with pytest.raises(InvalidDataError):
            PredictorPolynomial(np.zeros(3))


class TestEstimateResult:
    def test_root_check_runs_on_construction(self):
        result = EstimateResult(PredictorPolynomial([1.0, -2.0]), None, 1.0, Method.ME)
        assert result.min_phase_verified is False
        assert result.max_root_modulus == 2.0

    def test_root_check_is_not_an_argument(self):
        with pytest.raises(TypeError):
            EstimateResult(
                PredictorPolynomial([1.0, -0.5]), None, 1.0, Method.ME, min_phase_verified=True
            )
