import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from kmaxent import hyperopt
from kmaxent.covariance import (
    CholeskyFactor,
    TimeSeries,
    ToeplitzCovariance,
    cholesky,
    estimate_lags,
)
from kmaxent.diagnostics import degrees_of_freedom, shrinkage_df
from kmaxent.errors import (
    InvalidOrderError,
    KmaxentError,
    NotPositiveDefiniteError,
    PipelineError,
)
from kmaxent.estimators import (
    Method,
    WhittleDesign,
    kernel_me,
    kernel_pem,
    lagged_gram,
    preliminary_b0,
)
from kmaxent.harness import ExperimentConfig, estimate_file, fit_method
from kmaxent.hyperopt import (
    PipelineConfig,
    RidgeMarginal,
    neg_log_marginal,
    optimize_hyperparameters,
    run_pem_pipeline,
    run_pipeline,
)
from kmaxent.kernels import Hyperparameters, KernelFamily, KernelSpec
from kmaxent.simulate import benchmark_arma, generate
from oracles import (
    MarginalObjective,
    cholesky_neg_log_marginal,
    dense_degrees_of_freedom,
    kernel_matrix,
    lagged_design,
    reference_search,
    scipy_bounded_brent,
    trailing_block_root,
)

GRID_LAMS = np.array([10.0**lg for lg in np.linspace(-4, 4, 17)])
GRID_BETAS = np.linspace(0.05, 0.95, 10)


def whittle_objective(y, n, family, low_order=4):
    b0 = preliminary_b0(y, low_order)
    cov = ToeplitzCovariance(estimate_lags(y, n))
    design = WhittleDesign(cholesky(cov), b0, y.n_samples)
    return MarginalObjective(design=design, kernel_family=family, N=y.n_samples, n=n)


def small_objective(seed=3, N=30, n=2, family=KernelFamily.TC):
    y = TimeSeries(np.random.default_rng(seed).standard_normal(N))
    return whittle_objective(y, n, family, low_order=1)


def dense_neg_log_marginal(obj, eta):
    """Independent dense reimplementation: explicit kernel inversion and
    determinants via slogdet."""
    spec = KernelSpec(obj.kernel_family, eta.beta, obj.n + 1)
    K = kernel_matrix(spec)
    phi, vt = obj.design.phi_data, obj.design.v_tilde
    H = phi.T @ phi + np.linalg.inv(K) / eta.lam
    log_det = np.linalg.slogdet(H)[1] + np.linalg.slogdet(eta.lam * K)[1]
    M = eta.lam * phi @ K @ phi.T + np.eye(obj.n + 1)
    quad = vt @ np.linalg.inv(M) @ vt
    return 0.5 * (log_det + quad)


def regression_objective(y, n, rows, b0, family):
    X, target = lagged_design(y, n)
    X, target = X[:rows], target[:rows]
    Z = np.column_stack((target, X))
    obj = RidgeMarginal.regression(Z.T @ Z, b0, family)
    return obj, X, target


def dense_regression_neg_log(X, target, b0, obj, eta):
    """-log N(y; 0, lam*sigma^2*X Kbar X^T + sigma^2 I) with dense slogdet and
    inverse, sigma^2 = 1/b0^2, dropping the (m/2) log sigma^2 constant that
    the ridge marginal omits."""
    sigma2 = 1.0 / b0**2
    m = target.size
    kbar = kernel_matrix(KernelSpec(obj.family, eta.beta, obj.size))[1:, 1:]
    C = eta.lam * sigma2 * (X @ kbar @ X.T) + sigma2 * np.eye(m)
    dense = 0.5 * (np.linalg.slogdet(C)[1] + target @ np.linalg.inv(C) @ target)
    return dense - 0.5 * m * np.log(sigma2)


class TestNegLogMarginal:
    def test_lambda_zero_limit(self, benchmark_setup):
        _, _, _, design = benchmark_setup
        obj = RidgeMarginal.whittle(design, KernelFamily.TC)
        value = neg_log_marginal(obj, Hyperparameters(1e-15, 0.5))
        assert abs(value - 0.5 * design.v_tilde @ design.v_tilde) <= 1e-8

    def test_log_det_forms_agree(self):
        # 0.5 logdet(Phi^T Phi + K^{-1}/lam) + 0.5 logdet(lam K)
        #   == 0.5 logdet(lam Phi K Phi^T + I) for square invertible Phi
        rng = np.random.default_rng(8)
        for n in (2, 4, 8):
            phi = rng.standard_normal((n + 1, n + 1)) + 3.0 * np.eye(n + 1)
            for family in KernelFamily:
                for lam, beta in ((0.2, 0.3), (5.0, 0.8), (1.0, 0.6)):
                    K = kernel_matrix(KernelSpec(family, beta, n + 1))
                    lhs = 0.5 * (
                        np.linalg.slogdet(phi.T @ phi + np.linalg.inv(K) / lam)[1]
                        + np.linalg.slogdet(lam * K)[1]
                    )
                    rhs = 0.5 * np.linalg.slogdet(lam * phi @ K @ phi.T + np.eye(n + 1))[1]
                    assert abs(lhs - rhs) <= 1e-8

    def test_matches_dense_reimplementation(self):
        obj = small_objective(seed=4, N=60, n=10)
        for lam in (0.01, 1.0, 100.0):
            for beta in (0.3, 0.6, 0.9):
                eta = Hyperparameters(lam, beta)
                fast = neg_log_marginal(obj, eta)
                dense = dense_neg_log_marginal(obj, eta)
                assert abs(fast - dense) <= 1e-6 * max(1.0, abs(dense))

    def test_matches_gaussian_integral_quadrature(self):
        # -log integral exp(-joint(b)) db over R^3, by tensor-grid trapezoid,
        # must equal the closed form up to a constant independent of eta
        obj = small_objective()
        diffs = []
        for lam, beta in ((0.7, 0.6), (2.5, 0.3), (0.2, 0.85)):
            eta = Hyperparameters(lam, beta)
            diffs.append(neg_log_marginal(obj, eta) - _quadrature_neg_log(obj, eta))
        assert np.ptp(diffs) <= 1e-3

    def test_regression_objective_finite_at_extremes(self, benchmark_series):
        # the public point score runs the search's eigenvalue path and must
        # agree with the Cholesky oracle
        for family in KernelFamily:
            obj, _, _ = regression_objective(benchmark_series, 20, None, 0.5, family)
            for lam in (1e-10, 1.0, 1e10):
                for beta in (1e-9, 0.5, 1.0 - 1e-12):
                    eta = Hyperparameters(lam, beta)
                    value = neg_log_marginal(obj, eta)
                    assert np.isfinite(value)
                    expected = cholesky_neg_log_marginal(obj, eta)
                    assert abs(value - expected) <= 1e-13 * abs(expected)

    def test_regression_objective_matches_dense_gaussian_density(self, benchmark_series):
        obj, X, target = regression_objective(benchmark_series, 8, 60, 0.73, KernelFamily.TC)
        for lam, beta in ((0.05, 0.3), (1.0, 0.85), (30.0, 0.6)):
            eta = Hyperparameters(lam, beta)
            expected = dense_regression_neg_log(X, target, 0.73, obj, eta)
            got = neg_log_marginal(obj, eta)
            assert abs(got - expected) <= 1e-8 * max(1.0, abs(expected))


class TestRidgeMarginalCore:
    """Profile grid values and the Cholesky and dense oracles agree on both routes."""

    LAMS = (1e-4, 1.0, 1e4)
    BETAS = (0.05, 0.5, 0.95)

    def objectives(self, family, benchmark_series):
        me = small_objective(seed=5, N=80, n=4, family=family)
        pem, X, target = regression_objective(benchmark_series, 4, 60, 0.73, family)
        return [
            (me.core, lambda eta: dense_neg_log_marginal(me, eta)),
            (pem, lambda eta: dense_regression_neg_log(X, target, 0.73, pem, eta)),
        ]

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_grid_values_match_evaluate_and_dense_oracle(self, family, benchmark_series):
        for obj, dense in self.objectives(family, benchmark_series):
            grid = obj.profile(np.array(self.LAMS), np.array(self.BETAS))[0]
            assert grid.shape == (3, 3)
            for i, lam in enumerate(self.LAMS):
                for j, beta in enumerate(self.BETAS):
                    eta = Hyperparameters(lam, beta)
                    for other in (cholesky_neg_log_marginal(obj, eta), dense(eta)):
                        assert abs(grid[i, j] - other) <= 1e-8 * max(1.0, abs(other))

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_profile_polish_beats_a_dense_lambda_scan(self, family, benchmark_setup):
        # the polished lambda of each beta is checked against a 2001-point scan
        # of ln lambda over its grid bracket, scored by Cholesky
        _, _, _, design = benchmark_setup
        obj = RidgeMarginal.whittle(design, family)
        lams = np.array([10.0**lg for lg in np.linspace(-4, 4, 17)])
        betas = [0.3, 0.7, 0.9]
        values, lam_star, value_star, _ = obj.profile(lams, betas)
        for j, beta in enumerate(betas):
            i = int(np.argmin(values[:, j]))
            lo, hi = lams[max(i - 1, 0)], lams[min(i + 1, 16)]
            assert lo <= lam_star[j] <= hi
            scan = min(
                cholesky_neg_log_marginal(obj, Hyperparameters(float(lam), beta))
                for lam in np.exp(np.linspace(np.log(lo), np.log(hi), 2001))
            )
            tol = 1e-12 * max(1.0, abs(scan))
            assert value_star[j] <= scan + tol
            exact = cholesky_neg_log_marginal(obj, Hyperparameters(float(lam_star[j]), beta))
            assert abs(value_star[j] - exact) <= 1e-10 * max(1.0, abs(exact))

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_whittle_is_the_constructor_on_the_design_gram(self, family, benchmark_setup):
        _, cov, _, design = benchmark_setup
        n = cov.order
        moment = np.zeros(n + 1)
        moment[0] = design.n_eff / design.b0_prelim
        target = design.v_tilde @ design.v_tilde
        direct = RidgeMarginal(design.n_eff * cov.matrix, moment, target, family, n + 1)
        whittle = RidgeMarginal.whittle(design, family)
        for f in dataclasses.fields(RidgeMarginal):
            a, b = getattr(direct, f.name), getattr(whittle, f.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name

    def test_keeps_read_only_copies_of_the_gram(self, benchmark_series):
        # the di reduced Gram is the gram[1:, 1:] block, which must not alias
        # the caller's matrix
        gram = lagged_gram(benchmark_series, 10)
        obj = RidgeMarginal.regression(gram, preliminary_b0(benchmark_series), KernelFamily.DI)
        before = obj.profile(GRID_LAMS, GRID_BETAS)
        gram[1, 1] = gram[1, 0] = 1e9
        for old, new in zip(before, obj.profile(GRID_LAMS, GRID_BETAS)):
            assert np.array_equal(old, new)
        for kept in (obj.reduced_gram, obj.reduced_moment):
            with pytest.raises(ValueError):
                kept[0] = 0.0

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_pem_df_matches_dense_trailing_root(self, family, benchmark_series):
        result = run_pem_pipeline(benchmark_series, 50, family)
        X, _ = lagged_design(benchmark_series, 50)
        B = trailing_block_root(KernelSpec(family, result.eta_hat.beta, 51))
        expected = shrinkage_df(np.linalg.eigvalsh(B.T @ (X.T @ X) @ B), result.eta_hat.lam)
        assert abs(result.df - expected) <= 1e-9 * expected

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_me_df_matches_dense_degrees_of_freedom(self, family, benchmark_setup):
        y, cov, _, _ = benchmark_setup
        result = run_pipeline(y, 50, family)
        expected = dense_degrees_of_freedom(cov, family, result.eta_hat, y.n_samples)
        assert abs(result.df - expected) <= 1e-12 * expected


def _quadrature_neg_log(obj, eta):
    spec = KernelSpec(obj.kernel_family, eta.beta, obj.n + 1)
    K = kernel_matrix(spec)
    K_inv = np.linalg.inv(K)
    phi, vt = obj.design.phi_data, obj.design.v_tilde
    log_det_prior = np.linalg.slogdet(eta.lam * K)[1]

    def joint(b):
        r = vt - b @ phi.T
        quad_prior = np.einsum("...i,ij,...j->...", b, K_inv, b) / eta.lam
        return 0.5 * np.einsum("...i,...i->...", r, r) + 0.5 * log_det_prior + 0.5 * quad_prior

    H = phi.T @ phi + K_inv / eta.lam
    b_star = np.linalg.solve(H, phi.T @ vt)
    sd = np.sqrt(np.diag(np.linalg.inv(H)))
    axes = [np.linspace(b_star[i] - 8 * sd[i], b_star[i] + 8 * sd[i], 121) for i in range(3)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    values = np.exp(-(joint(mesh) - joint(b_star)))
    integral = values
    for axis in reversed(axes):
        integral = np.trapezoid(integral, axis, axis=-1)
    return float(joint(b_star) - np.log(integral))


class _Bowl:
    """Test seam: quadratic bowl in (log lambda, logit beta)."""

    def evaluate(self, eta):
        return self.grid_values(np.array([eta.lam]), np.array([eta.beta]))[0, 0]

    def grid_values(self, lams, betas):
        u = np.log(lams)[:, None]
        betas = np.asarray(betas)
        t = (np.log(betas) - np.log1p(-betas))[None, :]
        return u**2 + t**2

    def profile(self, lams, betas):
        # every beta's profile is minimized at lambda = 1, clipped to the box,
        # and its slope in beta is d(t^2)/dbeta = 2t / (beta (1 - beta))
        best = np.full(len(betas), np.clip(1.0, lams[0], lams[-1]))
        betas = np.asarray(betas)
        slope = 2.0 * (np.log(betas) - np.log1p(-betas)) / (betas * (1.0 - betas))
        return self.grid_values(lams, betas), best, self.grid_values(best[:1], betas)[0], slope


class TestOptimizeHyperparameters:
    def test_quadratic_bowl_recovers_optimum(self):
        result = optimize_hyperparameters(_Bowl())
        assert abs(result.eta_hat.lam - 1.0) <= 1e-4
        assert abs(result.eta_hat.beta - 0.5) <= 1e-4
        assert result.objective_value <= 1e-8

    def test_trace_starts_with_grid_in_lambda_outer_beta_inner_order(self):
        result = optimize_hyperparameters(_Bowl())
        expected = [
            (10.0**lg, beta) for lg in np.linspace(-4, 4, 17) for beta in np.linspace(0.05, 0.95, 10)
        ]
        grid = result.trace[:170]
        np.testing.assert_allclose([e[:2] for e in grid], expected, rtol=1e-15)
        assert [e[2] for e in grid] == [
            _Bowl().evaluate(Hyperparameters(lam, beta)) for lam, beta, _ in grid
        ]
        assert len(result.trace) > 170

    def test_never_worse_than_best_grid_point(self, benchmark_setup):
        _, _, _, design = benchmark_setup
        obj = RidgeMarginal.whittle(design, KernelFamily.TC)
        result = optimize_hyperparameters(obj)
        # independent recomputation of every stage-1 grid value
        grid_best = min(
            cholesky_neg_log_marginal(obj, Hyperparameters(10.0**lg, float(beta)))
            for lg in np.linspace(-4, 4, 17)
            for beta in np.linspace(0.05, 0.95, 10)
        )
        assert result.objective_value <= grid_best + 1e-12

    def test_eta_attains_trace_minimum(self, benchmark_setup):
        _, _, _, design = benchmark_setup
        obj = RidgeMarginal.whittle(design, KernelFamily.DI)
        result = optimize_hyperparameters(obj)
        values = [entry[2] for entry in result.trace]
        assert result.objective_value == min(values)
        hit = [e for e in result.trace if e[2] == result.objective_value][0]
        assert (result.eta_hat.lam, result.eta_hat.beta) == (hit[0], hit[1])


KERNEL_METHODS = [Method.ME_DI, Method.ME_TC, Method.PEM_DI, Method.PEM_TC]


def kernel_objective(method, benchmark_setup):
    """The search objective of a kernel method on the benchmark fixture, n = 50."""
    y, _, _, design = benchmark_setup
    route, family = method.value.split("-")
    if route == "me":
        return RidgeMarginal.whittle(design, KernelFamily(family))
    gram = lagged_gram(y, 50)
    return RidgeMarginal.regression(gram, preliminary_b0(y, 4), KernelFamily(family))


class TestBoundedBrent:
    """scipy's bounded Brent search, the reference of the slope-guided search,
    scores the same lambda-profiled likelihood as the library's search."""

    @pytest.mark.parametrize("method", KERNEL_METHODS)
    def test_same_evaluations_as_scipy_on_the_profiled_likelihood(self, method, benchmark_setup):
        # scipy profiles one beta at a time; one batched profile of all the
        # betas it tried gives the same values, and the library's search ends
        # no higher than the lowest of them
        obj = kernel_objective(method, benchmark_setup)
        calls = []

        def profiled(beta):
            calls.append((float(beta), float(obj.profile(hyperopt._LAMS, [float(beta)])[2][0])))
            return calls[-1][1]

        scipy_bounded_brent(profiled, 0.05, 0.95, hyperopt._BETA_TOL)
        assert len(calls) > 5
        betas, values = zip(*calls)
        np.testing.assert_allclose(obj.profile(hyperopt._LAMS, list(betas))[2], values, rtol=1e-12)
        best = min(values)
        assert optimize_hyperparameters(obj).objective_value <= best + 1e-9 * abs(best)


class TestSlopeGuidedSearch:
    """The beta slope of ``profile`` and the refinement built on it."""

    @pytest.mark.parametrize("family", list(KernelFamily))
    @pytest.mark.parametrize("route", ["whittle", "regression"])
    @pytest.mark.parametrize("beta", [0.2, 0.5, 0.9])
    def test_slope_matches_a_central_difference(self, family, route, beta, benchmark_setup):
        method = Method(f"{'me' if route == 'whittle' else 'pem'}-{family.value}")
        obj = kernel_objective(method, benchmark_setup)
        h = 1e-6
        slope = obj.profile(GRID_LAMS, [beta])[3][0]
        above, below = (obj.profile(GRID_LAMS, [beta + sign * h])[2][0] for sign in (1, -1))
        difference = (above - below) / (2.0 * h)
        assert abs(slope - difference) <= 1e-6 * abs(difference)

    @pytest.mark.parametrize(
        "method, seed",
        [(method, None) for method in KERNEL_METHODS] + [(Method.ME_TC, s) for s in range(4)],
    )
    def test_agrees_with_the_scipy_brent_reference(self, method, seed, benchmark_setup):
        if seed is None:
            obj = kernel_objective(method, benchmark_setup)
        else:
            y = TimeSeries(np.random.default_rng(seed).standard_normal(500))
            obj = whittle_objective(y, 50, KernelFamily.TC).core
        result = optimize_hyperparameters(obj)
        _, ref_beta, ref_value = reference_search(obj)
        assert abs(result.eta_hat.beta - ref_beta) <= 1e-6
        assert result.objective_value <= ref_value + 1e-9 * abs(ref_value)

    @pytest.mark.parametrize("on_grid", [True, False])
    def test_non_finite_slope_ends_the_search(self, on_grid):
        # a NaN slope on the grid stops the search there; one at the first
        # refinement point stops it after that point
        class NanSlope(_Bowl):
            def profile(self, lams, betas):
                *head, slope = super().profile(lams, betas)
                nan = on_grid or len(betas) == 1
                return (*head, np.full_like(slope, np.nan) if nan else slope)

        result = optimize_hyperparameters(NanSlope())
        assert len(result.trace) == 170 + 10 + (0 if on_grid else 1)
        assert result.objective_value == min(entry[2] for entry in result.trace)

    @pytest.mark.parametrize("method", KERNEL_METHODS)
    def test_eigendecompositions_per_search(self, method, benchmark_setup, monkeypatch):
        obj = kernel_objective(method, benchmark_setup)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(1) or eigh(A))
        optimize_hyperparameters(obj)
        assert 10 < len(calls) <= 18


class TestRunPipeline:
    def test_deterministic(self, benchmark_series):
        first = run_pipeline(benchmark_series, 50, KernelFamily.TC)
        second = run_pipeline(benchmark_series, 50, KernelFamily.TC)
        assert np.array_equal(first.b_hat.coeffs, second.b_hat.coeffs)
        assert first.eta_hat == second.eta_hat
        assert first.df == second.df
        assert first.min_phase_verified == second.min_phase_verified
        assert first.max_root_modulus == second.max_root_modulus

    def test_fixture_is_min_phase(self, benchmark_series):
        result = run_pipeline(benchmark_series, 50, KernelFamily.TC)
        assert result.min_phase_verified
        assert result.max_root_modulus < 1.0
        assert result.method_tag is Method.ME_TC
        assert result.jitter_used == 0.0

    def test_rejects_n_equal_to_N(self):
        y = TimeSeries(np.arange(40.0))
        with pytest.raises(InvalidOrderError):
            run_pipeline(y, 40, KernelFamily.DI)

    def test_step_attribution_on_failure(self):
        # an all-zero series has a zero lag matrix, which fails in the very
        # first (preliminary estimate) solve; the step must be named
        y = TimeSeries(np.zeros(50))
        with pytest.raises(PipelineError) as exc_info:
            run_pipeline(y, 10, KernelFamily.DI)
        assert exc_info.value.step == "preliminary_b0"

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_coefficients_are_the_public_steps(self, family, benchmark_setup):
        # each pipeline's coefficients are its public solve step at eta_hat
        y, _, _, design = benchmark_setup
        me = run_pipeline(y, 50, family)
        assert me.jitter_used == 0.0  # so the fixture's design is the pipeline's
        expected = kernel_me(design, family, me.eta_hat)
        assert np.array_equal(me.b_hat.coeffs, expected.coeffs)
        pem = run_pem_pipeline(y, 50, family)
        expected = kernel_pem(y, lagged_gram(y, 50), family, pem.eta_hat)
        assert np.array_equal(pem.b_hat.coeffs, expected.coeffs)

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_jitter_moves_r0_for_the_solve_and_the_df(self, family, benchmark_series, monkeypatch):
        # a factorization that needed jitter eps carries the Toeplitz matrix
        # of the lags with r_0 + eps, which the solve and the df use
        y, n = benchmark_series, 50
        eps = 1e-3 * estimate_lags(y, n)[0]
        factors = []

        def jittered(cov):
            repaired = ToeplitzCovariance(np.concatenate(([cov.lags[0] + eps], cov.lags[1:])))
            factors.append(CholeskyFactor(repaired, eps))
            return factors[-1]

        monkeypatch.setattr(hyperopt, "cholesky", jittered)
        result = run_pipeline(y, n, family)
        (factor,) = factors
        assert result.jitter_used == eps
        design = WhittleDesign(factor, preliminary_b0(y, 4), y.n_samples)
        expected = kernel_me(design, family, result.eta_hat)
        assert np.array_equal(result.b_hat.coeffs, expected.coeffs)
        assert result.df == degrees_of_freedom(factor.cov, family, result.eta_hat, y.n_samples)

    @pytest.mark.parametrize("method", KERNEL_METHODS)
    def test_pipeline_runs_and_tags(self, method, benchmark_series):
        route, family = method.value.split("-")
        pipeline = run_pipeline if route == "me" else run_pem_pipeline
        result = pipeline(benchmark_series, 50, KernelFamily(family))
        assert result.method_tag is method
        assert result.eta_hat is not None
        assert 0.0 <= result.df <= (51.0 if route == "me" else 50.0)

    def test_pem_pipeline_rejects_short_series(self):
        y = TimeSeries(np.arange(60.0))
        with pytest.raises(InvalidOrderError):
            run_pem_pipeline(y, 30, KernelFamily.DI)

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_pem_pipeline_memory_is_linear_in_n_samples(self, family):
        # numpy reports its buffers to tracemalloc; an N x n lagged design at
        # N = 2e5, n = 50 alone would be 80 MB, the series itself is 1.6 MB
        y = generate(benchmark_arma(), 200_000, 7)
        tracemalloc.start()
        try:
            run_pem_pipeline(y, 50, family)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6


@pytest.mark.parametrize("seed", [0, 2, 3])
def test_white_noise_me_tc_fit_is_minimum_phase(seed):
    y = TimeSeries(np.random.default_rng(seed).standard_normal(500))
    result = fit_method(Method.ME_TC, y, ExperimentConfig())
    assert result.min_phase_verified


def unit_spike():
    y = np.zeros(300)
    y[150] = 1.0
    return TimeSeries(y)


@pytest.mark.parametrize("method", list(Method))
def test_unit_spike_fits_every_method(method):
    # an unbounded search follows the spike's flat likelihood ridge out of the
    # box until the coefficient solve overflows
    result = fit_method(method, unit_spike(), ExperimentConfig(n=20))
    assert np.all(np.isfinite(result.b_hat.coeffs))
    if result.eta_hat is not None:
        assert 1e-4 <= result.eta_hat.lam <= 1e4 and 0.05 <= result.eta_hat.beta <= 0.95
    if method in (Method.ME, Method.ME_DI, Method.ME_TC):
        assert result.min_phase_verified


@pytest.mark.parametrize("scale", [1e152, 10**152.5])
@pytest.mark.parametrize("method", list(Method))
def test_overflowing_scale_fits_or_raises_a_named_error(method, scale):
    # the Gram is finite at these scales, but the tc reduced form S^T G S
    # overflows, which made eigh raise numpy's LinAlgError
    y = TimeSeries(generate(benchmark_arma(), 500, 1).samples * scale)
    try:
        result = fit_method(method, y, ExperimentConfig())
    except KmaxentError:
        return
    assert np.all(np.isfinite(result.b_hat.coeffs))


@pytest.mark.parametrize("method", list(Method))
def test_scale_1e150_fits_without_numpy_warnings(method):
    # the grid is finite at this scale while lam * u2 * d * d of the Newton
    # polish overflows for me-tc, pem-di and pem-tc
    y = TimeSeries(generate(benchmark_arma(), 500, 1).samples * 1e150)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = fit_method(method, y, ExperimentConfig())
    assert np.all(np.isfinite(result.b_hat.coeffs))
    if method in (Method.ME, Method.ME_DI, Method.ME_TC):
        assert result.min_phase_verified


@pytest.mark.parametrize("scale", [1e153, 1e200])
@pytest.mark.parametrize("method", list(Method))
def test_overflowing_lags_are_a_named_error_without_numpy_warnings(method, scale):
    # the lag sums overflow; the error has to come before the PEM routes
    # subtract the edge rows from a non-finite Gram
    y = TimeSeries(generate(benchmark_arma(), 500, 1).samples * scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KmaxentError, match="lags contain non-finite values"):
            fit_method(method, y, ExperimentConfig())


@pytest.mark.parametrize("method", KERNEL_METHODS)
def test_overflowing_lags_name_the_preliminary_b0_step(method):
    # both kernel routes compute b0 first, so PEM names the same step as ME
    y = TimeSeries(generate(benchmark_arma(), 500, 1).samples * 1e153)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PipelineError) as exc_info:
            fit_method(method, y, ExperimentConfig())
    assert exc_info.value.step == "preliminary_b0"


@pytest.mark.parametrize("scale", [0.0, 1e-200, 1e-300])
@pytest.mark.parametrize("method", list(Method))
def test_zero_variance_is_a_named_error_before_any_factorization(method, scale):
    # an all-zero series, or one whose squares underflow, has r_0 = 0: the
    # error names it before any Cholesky factorization can fail
    y = np.zeros(500) if scale == 0.0 else generate(benchmark_arma(), 500, 1).samples * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KmaxentError, match="zero variance") as exc_info:
            fit_method(method, TimeSeries(y), ExperimentConfig())
    error = exc_info.value
    if method is not Method.ME:
        assert error.step == "preliminary_b0"
        error = error.__cause__
    assert isinstance(error, NotPositiveDefiniteError)
    assert str(error) == "series has zero variance (r_0 = 0)"


@pytest.mark.parametrize("method", list(Method))
def test_overflowing_yule_walker_solve_is_a_named_error_without_numpy_warnings(method):
    # the order-1 solve overflows to inf; the finite check of the coefficients
    # names it, and a / sqrt(a_0) must not warn on inf / inf first
    y = TimeSeries(np.random.default_rng(3).standard_normal(10) * 1e-160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KmaxentError, match="coefficients contain non-finite values") as info:
            fit_method(method, y, ExperimentConfig(N=10, n=1, low_order=1))
    if method is not Method.ME:
        assert info.value.step == "preliminary_b0"


@pytest.mark.parametrize("method", list(Method))
def test_spike_before_the_residual_window_is_a_named_pem_error(method):
    # every PEM target after the first n samples is 0, so the fitted predictor
    # is 0 and so is every residual
    y = np.zeros(500)
    y[0] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if method in (Method.PEM_DI, Method.PEM_TC):
            with pytest.raises(PipelineError, match="residuals are all zero") as exc_info:
                fit_method(method, TimeSeries(y), ExperimentConfig())
            assert exc_info.value.step == "kernel_pem"
        else:
            assert fit_method(method, TimeSeries(y), ExperimentConfig()).min_phase_verified


@pytest.mark.parametrize(
    "method, scale",
    [(method, 10**150.5) for method in KERNEL_METHODS]
    + [(Method.ME_DI, 1e152), (Method.PEM_DI, 1e152)],
)
def test_non_finite_likelihood_is_a_named_error(method, scale):
    # the Gram and its reduced form are finite, but the likelihood overflows
    # on part of the grid; a minimum over such a trace is a box-corner fit.
    # The overflow is caught on the grid, before numpy warns or the polish runs
    y = TimeSeries(generate(benchmark_arma(), 500, 1).samples * scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PipelineError) as exc_info:
            fit_method(method, y, ExperimentConfig())
    assert exc_info.value.step == "hyperparameters"


@pytest.mark.parametrize("family", list(KernelFamily))
def test_regression_profile_is_finite_at_scale_1e100(family):
    # the precision b0^2 has to enter through the moment and the target:
    # (Q^T X^T y)^2 of the unscaled moment overflows at this scale
    y = TimeSeries(generate(benchmark_arma(), 500, 1).samples * 1e100)
    gram = lagged_gram(y, 50)
    obj = RidgeMarginal.regression(gram, preliminary_b0(y, 4), family)
    values, lam_star, value_star, _ = obj.profile(GRID_LAMS, GRID_BETAS)
    assert values.shape == (17, 10)
    assert np.isfinite(values).all()
    assert np.isfinite(lam_star).all() and np.isfinite(value_star).all()


def test_white_noise_hyperparameters_stay_in_the_box_as_plain_floats():
    kernel_methods = (Method.ME_DI, Method.ME_TC, Method.PEM_DI, Method.PEM_TC)
    for seed in range(40):
        y = TimeSeries(np.random.default_rng(seed).standard_normal(500))
        for method in kernel_methods:
            eta = fit_method(method, y, ExperimentConfig()).eta_hat
            assert 1e-4 <= eta.lam <= 1e4 and 0.05 <= eta.beta <= 0.95, (seed, method, eta)
            assert type(eta.lam) is float and type(eta.beta) is float, (seed, method, eta)


class TestBoxEdge:
    def test_spike_optimum_sits_on_the_beta_edge(self):
        obj = whittle_objective(unit_spike(), 20, KernelFamily.TC)
        result = optimize_hyperparameters(obj)
        assert result.eta_hat.beta == 0.05
        assert result.beta_on_edge

    def test_interior_optimum_is_off_both_edges(self):
        result = optimize_hyperparameters(_Bowl())
        assert not result.lambda_on_edge
        assert not result.beta_on_edge

    def test_edge_flags_are_not_written_to_the_default_outputs(self, tmp_path):
        path = tmp_path / "spike.csv"
        path.write_text("".join(f"{v!r}\n" for v in unit_spike().samples.tolist()))
        out = tmp_path / "out"
        estimate_file(ExperimentConfig(n=20, output_path=str(out)), str(path))
        for written in out.iterdir():
            assert "on_edge" not in written.read_text(), written.name


def test_trace_starts_with_exactly_the_profiled_grid(benchmark_setup):
    _, _, _, design = benchmark_setup
    obj = RidgeMarginal.whittle(design, KernelFamily.TC)
    result = optimize_hyperparameters(obj)
    expected = obj.profile(GRID_LAMS, GRID_BETAS)[0]
    grid = result.trace[:170]
    np.testing.assert_allclose(
        [e[:2] for e in grid],
        [(lam, beta) for lam in GRID_LAMS for beta in GRID_BETAS],
        rtol=1e-15,
    )
    assert [e[2] for e in grid] == expected.ravel().tolist()


def test_pipeline_config_is_the_fixed_box_with_no_settable_field():
    config = PipelineConfig()
    assert dataclasses.fields(config) == ()
    box = {
        "log10_lambda_min": -4.0, "log10_lambda_max": 4.0, "log10_lambda_step": 0.5,
        "beta_min": 0.05, "beta_max": 0.95, "beta_step": 0.1,
    }
    assert {name: getattr(config, name) for name in box} == box
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.low_order = 2
