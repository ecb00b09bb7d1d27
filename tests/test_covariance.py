import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmaxent.covariance import (
    CholeskyFactor,
    TimeSeries,
    ToeplitzCovariance,
    cholesky,
    estimate_lags,
    factorizations,
)
from kmaxent.errors import InvalidDataError, InvalidOrderError, NotPositiveDefiniteError
from kmaxent.estimators import Method, lagged_gram
from kmaxent.harness import ExperimentConfig, fit_method
from kmaxent.simulate import benchmark_arma, generate

from conftest import naive_lags


def ar2_lag_sequence(a1, a2, n, sigma2=1.0):
    """Exact autocovariance of an AR(2) process (oracle via the YW recursion)."""
    # stationary (r0, r1, r2) from the moment equations, then the recursion
    M = np.array(
        [
            [1.0, -a1, -a2],
            [-a1, 1.0 - a2, 0.0],
            [-a2, -a1, 1.0],
        ]
    )
    r0, r1, r2 = np.linalg.solve(M, np.array([sigma2, 0.0, 0.0]))
    r = np.zeros(n + 1)
    r[0], r[1], r[2] = r0, r1, r2
    for k in range(3, n + 1):
        r[k] = a1 * r[k - 1] + a2 * r[k - 2]
    return r


class TestEstimateLags:
    def test_constant_series(self):
        c, N, n = 1.5, 10, 4
        lags = estimate_lags(TimeSeries(np.full(N, c)), n)
        expected = c**2 * (N - np.arange(n + 1)) / N
        np.testing.assert_allclose(lags, expected, rtol=1e-15)

    def test_alternating_series(self):
        lags = estimate_lags(TimeSeries(np.array([1.0, -1.0, 1.0, -1.0])), 1)
        np.testing.assert_allclose(lags, [1.0, -0.75], rtol=0, atol=0)

    def test_matches_naive_double_loop(self, benchmark_series):
        lags = estimate_lags(benchmark_series, 50)
        oracle = naive_lags(benchmark_series.samples, 50)
        np.testing.assert_allclose(lags, oracle, rtol=1e-12)

    def test_lags_are_the_kept_lag_sums_divided_by_n(self, benchmark_series):
        # the lag sums are shared with the predictor Gram; the divided lags
        # must stay bitwise those sums divided by N
        s, N = benchmark_series.samples, benchmark_series.n_samples
        expected = TimeSeries(s).lag_sums(50) / N
        assert np.array_equal(estimate_lags(benchmark_series, 50), expected)

    def test_order_out_of_range(self):
        y = TimeSeries(np.arange(5.0))
        with pytest.raises(InvalidOrderError):
            estimate_lags(y, 5)
        with pytest.raises(InvalidOrderError):
            estimate_lags(y, -1)

    def test_non_finite_samples_rejected(self):
        with pytest.raises(InvalidDataError):
            TimeSeries(np.array([1.0, np.nan, 2.0]))
        with pytest.raises(InvalidDataError):
            TimeSeries(np.array([1.0, np.inf]))

    def test_overflowing_lag_sums_rejected_without_numpy_warnings(self):
        y = TimeSeries(np.array([1e160, -1e160, 1e160]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDataError, match="lags contain non-finite values"):
                estimate_lags(y, 1)

    @pytest.mark.parametrize("N, n", [(200, 0), (200, 100), (2000, 600)])
    def test_overflow_beyond_the_first_block_is_the_same_named_error(self, N, n):
        # +-1e160 alternating: the products overflow in every lag block
        y = TimeSeries(1e160 * (-1.0) ** np.arange(N))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDataError, match="lags contain non-finite values"):
                estimate_lags(y, n)

    def test_too_short(self):
        with pytest.raises(InvalidDataError):
            TimeSeries(np.array([3.0]))

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=40),
        st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=50, deadline=None)
    def test_sign_invariance(self, values, n):
        y = np.asarray(values)
        lags_pos = estimate_lags(TimeSeries(y), n)
        lags_neg = estimate_lags(TimeSeries(-y), n)
        # products of negated samples are bitwise identical
        assert np.array_equal(lags_pos, lags_neg)


@pytest.fixture
def lag_passes(monkeypatch):
    """Orders at which a series computed new lag sums, in call order."""
    passes = []
    lag_sums = TimeSeries.lag_sums

    def spy(self, n):
        before = self.__dict__.get("_lag_sums")
        out = lag_sums(self, n)
        if self.__dict__.get("_lag_sums") is not before:
            passes.append(n)
        return out

    monkeypatch.setattr(TimeSeries, "lag_sums", spy)
    return passes


def assert_lags_exactly_rounded(samples, ks, rtol=1e-12):
    """Each lag sum within rtol of math.fsum's exactly rounded sum, relative to
    sum_t |y_t y_{t+k}|."""
    y, N = TimeSeries(samples), samples.size
    sums = y.lag_sums(max(ks))
    for k in ks:
        products = samples[: N - k] * samples[k:]
        exact = math.fsum(products.tolist())
        assert abs(sums[k] - exact) <= rtol * np.abs(products).sum(), k


class TestLagSums:
    def test_each_lag_is_near_the_exactly_rounded_sum_at_a_million_samples(self):
        samples = generate(benchmark_arma(), 10**6, 11).samples
        assert_lags_exactly_rounded(samples, [0, 1, 2, 31, 50, 63, 64, 65, 127, 128, 129])

    @pytest.mark.parametrize("N", [2, 63, 64, 65, 129])
    def test_block_edge_lengths(self, N):
        samples = np.random.default_rng(N).standard_normal(N)
        assert_lags_exactly_rounded(samples, range(N))

    def test_orders_beyond_one_lag_block(self):
        samples = generate(benchmark_arma(), 2000, 12).samples
        assert_lags_exactly_rounded(samples, range(601))

    def test_prefix_across_a_lag_block_is_bitwise_a_fresh_computation(self, benchmark_series):
        s = benchmark_series.samples
        grown = TimeSeries(s)
        grown.lag_sums(4)
        fresh = TimeSeries(s).lag_sums(100)
        assert np.array_equal(grown.lag_sums(100), fresh)
        assert np.array_equal(grown.lag_sums(70), TimeSeries(s).lag_sums(70))

    def test_prefix_is_bitwise_a_fresh_computation(self, benchmark_series):
        s = benchmark_series.samples
        y = TimeSeries(s)
        full = y.lag_sums(50)
        assert np.array_equal(y.lag_sums(4), full[:5])
        assert np.array_equal(y.lag_sums(4), TimeSeries(s).lag_sums(4))
        grown = TimeSeries(s)
        grown.lag_sums(4)
        assert np.array_equal(grown.lag_sums(50), full)

    def test_estimators_read_the_kept_sums(self, benchmark_series, lag_passes):
        y = TimeSeries(benchmark_series.samples)
        sums = y.lag_sums(50)
        lags = estimate_lags(y, 50)
        gram = lagged_gram(y, 20)
        assert lag_passes == [50]
        assert np.array_equal(lags, sums / y.n_samples)
        assert np.array_equal(gram, lagged_gram(TimeSeries(benchmark_series.samples), 20))

    def test_five_method_fit_loop_makes_one_lag_pass(self, benchmark_series, lag_passes):
        y = TimeSeries(benchmark_series.samples)
        cfg = ExperimentConfig()
        for method in Method:
            fit_method(method, y, cfg)
        assert lag_passes == [cfg.n]

    def test_samples_and_sums_are_read_only_copies(self):
        data = np.random.default_rng(0).standard_normal(100)
        kept = data.copy()
        y = TimeSeries(data)
        sums = y.lag_sums(5).copy()
        data[:] = 0.0
        assert np.array_equal(y.samples, kept)
        assert np.array_equal(y.lag_sums(5), sums)
        with pytest.raises(ValueError):
            y.samples[0] = 0.0
        with pytest.raises(ValueError):
            y.lag_sums(5)[0] = 0.0

    def test_blocks_are_the_zero_padded_samples(self):
        data = np.random.default_rng(1).standard_normal(130)
        y = TimeSeries(data)
        flat = y.blocks.ravel()
        assert y.blocks.shape[1] == 64 and flat.size >= data.size + 64
        assert np.array_equal(flat[:130], data) and not flat[130:].any()
        assert np.shares_memory(y.samples, y.blocks)
        with pytest.raises(ValueError):
            y.blocks[0, 0] = 1.0


class TestBuildToeplitz:
    def test_scalar(self):
        cov = ToeplitzCovariance(np.array([1.0]))
        assert cov.matrix.shape == (1, 1) and cov.matrix[0, 0] == 1.0
        assert cov.order == 0

    def test_two_by_two(self):
        cov = ToeplitzCovariance(np.array([2.0, 1.0]))
        np.testing.assert_array_equal(cov.matrix, [[2.0, 1.0], [1.0, 2.0]])

    def test_corner_entries(self):
        cov = ToeplitzCovariance(np.array([1.0, 0.5, 0.25]))
        assert cov.matrix[0, 2] == 0.25 and cov.matrix[2, 0] == 0.25

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_entry_rule_is_exact(self, values):
        lags = np.asarray(values)
        cov = ToeplitzCovariance(lags)
        size = lags.size
        for i in range(size):
            for j in range(size):
                assert cov.matrix[i, j] == lags[abs(i - j)]

    def test_pipeline_matches_naive_oracle(self, benchmark_series):
        cov = ToeplitzCovariance(estimate_lags(benchmark_series, 20))
        oracle = naive_lags(benchmark_series.samples, 20)
        for i in range(21):
            for j in range(21):
                expected = oracle[abs(i - j)]
                assert abs(cov.matrix[i, j] - expected) <= 1e-12 * abs(expected)

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(InvalidDataError):
            ToeplitzCovariance(np.array([]))
        with pytest.raises(InvalidDataError):
            ToeplitzCovariance(np.array([1.0, np.nan]))

    def test_keeps_read_only_copies_of_its_inputs(self):
        lags = np.array([1.0, 0.5])
        cov = ToeplitzCovariance(lags)
        lags[0] = 9.0
        assert cov.lags[0] == 1.0 and cov.matrix[0, 0] == 1.0
        for kept in (cov.lags, cov.matrix):
            with pytest.raises(ValueError):
                kept[0] = 0.0

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_matrix_is_computed_from_any_finite_lags(self, values):
        cov = ToeplitzCovariance(values)
        size = len(values)
        for i in range(size):
            for j in range(size):
                assert cov.matrix[i, j] == values[abs(i - j)]
        assert np.array_equal(cov.matrix, cov.matrix.T)
        assert not cov.matrix.flags.writeable

    def test_matrix_is_not_an_argument(self):
        # the matrix is derived, so one that disagrees with the lags cannot be passed in
        with pytest.raises(TypeError):
            cholesky(ToeplitzCovariance(lags=[1, 0], matrix=[[1, 2], [2, 1]]))


class TestCholesky:
    def test_identity(self):
        cov = ToeplitzCovariance(np.array([1.0, 0.0, 0.0]))
        factor = cholesky(cov)
        np.testing.assert_array_equal(factor.L, np.eye(3))
        assert factor.jitter == 0.0
        assert factor.cov is cov

    @pytest.mark.parametrize(
        "lags, jitter",
        [([1.0, 1.0], 1e-8), ([1.0, 1.0 + 1e-7], 1e-6)],
        ids=["first-shift", "two-escalations"],
    )
    def test_factor_carries_the_shifted_covariance(self, lags, jitter):
        cov = ToeplitzCovariance(np.array(lags))
        factor = cholesky(cov)
        assert factor.jitter == pytest.approx(jitter, rel=1e-12)
        assert factor.cov.lags[0] == 1.0 + factor.jitter
        assert np.array_equal(factor.cov.lags[1:], cov.lags[1:])
        assert np.array_equal(factor.L, np.linalg.cholesky(factor.cov.matrix))

    def test_hand_worked_2x2(self):
        factor = cholesky(ToeplitzCovariance(np.array([4.0, 2.0])))
        np.testing.assert_allclose(factor.L, [[2.0, 0.0], [1.0, np.sqrt(3.0)]], rtol=1e-15)

    def test_factor_is_computed_from_its_covariance(self):
        cov = ToeplitzCovariance(np.array([4.0, 2.0]))
        with pytest.raises(TypeError):
            CholeskyFactor(L=np.eye(2), cov=cov)
        factor = CholeskyFactor(cov)
        assert np.array_equal(factor.L, np.linalg.cholesky(cov.matrix))
        assert factor.jitter == 0.0 and factor.cov is cov
        with pytest.raises(ValueError):
            factor.L[1, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            CholeskyFactor(ToeplitzCovariance(np.array([1.0, 2.0])))

    def test_reconstruction_ar2_51(self):
        lags = ar2_lag_sequence(1.2, -0.5, 50)
        cov = ToeplitzCovariance(lags)
        factor = cholesky(cov)
        rel = np.linalg.norm(factor.L @ factor.L.T - cov.matrix) / np.linalg.norm(cov.matrix)
        assert rel <= 1e-10

    def test_lower_triangular_positive_diagonal(self, benchmark_series):
        for n in (1, 5, 20, 50):
            factor = cholesky(ToeplitzCovariance(estimate_lags(benchmark_series, n)))
            assert np.array_equal(factor.L, np.tril(factor.L))
            assert np.all(np.diag(factor.L) > 0)

    def test_jitter_repairs_singular_matrix(self):
        cov = ToeplitzCovariance(np.array([1.0, 1.0]))  # eigenvalues {0, 2}
        factor = cholesky(cov)
        assert factor.jitter > 0
        repaired = cov.matrix + factor.jitter * np.eye(2)
        rel = np.linalg.norm(factor.L @ factor.L.T - repaired) / np.linalg.norm(repaired)
        assert rel <= 1e-10

    def test_jitter_cap_insufficient_raises(self):
        # eigenvalue -1 cannot be repaired by shifts up to 1e-4 * r_0
        cov = ToeplitzCovariance(np.array([1.0, 2.0]))
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(cov)

    def test_factorizations_are_the_shifts_in_the_order_tried(self):
        # [1, 1] is singular: the unshifted matrix fails and every shift factors
        singular = ToeplitzCovariance(np.array([1.0, 1.0]))
        jitters = [f.jitter for f in factorizations(singular)]
        np.testing.assert_allclose(jitters, [1e-8, 1e-7, 1e-6, 1e-5, 1e-4], rtol=1e-14)
        assert cholesky(singular).jitter == jitters[0]
        pd = [f.jitter for f in factorizations(ToeplitzCovariance(np.array([2.0, 1.0])))]
        assert len(pd) == 6 and pd[0] == 0.0
        # eigenvalue -1: no shift up to 1e-4 * r_0 factors
        assert list(factorizations(ToeplitzCovariance(np.array([1.0, 2.0])))) == []
