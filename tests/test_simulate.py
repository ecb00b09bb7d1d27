import tracemalloc

import numpy as np
import pytest
import scipy.signal

from kmaxent import simulate
from kmaxent.errors import InvalidDataError, InvalidModelError
from kmaxent.estimators import PredictorPolynomial
from kmaxent.simulate import (
    ArmaModel,
    SpectrumModel,
    benchmark_arma,
    eval_spectrum,
    frequency_grid,
    generate,
    random_arma,
    reconstruction_error,
)
from oracles import direct_form_filter, direct_spectrum


def white_noise_model(sigma):
    return ArmaModel(zeros=(), poles=(), gain=sigma)


def lfilter_series(model, N, seed, burn_in):
    """What ``generate`` returns, filtered by scipy's direct-form recursion."""
    noise = np.random.default_rng(seed).standard_normal(N + burn_in)
    return scipy.signal.lfilter(model.numerator(), model.denominator(), noise)[burn_in:]


def max_relative_gap(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


class TestArmaModel:
    def test_rejects_non_minimum_phase(self):
        with pytest.raises(InvalidModelError):
            ArmaModel(zeros=(1.2 + 0j,), poles=(0.5 + 0j,), gain=1.0)
        with pytest.raises(InvalidModelError):
            ArmaModel(zeros=(0.5 + 0j,), poles=(1.0 + 0j,), gain=1.0)

    def test_rejects_unbalanced_degrees(self):
        with pytest.raises(InvalidModelError):
            ArmaModel(zeros=(), poles=(0.5 + 0j,), gain=1.0)

    def test_rejects_conjugate_violation(self):
        with pytest.raises(InvalidModelError):
            ArmaModel(zeros=(0.3 + 0.4j,), poles=(0.2 + 0j,), gain=1.0)

    def test_real_coefficients(self):
        model = benchmark_arma()
        assert model.numerator().dtype == np.float64
        assert model.denominator().dtype == np.float64
        # z^2 - 2 Re(z0) z + |z0|^2, scaled by the gain
        z0 = 0.85 * np.exp(0.52j)
        expected = np.sqrt(2.0) * np.array([1.0, -2 * z0.real, abs(z0) ** 2])
        np.testing.assert_allclose(model.numerator(), expected, rtol=1e-12)


class TestGenerate:
    def test_white_noise_variance(self):
        sigma = 1.7
        y = generate(white_noise_model(sigma), 100_000, 123, burn_in=0)
        assert abs(np.var(y.samples) - sigma**2) <= 0.02 * sigma**2

    def test_benchmark_lag0_matches_spectrum_quadrature(self):
        y = generate(benchmark_arma(), 100_000, 2024)
        spectrum = eval_spectrum(SpectrumModel(benchmark_arma()), 8192)
        r0_quadrature = float(np.mean(spectrum))  # (1/2pi) integral of the spectrum
        r0_sample = float(np.mean(y.samples**2))
        assert abs(r0_sample - r0_quadrature) <= 0.10 * r0_quadrature

    def test_deterministic_per_seed(self):
        a = generate(benchmark_arma(), 500, 7)
        b = generate(benchmark_arma(), 500, 7)
        assert np.array_equal(a.samples, b.samples)
        c = generate(benchmark_arma(), 500, 8)
        assert not np.array_equal(a.samples, c.samples)

    def test_input_validation(self):
        with pytest.raises(InvalidDataError):
            generate(benchmark_arma(), 0, 1)
        with pytest.raises(InvalidDataError):
            generate(benchmark_arma(), 10, 1, burn_in=-1)


class TestGenerateFilter:
    """The blocked banded solve reproduces scipy's lfilter to rounding."""

    BLOCK = simulate._BLOCK

    @pytest.mark.parametrize("model", [benchmark_arma(), random_arma(1), random_arma(2), random_arma(3)])
    def test_matches_lfilter_at_a_million_samples(self, model):
        y = generate(model, 10**6 - 2000, 5, burn_in=2000).samples
        assert max_relative_gap(y, lfilter_series(model, 10**6 - 2000, 5, 2000)) <= 1e-12

    def test_white_noise_is_bitwise_lfilter(self):
        model = white_noise_model(1.7)
        y = generate(model, 5000, 11, burn_in=100).samples
        assert np.array_equal(y, lfilter_series(model, 5000, 11, 100))

    @pytest.mark.parametrize(
        # below p = 6, around one and two block edges, and a last block
        # shorter than p
        "length", [1, 2, 5, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 3, 2 * BLOCK + 1]
    )
    def test_matches_lfilter_at_every_length(self, length):
        model = random_arma(1)
        noise = np.random.default_rng(9).standard_normal(length)
        y = simulate._arma_filter(model.numerator(), model.denominator(), noise)
        ref = scipy.signal.lfilter(model.numerator(), model.denominator(), noise)
        assert y.shape == ref.shape
        assert max_relative_gap(y, ref) <= 1e-12

    @pytest.mark.parametrize("block", [1, 4, 6, 7])
    def test_blocks_shorter_than_the_order(self, block, monkeypatch):
        # with p = 6 a block's reach-back spans several earlier blocks, or
        # starts before the first sample
        monkeypatch.setattr(simulate, "_BLOCK", block)
        model = random_arma(1)
        noise = np.random.default_rng(9).standard_normal(40)
        y = simulate._arma_filter(model.numerator(), model.denominator(), noise)
        ref = scipy.signal.lfilter(model.numerator(), model.denominator(), noise)
        assert max_relative_gap(y, ref) <= 1e-12

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52, reason="long double is double here")
    def test_clustered_poles_match_an_extended_precision_recursion(self):
        # random_arma(4) has four poles within 0.18 rad of -1, so rounding
        # errors grow along the recursion; lfilter is 9e-13 away from the
        # extended-precision reference at this length, the banded solve 4e-13
        model = random_arma(4)
        noise = np.random.default_rng(9).standard_normal(self.BLOCK + 3)
        y = simulate._arma_filter(model.numerator(), model.denominator(), noise)
        ref = direct_form_filter(model.numerator(), model.denominator(), noise)
        assert max_relative_gap(y, ref) <= 1e-12

    def test_memory_is_bounded(self):
        # the 10^6-sample series is 8 MB; the noise, the filter output and the
        # TimeSeries copy are the only arrays of that size
        tracemalloc.start()
        try:
            y = generate(benchmark_arma(), 10**6 - 2000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert y.n_samples == 10**6 - 2000
        assert peak < 3 * 8e6


class TestRandomArma:
    def test_invariants_across_seeds(self):
        for seed in range(1000):
            model = random_arma(seed)
            assert len(model.zeros) == len(model.poles) == 6
            assert all(abs(abs(p) - 0.98) < 1e-12 for p in model.poles)
            assert all(abs(abs(z) - 0.85) < 1e-12 for z in model.zeros)

    def test_zero_gap_is_exact(self):
        model = random_arma(5, pairs=1, max_phase_gap=0.0)
        phases_z = sorted(np.angle(z) for z in model.zeros)
        phases_p = sorted(np.angle(p) for p in model.poles)
        np.testing.assert_allclose(phases_z, phases_p, atol=1e-15)

    def test_phase_gap_bound(self):
        for seed in range(200):
            model = random_arma(seed)
            gaps = []
            for z in model.zeros:
                gaps.append(min(abs(np.angle(z) - np.angle(p)) for p in model.poles))
            assert max(gaps) <= 0.06 + 1e-12

    def test_stress_modulus(self):
        model = random_arma(11, pole_modulus=0.995)
        assert max(abs(p) for p in model.poles) == pytest.approx(0.995)

    def test_invalid_moduli(self):
        with pytest.raises(InvalidModelError):
            random_arma(0, pole_modulus=1.0)
        with pytest.raises(InvalidModelError):
            random_arma(0, zero_modulus=0.0)


class TestEvalSpectrum:
    def test_white_noise_constant(self):
        sigma = 1.3
        values = eval_spectrum(SpectrumModel(white_noise_model(sigma)), 64)
        np.testing.assert_allclose(values, sigma**2, rtol=1e-12)

    def test_ar1_estimate_hand_value(self):
        b = PredictorPolynomial(np.array([1.0, -0.5]))
        grid = frequency_grid(2048)
        values = eval_spectrum(SpectrumModel(b), 2048)
        np.testing.assert_allclose(values, 1.0 / (1.25 - np.cos(grid)), rtol=1e-12)
        at_zero = values[np.argmin(np.abs(grid))]
        assert at_zero == pytest.approx(4.0, rel=1e-12)

    def test_truth_and_estimate_agree_for_matched_ar1(self):
        rho, gain = 0.6, 1.4
        truth = ArmaModel(zeros=(0j,), poles=(rho + 0j,), gain=gain)
        estimate = PredictorPolynomial(np.array([1.0, -rho]) / gain)
        a = eval_spectrum(SpectrumModel(truth), 512)
        b = eval_spectrum(SpectrumModel(estimate), 512)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_strictly_positive_for_valid_models(self):
        for seed in range(20):
            values = eval_spectrum(SpectrumModel(random_arma(seed)), 256)
            assert np.all(values > 0)

    def test_near_singular_warning(self):
        # root exactly at z = 1, which is the theta = 0 grid point
        b = PredictorPolynomial(np.array([1.0, -1.0]))
        with pytest.warns(RuntimeWarning, match="nearly singular"):
            values = eval_spectrum(SpectrumModel(b), 64)
        assert values.size == 64  # values still returned

    @pytest.mark.parametrize(
        "size, grid_size", [(2, 2), (7, 3), (51, 16), (51, 2048), (51, 2049), (300, 64)]
    )
    @pytest.mark.parametrize("scale", [1.0, 1e100, 1e-100])
    def test_matches_direct_oracle(self, size, grid_size, scale):
        # b_0 = 1 dominates the tail (sum |b_m| <= 0.5 for m >= 1), so
        # |b(e^{j theta})| >= 0.5 and the relative comparison is well posed;
        # sizes above the grid size exercise the fold
        rng = np.random.default_rng(size * 10_000 + grid_size)
        tail = rng.uniform(-1.0, 1.0, size - 1) * 0.5 / (size - 1)
        coeffs = scale * np.concatenate(([1.0], tail))
        got = eval_spectrum(SpectrumModel(PredictorPolynomial(coeffs)), grid_size)
        assert got.shape == (grid_size,)
        np.testing.assert_allclose(got, direct_spectrum(coeffs, grid_size), rtol=1e-12)

    def test_folded_near_singular_warning(self):
        # 1 - z^{-16} vanishes at the 16th roots of unity, which are the
        # grid points for G = 16; its 17 coefficients fold onto 16
        grid_size = 16
        coeffs = np.zeros(grid_size + 1)
        coeffs[0], coeffs[-1] = 1.0, -1.0
        with pytest.warns(RuntimeWarning, match="nearly singular"):
            values = eval_spectrum(SpectrumModel(PredictorPolynomial(coeffs)), grid_size)
        assert values.size == grid_size

    def test_grid_size_validation(self):
        with pytest.raises(InvalidDataError):
            frequency_grid(1)


class TestReconstructionError:
    def test_identical_spectra(self):
        model = benchmark_arma()
        est = SpectrumModel(model)
        assert reconstruction_error(est, SpectrumModel(model)) == 0.0

    def test_vanishing_estimate_gives_one(self):
        truth = SpectrumModel(white_noise_model(1.0))
        vanishing = SpectrumModel(PredictorPolynomial(np.array([1e150])))
        assert reconstruction_error(vanishing, truth) == pytest.approx(1.0, abs=1e-10)

    def test_constant_offset_on_flat_truth(self):
        a, c = 2.0, 0.7
        truth = SpectrumModel(white_noise_model(np.sqrt(a)))
        estimate = SpectrumModel(white_noise_model(np.sqrt(a + c)))
        got = reconstruction_error(estimate, truth)
        assert got == pytest.approx(c**2 / a**2, rel=1e-10)

    def test_scale_invariance(self):
        c = 5.0
        model = benchmark_arma()
        b = PredictorPolynomial(np.array([0.9, -0.4, 0.1]))
        base = reconstruction_error(SpectrumModel(b), SpectrumModel(model))
        scaled_truth = ArmaModel(model.zeros, model.poles, model.gain * np.sqrt(c))
        scaled_b = PredictorPolynomial(b.coeffs / np.sqrt(c))
        scaled = reconstruction_error(SpectrumModel(scaled_b), SpectrumModel(scaled_truth))
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_grid_doubling_stability_on_benchmark(self):
        estimate = SpectrumModel(PredictorPolynomial(np.array([0.8, -0.3])))
        truth = SpectrumModel(benchmark_arma())
        e1 = reconstruction_error(estimate, truth, 2048)
        e2 = reconstruction_error(estimate, truth, 4096)
        assert abs(e1 - e2) <= 0.005 * e1
