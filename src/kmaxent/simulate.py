"""ARMA test-process generation and spectrum evaluation.

Processes are defined by the zeros, poles, and gain of a rational filter
driven by unit-variance white Gaussian noise. Generation draws the noise from
numpy's ``default_rng`` (PCG64); a seed reproduces its series on one machine
and BLAS (see :func:`generate`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtbsv

from .covariance import TimeSeries
from .errors import InvalidDataError, InvalidModelError
from .estimators import PredictorPolynomial


@dataclass(frozen=True)
class ArmaModel:
    """Rational spectral factor w(z) = gain * prod(z - z_i) / prod(z - p_j).

    Zeros and poles must each be closed under conjugation (so the filter has
    real coefficients), have equal count (biproper filter), and lie strictly
    inside the unit circle (minimum phase).
    """

    zeros: tuple[complex, ...]
    poles: tuple[complex, ...]
    gain: float

    def __post_init__(self):
        zeros = tuple(complex(z) for z in self.zeros)
        poles = tuple(complex(p) for p in self.poles)
        if len(zeros) != len(poles):
            raise InvalidModelError("zeros and poles must have equal count")
        if not (np.isfinite(self.gain) and self.gain > 0):
            raise InvalidModelError(f"gain must be finite and > 0, got {self.gain}")
        for name, roots in (("zeros", zeros), ("poles", poles)):
            if any(abs(r) >= 1.0 for r in roots):
                raise InvalidModelError(f"all {name} must lie strictly inside the unit circle")
            if not _conjugate_closed(roots):
                raise InvalidModelError(f"{name} are not closed under conjugation")
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "poles", poles)

    def numerator(self) -> np.ndarray:
        """Real coefficients of gain * prod(z - z_i), highest power first."""
        return self.gain * _real_poly(self.zeros)

    def denominator(self) -> np.ndarray:
        """Real coefficients of prod(z - p_j), highest power first."""
        return _real_poly(self.poles)


def _conjugate_closed(roots: tuple[complex, ...], tol: float = 1e-12) -> bool:
    key = lambda c: (round(c.real / tol), round(c.imag / tol))
    direct = sorted(key(r) for r in roots)
    conjugated = sorted(key(r.conjugate()) for r in roots)
    return direct == conjugated


def _real_poly(roots: tuple[complex, ...]) -> np.ndarray:
    coeffs = np.atleast_1d(np.poly(np.array(roots))) if roots else np.array([1.0])
    return np.real(coeffs)


def benchmark_arma() -> ArmaModel:
    """Fixed narrow-band demo process: zero pair at 0.85 e^{+-0.52j}, pole
    pair at 0.98 e^{+-0.482j}, gain sqrt(2)."""
    z = 0.85 * np.exp(0.52j)
    p = 0.98 * np.exp(0.482j)
    return ArmaModel(
        zeros=(z, z.conjugate()), poles=(p, p.conjugate()), gain=float(np.sqrt(2.0))
    )


# samples per banded AR solve; the filter's extra memory is O(p * _BLOCK)
_BLOCK = 4096


def _arma_filter(numerator: np.ndarray, denominator: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Output of the filter numerator / denominator (monic, equal lengths p + 1)
    driven by x from rest: y_t + sum_k a_k y_{t-k} = sum_k b_k x_{t-k}.

    The moving-average side is one convolution. The autoregressive side is a
    forward substitution with the unit lower-triangular banded Toeplitz matrix
    of the denominator, solved in place by BLAS ``dtbsv`` one block of
    ``_BLOCK`` samples at a time. A block's first p right-hand sides first
    drop the terms that reach back into the p outputs before it.
    """
    y = np.convolve(x, numerator)[: x.size]
    p = denominator.size - 1
    if p == 0:
        return y
    # lower band storage: row d holds the d-th subdiagonal, the constant a_d
    band = np.empty((p + 1, min(_BLOCK, y.size)), order="F")
    band[:] = denominator[:, None]
    for start in range(0, y.size, _BLOCK):
        block = y[start : start + _BLOCK]
        if start:
            # entry t is sum_{k > t} a_k y_{start+t-k}, over the outputs that exist
            back = min(p, start)
            carry = np.convolve(y[start - back : start], denominator)[back : back + p]
            head = min(p, block.size)
            block[:head] -= carry[:head]
        dtbsv(p, band[:, : block.size], block, lower=1, overwrite_x=1)
    return y


def generate(model: ArmaModel, N: int, seed, burn_in: int = 2000) -> TimeSeries:
    """Drive the filter with seeded unit-variance white Gaussian noise.

    ``burn_in`` initial outputs are discarded so the retained N samples are
    approximately stationary. The filter starts from rest; its moving-average
    part is a convolution and its autoregressive part a blocked banded
    triangular solve (:func:`_arma_filter`), which agrees with a direct-form
    recursion to rounding. Deterministic given (model, N, seed, burn_in): the
    noise is numpy's PCG64 via ``default_rng``, so a seed reproduces its
    series on one machine and BLAS; the last bits of the solve may differ
    across CPU kernels.
    """
    if N < 1:
        raise InvalidDataError(f"N must be >= 1, got {N}")
    if burn_in < 0:
        raise InvalidDataError(f"burn_in must be >= 0, got {burn_in}")
    # the noise is a temporary, freed before TimeSeries copies the output
    draw = np.random.default_rng(seed).standard_normal
    out = _arma_filter(model.numerator(), model.denominator(), draw(N + burn_in))
    return TimeSeries(out[burn_in:])


def random_arma(
    seed,
    pole_modulus: float = 0.98,
    zero_modulus: float = 0.85,
    pairs: int = 3,
    max_phase_gap: float = 0.06,
) -> ArmaModel:
    """Random minimum-phase filter for Monte Carlo trials.

    Draws ``pairs`` pole phases uniformly on [0, pi]; each zero phase equals
    its paired pole phase plus a uniform draw on [-max_phase_gap,
    +max_phase_gap]. Zeros and poles enter as conjugate pairs, gain is 1.
    Deterministic per seed.
    """
    if not (0.0 < pole_modulus < 1.0 and 0.0 < zero_modulus < 1.0):
        raise InvalidModelError("pole and zero moduli must lie strictly in (0, 1)")
    if pairs < 1:
        raise InvalidModelError(f"pairs must be >= 1, got {pairs}")
    if max_phase_gap < 0:
        raise InvalidModelError(f"max_phase_gap must be >= 0, got {max_phase_gap}")
    rng = np.random.default_rng(seed)
    pole_phases = rng.uniform(0.0, np.pi, size=pairs)
    zero_phases = pole_phases + rng.uniform(-max_phase_gap, max_phase_gap, size=pairs)
    poles: list[complex] = []
    zeros: list[complex] = []
    for phase_p, phase_z in zip(pole_phases, zero_phases):
        p = pole_modulus * np.exp(1j * phase_p)
        z = zero_modulus * np.exp(1j * phase_z)
        poles.extend([p, p.conjugate()])
        zeros.extend([z, z.conjugate()])
    return ArmaModel(zeros=tuple(zeros), poles=tuple(poles), gain=1.0)


@dataclass(frozen=True)
class SpectrumModel:
    """A spectrum evaluable on the frequency grid.

    Built either from an :class:`ArmaModel` (true spectrum |w(e^{j theta})|^2)
    or from a :class:`PredictorPolynomial` (estimated spectrum
    1 / |b(e^{j theta})|^2).
    """

    source: ArmaModel | PredictorPolynomial

    def __post_init__(self):
        if not isinstance(self.source, (ArmaModel, PredictorPolynomial)):
            raise InvalidModelError("source must be an ArmaModel or PredictorPolynomial")


def frequency_grid(grid_size: int = 2048) -> np.ndarray:
    """Uniform grid theta_k = -pi + 2 pi k / grid_size, k = 0..grid_size-1."""
    if grid_size < 2:
        raise InvalidDataError(f"grid_size must be >= 2, got {grid_size}")
    return -np.pi + 2.0 * np.pi * np.arange(grid_size) / grid_size


def _warn_near_singular(roots: np.ndarray, grid: np.ndarray) -> None:
    # only roots essentially on the unit circle can sit within 1e-12 of a
    # grid point e^{j theta_k}
    on_circle = roots[np.abs(np.abs(roots) - 1.0) <= 1e-12]
    if on_circle.size == 0:
        return
    spacing = 2.0 * np.pi / grid.size
    for r in on_circle:
        k = np.round((np.angle(r) + np.pi) / spacing)
        theta = -np.pi + spacing * k
        if abs(r - np.exp(1j * theta)) < 1e-12:
            warnings.warn(
                "spectrum nearly singular: a unit-circle root coincides with a grid point",
                RuntimeWarning,
            )
            return


def eval_spectrum(s: SpectrumModel, grid_size: int = 2048) -> np.ndarray:
    """Evaluate the spectrum on the shared frequency grid.

    The true spectrum is |w(e^{j theta})|^2 from the numerator and
    denominator polynomials. For an estimate, b(e^{j theta_k}) =
    sum_m b_m e^{-j theta_k m} with theta_k = -pi + 2 pi k / G equals
    sum_m x_m e^{-2 pi j k m / G} with x_m = (-1)^m b_m, so the response is
    one length-G FFT of x. That kernel has period G in m, so coefficients
    beyond the grid size are first folded onto x_0 .. x_{G-1} by summing
    x_m over m modulo G; a plain zero-padded FFT would truncate them.

    A unit-circle root of the defining polynomial within 1e-12 of a grid
    point triggers a near-singular warning; the values are still returned.
    An estimate's unit-circle roots are read from its
    :attr:`PredictorPolynomial.root_summary`, which the minimum-phase check
    has usually computed already.
    """
    grid = frequency_grid(grid_size)
    if isinstance(s.source, ArmaModel):
        model = s.source
        unit = np.exp(1j * grid)
        num = np.polyval(model.numerator(), unit)
        den = np.polyval(model.denominator(), unit)
        _warn_near_singular(np.array(model.zeros + model.poles), grid)
        return np.abs(num / den) ** 2
    x = s.source.coeffs.copy()
    x[1::2] = -x[1::2]
    if x.size > grid_size:
        x = np.pad(x, (0, -x.size % grid_size)).reshape(-1, grid_size).sum(axis=0)
    response = np.fft.fft(x, grid_size)
    _warn_near_singular(np.array(s.source.root_summary[1], dtype=complex), grid)
    with np.errstate(divide="ignore"):
        return 1.0 / np.abs(response) ** 2


def _periodic_integral(values: np.ndarray) -> float:
    # trapezoidal rule for a uniform grid over one full period: with the
    # wrap-around point included, it reduces to the mean times 2 pi
    return float(np.mean(values) * 2.0 * np.pi)


def spectrum_error(estimate: np.ndarray, truth: np.ndarray) -> float:
    """:func:`reconstruction_error` of two spectra already on one grid.

    Lets a caller that scores several estimates against one truth evaluate
    the true spectrum once.
    """
    return _periodic_integral((estimate - truth) ** 2) / _periodic_integral(truth**2)


def reconstruction_error(
    estimate: SpectrumModel, truth: SpectrumModel, grid_size: int = 2048
) -> float:
    """Normalized integrated squared spectrum deviation.

    integral(|est - true|^2) / integral(|true|^2), both by the trapezoidal
    rule on the shared grid.
    """
    return spectrum_error(eval_spectrum(estimate, grid_size), eval_spectrum(truth, grid_size))
