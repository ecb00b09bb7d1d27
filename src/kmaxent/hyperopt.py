"""Empirical-Bayes hyperparameter selection and the estimation pipelines.

The kernel scale and decay rate are chosen by minimizing the negative
log-marginal likelihood of the data with the coefficient vector integrated
out. Kernel-ME and kernel-PEM are two cases of one ridge-regression marginal
likelihood with unit noise precision, implemented once in
:class:`RidgeMarginal` on the reduced form B^T G B of the Gram matrix G and
the structured kernel root B. Every score, the single point of
:func:`neg_log_marginal` included, comes from :meth:`RidgeMarginal.profile`.
Both pipelines end in one shared tail: search, coefficient solve, degrees of
freedom and root check.

The surface is not convex, so the search is a deterministic two-stage
procedure inside a fixed box (:class:`PipelineConfig`): an exhaustive coarse
grid over (log10 lambda, beta), then a refinement of the lambda-profiled
likelihood.
One eigendecomposition of the reduced n x n form per beta gives the whole
lambda profile at O(n) per lambda, so each beta's best lambda is polished by
safeguarded Newton steps on the closed-form derivatives, and a bounded Brent
search (R. Brent, 1973) over beta follows, one eigendecomposition per beta it
tries (T. Chen and L. Ljung, Automatica 2013). That search lives in this
module (:func:`_bounded_brent`, a port of scipy's bounded scalar minimizer),
so the betas it tries do not move with the installed scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import ClassVar

import numpy as np

from .covariance import TimeSeries, ToeplitzCovariance, build_toeplitz, cholesky, estimate_lags
from .diagnostics import shrinkage_df
from .errors import InvalidDataError, InvalidOrderError, KmaxentError, PipelineError
from .estimators import (
    EstimateResult,
    Method,
    WhittleDesign,
    build_whittle_design,
    kernel_me,
    kernel_pem,
    lagged_gram,
    preliminary_b0,
)
from .kernels import (
    Hyperparameters,
    KernelFamily,
    KernelSpec,
    root_scale,
)


# The lambda polish takes at most 50 steps (bisection alone narrows a bracket
# to 2^-50 of its width). It stops once each beta's last Newton step in
# ln lambda is below 1e-4, which leaves an error of order 1e-8, or its
# bisected bracket is narrower than 1e-7.
_NEWTON_STEPS = 50
_NEWTON_STEP_TOL = 1e-4
_BRACKET_TOL = 1e-7
_BETA_TOL = 1e-7  # absolute tolerance of the bounded Brent search over beta


@dataclass(frozen=True)
class PipelineConfig:
    """The fixed search box of the kernel-based pipelines; nothing is settable.

    The class constants give its log10 lambda and beta ranges and grid steps,
    17 x 19 points.
    """

    log10_lambda_min: ClassVar[float] = -4.0
    log10_lambda_max: ClassVar[float] = 4.0
    log10_lambda_step: ClassVar[float] = 0.5
    beta_min: ClassVar[float] = 0.05
    beta_max: ClassVar[float] = 0.95
    beta_step: ClassVar[float] = 0.05


def _box_axis(lo: float, hi: float, step: float) -> list[float]:
    """Ascending points lo, lo + step, ..., hi of one axis of the search box."""
    return [float(x) for x in np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)]


_BOX = PipelineConfig
_LOG10_LAMS = _box_axis(_BOX.log10_lambda_min, _BOX.log10_lambda_max, _BOX.log10_lambda_step)
# scalar powers: numpy's vectorized power can differ in the last bit
_LAMS = np.array([10.0**x for x in _LOG10_LAMS])
_BETAS = _box_axis(_BOX.beta_min, _BOX.beta_max, _BOX.beta_step)


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise InvalidDataError("marginal likelihood is not finite; the data scale is too extreme")
    return values


@dataclass(frozen=True)
class RidgeMarginal:
    """Negative log-marginal likelihood of a ridge regression with a kernel prior.

    Scores 0.5 [log det(I + lam A) + t - lam w^T (I + lam A)^{-1} w] with
    A = B^T G B and w = B^T m, where G is the Gram matrix of the regression,
    m its moment vector, t the target sum of squares and B B^T the prior
    covariance at decay rate beta. The noise precision is one: a route with
    another precision p folds sqrt(p) into m and p into t. Both estimation
    routes are this form; see :meth:`whittle` and :meth:`regression`.

    Every structured kernel root is S diag(c(beta)) for tc, with S the
    upper-triangular matrix of ones, and diag(c(beta)) for di. The constructors
    therefore store S^T G S and S^T m once (G and m for di), and for each beta
    A = c c^T * S^T G S and w = c * S^T m are elementwise scalings; no kernel
    matrix is formed.
    """

    reduced_gram: np.ndarray
    reduced_moment: np.ndarray
    target_ss: float
    family: KernelFamily
    size: int  # kernel size n + 1
    trailing: bool  # root of the trailing n x n kernel block instead of the full kernel

    @classmethod
    def _reduce(cls, gram, moment, target_ss, family, size, trailing):
        family = KernelFamily(family)
        if family is KernelFamily.TC:
            # S^T G S and S^T m are cumulative sums
            with np.errstate(over="ignore", invalid="ignore"):
                gram = np.cumsum(np.cumsum(gram, axis=0), axis=1)
                moment = np.cumsum(moment)
        if not (np.isfinite(gram).all() and np.isfinite(moment).all()):
            raise InvalidDataError("reduced Gram matrix overflows; the data scale is too large")
        return cls(
            reduced_gram=gram,
            reduced_moment=moment,
            target_ss=float(target_ss),
            family=family,
            size=size,
            trailing=trailing,
        )

    @classmethod
    def whittle(cls, design: WhittleDesign, cov: ToeplitzCovariance, family: KernelFamily):
        """Whitened maximum-entropy fit: Phi^T Phi = (N - n) Sigma,
        Phi^T v~ = (N - n) / b0 e_1 and target v~^T v~, with the root of the
        full size-(n+1) kernel."""
        moment = np.zeros(cov.order + 1)
        moment[0] = design.n_eff / design.b0_prelim
        return cls._reduce(
            design.n_eff * cov.matrix,
            moment,
            design.v_tilde @ design.v_tilde,
            family,
            cov.order + 1,
            trailing=False,
        )

    @classmethod
    def regression(cls, gram, moment, target_ss, b0_prelim, family: KernelFamily):
        """One-step-predictor regression X^T X, X^T y and y^T y with noise
        variance 1 / b0^2 and the root of the trailing n x n block of the
        size-(n+1) kernel. The precision b0^2 is folded into the data: the
        moment is scaled by b0 and the target by b0^2."""
        moment, target_ss = b0_prelim * moment, b0_prelim**2 * target_ss
        return cls._reduce(gram, moment, target_ss, family, len(moment) + 1, trailing=True)

    def _reduced(self, beta: float) -> tuple[np.ndarray, np.ndarray]:
        """A = B^T G B and w = B^T m at decay rate beta."""
        c = root_scale(KernelSpec(self.family, beta, self.size), trailing=self.trailing)
        return c[:, None] * self.reduced_gram * c, c * self.reduced_moment

    def _score(self, s: np.ndarray, u2: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Objective from eigenvalues s of A and u2 = (Q^T w)^2, one row per
        beta: log det = sum log(1 + lam s) and w^T (I + lam A)^{-1} w =
        sum u2 / (1 + lam s), summed over the last axis. ``lam`` carries a
        trailing unit axis and broadcasts against the rows."""
        lam_s = lam * s
        quad = self.target_ss - lam[..., 0] * (u2 / (1.0 + lam_s)).sum(axis=-1)
        return 0.5 * (np.log1p(lam_s).sum(axis=-1) + quad)

    @np.errstate(over="ignore", invalid="ignore")
    def profile(self, lams: np.ndarray, betas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Grid values, shape (len(lams), len(betas)), and each beta's polished
        best lambda in the box of the ascending ``lams`` with its value.

        One eigendecomposition A = Q diag(s) Q^T per beta gives u2 =
        (Q^T w)^2. Each beta's grid argmin is then polished by safeguarded
        Newton steps on x = ln lam, inside the bracket of its grid neighbours.
        With d = 1 / (1 + lam s), a = lam s d and q = lam u2 d^2 the
        derivatives are g = df/dx = 0.5 sum(a - q) and
        h = d2f/dx2 = g + 0.5 sum(a (2q - a)). The value returned is never
        above the grid minimum. A grid value that is not finite raises
        InvalidDataError before the polish, and so does a polished one: the
        minimum of such a trace would depend on its order. Numpy's overflow and
        invalid-value warnings are off throughout: the finiteness checks name
        the failure, and the polish may overflow in q on a finite grid, where
        it bisects.
        """
        lams = np.asarray(lams, dtype=float)
        s, u2 = np.empty((2, len(betas), self.reduced_moment.size))
        for j, beta in enumerate(betas):
            A, w = self._reduced(float(beta))
            s[j], Q = np.linalg.eigh(A)
            u2[j] = (Q.T @ w) ** 2
        s = np.clip(s, 0.0, None)
        values = _finite(self._score(s, u2, lams[:, None, None]))
        best = np.argmin(values, axis=0)
        x0 = np.log(lams[best])
        lo = np.log(lams[np.maximum(best - 1, 0)])
        hi = np.log(lams[np.minimum(best + 1, lams.size - 1)])
        x = x0
        for _ in range(_NEWTON_STEPS):
            lam = np.exp(x)[:, None]
            d = 1.0 / (1.0 + lam * s)
            a, q = lam * s * d, lam * u2 * d * d
            g = 0.5 * (a - q).sum(axis=1)
            h = g + 0.5 * (a * (2.0 * q - a)).sum(axis=1)
            # the minimum lies downhill of x; a step that leaves the bracket,
            # or has no positive curvature, bisects it instead
            lo, hi = np.where(g < 0.0, x, lo), np.where(g > 0.0, x, hi)
            newton = x - g / np.where(h > 0.0, h, np.inf)
            inside = (lo <= newton) & (newton <= hi)
            x, step = np.where(inside, newton, 0.5 * (lo + hi)), np.abs(newton - x)
            if np.all(np.where(inside, step <= _NEWTON_STEP_TOL, hi - lo <= _BRACKET_TOL)):
                break
        lam = np.where(x == x0, lams[best], np.clip(np.exp(x), lams[0], lams[-1]))
        polished = _finite(self._score(s, u2, lam[:, None]))
        grid_best = values[best, np.arange(best.size)]
        keep = polished < grid_best
        return values, np.where(keep, lam, lams[best]), np.where(keep, polished, grid_best)

    def df(self, eta: Hyperparameters) -> float:
        """Ridge degrees of freedom from the eigenvalues of A at eta."""
        return shrinkage_df(np.linalg.eigvalsh(self._reduced(eta.beta)[0]), eta.lam)


@dataclass(frozen=True)
class HyperoptResult:
    """Outcome of the two-stage search; eta_hat attains the trace minimum.

    The edge flags are set when lambda or beta lies on the boundary of the
    search box, where the likelihood may keep falling outside it.
    """

    eta_hat: Hyperparameters
    objective_value: float
    trace: tuple[tuple[float, float, float], ...]
    lambda_on_edge: bool
    beta_on_edge: bool


def neg_log_marginal(obj: RidgeMarginal, eta: Hyperparameters) -> float:
    """Value of 0.5 log det(lam Phi K Phi^T + I) + 0.5 v~^T (lam Phi K Phi^T + I)^{-1} v~.

    Additive constants are fixed to zero by convention. Scored by the
    search's own path, :meth:`RidgeMarginal.profile` at the single point eta.
    """
    return obj.profile(np.array([eta.lam]), [eta.beta])[0][0, 0]


def _bounded_brent(func, lo: float, hi: float, xatol: float) -> None:
    """Minimize ``func`` on [lo, hi] by Brent's bounded method (R. Brent,
    1973): golden-section steps with parabolic interpolation, stopping when
    the bracket around the best point is within about xatol of it.

    A line-for-line port of scipy's ``_minimize_scalar_bounded``, with its
    variable names, so it calls ``func`` at the same points in the same
    order, at most 500 times (scipy's default). Callers read the evaluations
    ``func`` records; nothing is returned.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break


def optimize_hyperparameters(obj) -> HyperoptResult:
    """Two-stage deterministic search for (lambda, beta) inside the fixed box.

    Stage 1 scores the 17 x 19 grid of :class:`PipelineConfig` in one
    ``obj.profile(lams, betas)`` call; for the ridge-marginal objectives that
    is one eigendecomposition of the reduced n x n form per beta and O(n) per
    lambda. The trace lists the grid first, ascending log10 lambda outer and
    ascending beta inner. Stage 2 adds each grid beta's polished best lambda,
    then runs a bounded Brent search over the lambda-profiled likelihood
    between the grid neighbours of the best beta, one ``obj.profile`` of a
    single beta per point. Every point stays in the box, and the returned
    pair attains the minimum over the trace, so the result is never worse
    than the best grid point. The ridge objectives raise InvalidDataError
    from ``profile`` when a grid or polished value is not finite.
    """
    values, lam_star, value_star = obj.profile(_LAMS, _BETAS)
    trace = [
        (lam, beta, value)
        for lam, row in zip(_LAMS.tolist(), values.tolist())
        for beta, value in zip(_BETAS, row)
    ]
    trace.extend(zip(lam_star.tolist(), _BETAS, value_star.tolist()))
    j = int(np.argmin(value_star))
    lo, hi = _BETAS[max(j - 1, 0)], _BETAS[min(j + 1, len(_BETAS) - 1)]

    def profiled(beta: float) -> float:
        _, lam, value = obj.profile(_LAMS, [float(beta)])
        trace.append((float(lam[0]), float(beta), float(value[0])))
        return trace[-1][2]

    _bounded_brent(profiled, lo, hi, _BETA_TOL)

    lam_best, beta_best, value_best = min(trace, key=lambda entry: entry[2])
    return HyperoptResult(
        eta_hat=Hyperparameters(lam_best, beta_best),
        objective_value=value_best,
        trace=tuple(trace),
        lambda_on_edge=bool(not _LAMS[0] < lam_best < _LAMS[-1]),
        beta_on_edge=bool(not _BETAS[0] < beta_best < _BETAS[-1]),
    )


def _step(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except KmaxentError as exc:
        raise PipelineError(name, str(exc)) from exc


def _fit(route: str, family: KernelFamily, n: int, objective, solve, jitter=0.0):
    """Shared tail of both pipelines: search, coefficient solve, degrees of
    freedom and the result tagged ``<route>-<family>``, whose construction
    runs the root check.

    ``solve(spec, eta)`` is the coefficient solve of ``route`` ("me" or
    "pem"); failures name the step ``hyperparameters`` or ``kernel_<route>``.
    """
    hyper = _step("hyperparameters", optimize_hyperparameters, objective)
    spec = KernelSpec(family, hyper.eta_hat.beta, n + 1)
    b_hat = _step(f"kernel_{route}", solve, spec, hyper.eta_hat)
    return EstimateResult(
        b_hat=b_hat,
        eta_hat=hyper.eta_hat,
        df=objective.df(hyper.eta_hat),
        method_tag=Method(f"{route}-{family.value}"),
        jitter_used=jitter,
    )


def run_pipeline(
    y: TimeSeries, n: int, kernel_family: KernelFamily, low_order: int = 4
) -> EstimateResult:
    """Full kernel-based maximum-entropy estimation.

    Executes, in order: preliminary leading-coefficient estimate (Yule-Walker
    at order ``low_order``), covariance lags and Toeplitz assembly at order
    ``n``, Cholesky factorization (with capped jitter), whitened design
    construction, marginal-likelihood hyperparameter search, and the
    closed-form coefficient solve at the selected hyperparameters; degrees of
    freedom (from the search's reduced form) and the minimum-phase root check
    are evaluated on the result. Deterministic given its inputs.
    """
    N = y.n_samples
    if not 0 < n < N:
        raise InvalidOrderError(f"order n={n} must satisfy 0 < n < N={N}")
    kernel_family = KernelFamily(kernel_family)
    b0 = _step("preliminary_b0", preliminary_b0, y, low_order)
    lags = _step("estimate_lags", estimate_lags, y, n)
    cov = _step("build_toeplitz", build_toeplitz, lags)
    factor = _step("cholesky", cholesky, cov)
    if factor.jitter > 0.0:
        # keep all downstream solves consistent with the repaired matrix,
        # which is again Toeplitz (the shift only moves r_0)
        adjusted = lags.copy()
        adjusted[0] += factor.jitter
        cov = build_toeplitz(adjusted)
    design = _step("whittle_design", build_whittle_design, factor, b0, N, n)
    objective = _step("hyperparameters", RidgeMarginal.whittle, design, cov, kernel_family)
    solve = partial(kernel_me, design, cov)
    return _fit("me", kernel_family, n, objective, solve, factor.jitter)


def run_pem_pipeline(
    y: TimeSeries, n: int, kernel_family: KernelFamily, low_order: int = 4
) -> EstimateResult:
    """Kernel-regularized predictor baseline with tuned hyperparameters.

    Shares the marginal-likelihood search and the fit tail with
    :func:`run_pipeline`, applied to the lagged-regression form of the data.
    Its Gram is built once by :func:`lagged_gram` (autocorrelation sums minus
    the 2n edge rows); the objective takes its blocks and :func:`kernel_pem`
    the whole matrix, so no N x n design is formed and memory is O(N + n^2).
    Like :func:`run_pipeline` it runs the preliminary b_0 step first. Raises
    InvalidOrderError unless N > 2n >= 2.
    """
    kernel_family = KernelFamily(kernel_family)
    b0 = _step("preliminary_b0", preliminary_b0, y, low_order)
    gram = lagged_gram(y, n)
    moments = gram[1:, 1:], gram[1:, 0], gram[0, 0]
    objective = _step("hyperparameters", RidgeMarginal.regression, *moments, b0, kernel_family)
    return _fit("pem", kernel_family, n, objective, partial(kernel_pem, y, gram))
