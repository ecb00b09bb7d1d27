"""Decay-encoding kernels through their structured roots and inverses.

Two prior covariance families for the predictor coefficient vector are
provided: a diagonal kernel with geometrically decaying variances ("di") and a
tuned-correlated kernel ("tc") that additionally couples neighbouring
coefficients. Entries follow the 1-based index convention (t, s = 1..n+1);
storage is 0-based with the exponent offset applied explicitly.

The tc kernel admits an exact inverse factorization K^{-1} = F D F^T with F
lower bidiagonal and D diagonal (:func:`inverse_factorization`), which gives
the kernel root of :func:`root_scale`. The search, the coefficient solves and
the degrees of freedom all work with that root; neither the dense kernel nor
its inverse is formed. The kernel itself is very ill-conditioned for decay
rates near one, while the root is benign. Kernel-PEM's prior K_bar, the
trailing n x n block of the size-(n+1) kernel, has as its root the
size-(n+1) root without its first scale.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidHyperparameterError


class KernelFamily(str, enum.Enum):
    DI = "di"
    TC = "tc"


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family, decay rate beta in (0, 1), and matrix size n + 1."""

    family: KernelFamily
    beta: float
    size: int

    def __post_init__(self):
        object.__setattr__(self, "family", KernelFamily(self.family))
        _check_beta(self.beta)
        if self.size < 1:
            raise InvalidHyperparameterError(f"kernel size must be >= 1, got {self.size}")


@dataclass(frozen=True)
class Hyperparameters:
    """Prior scale lam > 0 and kernel decay rate beta in (0, 1)."""

    lam: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise InvalidHyperparameterError(f"lambda must be finite and > 0, got {self.lam}")
        _check_beta(self.beta)


@dataclass(frozen=True)
class KernelFactorization:
    """Structured factorization K^{-1} = F diag(d) F^T of a kernel inverse."""

    F: np.ndarray
    d: np.ndarray


def _check_beta(beta: float) -> None:
    if not (np.isfinite(beta) and 0.0 < beta < 1.0):
        raise InvalidHyperparameterError(f"beta must lie strictly in (0, 1), got {beta}")


def _bidiagonal_difference(size: int) -> np.ndarray:
    F = np.eye(size)
    F[np.arange(1, size), np.arange(size - 1)] = -1.0
    return F


def inverse_factorization(spec: KernelSpec) -> KernelFactorization:
    """Structured inverse K^{-1} = F diag(d) F^T.

    For di, F is the identity and d_k = beta^{-k} (k = 1..n+1). For tc, F is
    lower bidiagonal (1 on the diagonal, -1 below) and
    d_k = 1 / ((beta - beta^2) * beta^{k-1}).
    """
    beta, size = spec.beta, spec.size
    if spec.family is KernelFamily.DI:
        return KernelFactorization(F=np.eye(size), d=beta ** -np.arange(1, size + 1))
    d = 1.0 / ((beta - beta**2) * beta ** np.arange(size))
    return KernelFactorization(F=_bidiagonal_difference(size), d=d)


def root_scale(spec: KernelSpec) -> np.ndarray:
    """Column scales c(beta) of the structured kernel root.

    The root is diag(c) for di and, for tc, the upper-triangular matrix of
    ones times diag(c), which follows from K^{-1} = F D F^T; it is well
    conditioned for every beta in (0, 1), unlike the kernel. Dropping the
    first row and column of either root leaves the same form in c[1:], the
    root of the kernel's trailing principal block.
    """
    beta, size = spec.beta, spec.size
    if spec.family is KernelFamily.DI:
        return np.sqrt(beta ** np.arange(1, size + 1))
    return np.sqrt((beta - beta**2) * beta ** np.arange(size))
