"""Causal resolvents, operator norms, variance proxies, and spectral decay."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .targets import as_sensitivity


def causal_resolvent(h) -> np.ndarray:
    """(I - H)^{-1} by exact back-substitution, read-only.

    Finite and exact because H is strictly upper triangular, hence nilpotent;
    equal to the Neumann sum of the first N powers of H.  Back-substitution
    from the identity keeps the unit diagonal and, as H is nonnegative, every
    entry nonnegative; only overflow can spoil the result.
    """
    arr = np.asarray(h, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"need a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has non-finite entries")
    if np.any(np.tril(arr) != 0.0):
        raise ValueError("matrix must be strictly upper triangular")
    if arr.size and float(arr.min()) < 0.0:
        raise ValueError("influence entries must be nonnegative")
    n = arr.shape[0]
    gamma = np.eye(n)
    for i in range(n - 2, -1, -1):
        gamma[i, i + 1:] = arr[i, i + 1:] @ gamma[i + 1:, i + 1:]
    # A NaN residual compares False in _check_inverse, so overflow is caught here.
    if not np.all(np.isfinite(gamma)):
        raise ValueError("resolvent has non-finite entries")
    _check_inverse(arr, gamma)
    gamma.setflags(write=False)
    return gamma


def _check_inverse(h: np.ndarray, gamma: np.ndarray) -> None:
    """Raise unless (I - H) gamma - I is within the backward error of
    substitution, n * eps * ||I + H||_inf * ||gamma||_inf.  Where alpha > 1,
    gamma grows geometrically in N and an absolute tolerance would reject it."""
    n = h.shape[0]
    residual = np.abs((np.eye(n) - h) @ gamma - np.eye(n)).max(initial=0.0)
    scale = (1.0 + h.sum(axis=1).max(initial=0.0)) * gamma.sum(axis=1).max(initial=0.0)
    bound = n * np.finfo(float).eps * scale
    if residual > bound:
        raise RuntimeError(f"resolvent residual {residual:.3e} exceeds {bound:.3e}")


class OperatorNorms(NamedTuple):
    l1: float
    linf: float
    l2: float


def spectral_norm(matrix) -> float:
    """Largest singular value from LAPACK, rounded outward.

    The SVD is backward stable: the computed value is the exact norm of a
    matrix within a small multiple of machine epsilon of the input, relative
    to its norm.  Multiplying by 1 + 4 * max(shape) * eps covers that error,
    so certified rows built on this norm never under-report.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"need a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if a.size == 0 or not a.any():
        return 0.0
    return float(np.linalg.norm(a, 2)) * (1.0 + 4.0 * max(a.shape) * np.finfo(float).eps)


def operator_norms(matrix) -> OperatorNorms:
    """Max column abs-sum, max row abs-sum, and spectral norm."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"need a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if a.size == 0:
        return OperatorNorms(0.0, 0.0, 0.0)
    l1 = float(np.abs(a).sum(axis=0).max())
    linf = float(np.abs(a).sum(axis=1).max())
    return OperatorNorms(l1, linf, spectral_norm(a))


def variance_proxy(gamma, c) -> float:
    """Squared l2 norm of Gamma @ c: the denominator of the sub-Gaussian exponent."""
    g = np.asarray(gamma, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"need a square matrix, got shape {g.shape}")
    vec = as_sensitivity(c, g.shape[0])
    prod = g @ vec
    return float(prod @ prod)


def spectral_decay(gamma) -> float:
    """Decay coefficient 1 / ||Gamma||_2^2; in (0, 1] for valid resolvents."""
    s = spectral_norm(gamma)
    if s == 0.0:
        raise ValueError("spectral decay undefined for the zero matrix")
    return 1.0 / (s * s)


def decay_lower_bound(phi) -> float | None:
    """(1 - S)^2 when the decay profile phi's correctly rounded sum S is
    below 1; None otherwise."""
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 1:
        raise ValueError(f"profile must be a vector, got shape {phi.shape}")
    if phi.size and float(phi.min()) < 0.0:
        raise ValueError("profile entries must be nonnegative")
    total = math.fsum(phi)
    if total >= 1.0:
        return None
    return (1.0 - total) ** 2
