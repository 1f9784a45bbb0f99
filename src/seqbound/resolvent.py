"""Causal resolvents, operator norms, variance proxies, and spectral decay."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .influence import InterdependenceMatrix
from .targets import as_sensitivity

RESIDUAL_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class Resolvent:
    """Upper-triangular, unit-diagonal, entry-wise nonnegative matrix."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"resolvent must be square, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("resolvent has non-finite entries")
        if np.any(np.tril(arr, -1) != 0.0):
            raise ValueError("resolvent must be upper triangular")
        if np.abs(np.diagonal(arr) - 1.0).max() > 1e-12:
            raise ValueError("resolvent must have unit diagonal")
        if float(arr.min()) < 0.0:
            raise ValueError("resolvent entries must be nonnegative")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def matrix_entries(m) -> np.ndarray:
    """Raw float entries of a matrix, Resolvent, or InterdependenceMatrix."""
    if isinstance(m, (Resolvent, InterdependenceMatrix)):
        return m.entries
    return np.asarray(m, dtype=float)


def _strict_upper(h) -> np.ndarray:
    arr = matrix_entries(h)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"need a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has non-finite entries")
    if np.any(np.tril(arr) != 0.0):
        raise ValueError("matrix must be strictly upper triangular")
    if arr.size and float(arr.min()) < 0.0:
        raise ValueError("influence entries must be nonnegative")
    return arr


def causal_resolvent(h) -> Resolvent:
    """(I - H)^{-1} by exact back-substitution.

    Finite and exact because H is strictly upper triangular, hence nilpotent;
    equal to the Neumann sum of the first N powers of H.
    """
    arr = _strict_upper(h)
    n = arr.shape[0]
    gamma = np.eye(n)
    for i in range(n - 2, -1, -1):
        gamma[i, i + 1:] = arr[i, i + 1:] @ gamma[i + 1:, i + 1:]
    residual = np.abs((np.eye(n) - arr) @ gamma - np.eye(n)).max() if n else 0.0
    if residual > RESIDUAL_TOLERANCE:
        raise RuntimeError(f"resolvent residual {residual:.3e} exceeds {RESIDUAL_TOLERANCE}")
    return Resolvent(gamma)


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
    a = matrix_entries(matrix)
    if a.ndim != 2:
        raise ValueError(f"need a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if a.size == 0 or not a.any():
        return 0.0
    return float(np.linalg.norm(a, 2)) * (1.0 + 4.0 * max(a.shape) * np.finfo(float).eps)


def operator_norms(matrix) -> OperatorNorms:
    """Max column abs-sum, max row abs-sum, and spectral norm."""
    a = matrix_entries(matrix)
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
    g = matrix_entries(gamma)
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


def decay_lower_bound(profile) -> float | None:
    """(1 - S)^2 when the decay profile sums to S < 1; None otherwise."""
    phi = np.asarray(getattr(profile, "phi", profile), dtype=float)
    if phi.ndim != 1:
        raise ValueError(f"profile must be a vector, got shape {phi.shape}")
    if phi.size and float(phi.min()) < 0.0:
        raise ValueError("profile entries must be nonnegative")
    total = float(phi.sum())
    if total >= 1.0:
        return None
    return (1.0 - total) ** 2
