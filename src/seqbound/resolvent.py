"""Causal resolvents, operator norms, variance proxies, and spectral decay."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ResolventOverflowError
from .targets import as_sensitivity

# _check_inverse forms the residual this many cells at a time (one row at least).
RESIDUAL_BLOCK_CELLS = 2**16


def _row_supports(h: np.ndarray):
    """h's nonzeros: their rows, columns and values in row-major order, and
    per row i the pair (H[i, K_i], K_i) over the columns K_i where row i is
    nonzero.  Adjacent columns (a chain, a window) are a slice, so the rows
    they select are read as a view, not copied."""
    # The flat indices of a boolean mask come several times faster than
    # np.nonzero of the float matrix.
    rows, cols = np.divmod(np.flatnonzero(h != 0.0), h.shape[1])
    vals = h[rows, cols]
    starts = np.searchsorted(rows, np.arange(h.shape[0] + 1)).tolist()
    first = cols.tolist()
    supports = []
    for a, b in zip(starts, starts[1:]):
        lo, hi = (first[a], first[b - 1] + 1) if b > a else (0, 0)
        supports.append((vals[a:b], slice(lo, hi) if hi - lo == b - a else cols[a:b]))
    return rows, cols, vals, supports


def causal_resolvent(h) -> np.ndarray:
    """(I - H)^{-1} by exact back-substitution over H's nonzeros, read-only.

    Finite and exact because H is strictly upper triangular, hence nilpotent;
    equal to the Neumann sum of the first N powers of H.  Row i is
    Gamma[i, i+1:] = H[i, K_i] @ Gamma[K_i, i+1:] over the columns K_i where
    row i of H is nonzero, so the solve, like its residual check, costs
    O(N * nnz(H)): O(N^2) for the independent, Markov and tree families, whose
    columns hold at most one nonzero, O(W N^2) for a width-W window, O(N^3)
    only for a dense H.  Back-substitution from the identity keeps the unit
    diagonal and, as H is nonnegative, every entry nonnegative; only overflow
    can spoil the result, which raises ResolventOverflowError (a ValueError).
    """
    arr = np.asarray(h, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"need a square matrix, got shape {arr.shape}")
    rows, cols, vals, supports = _row_supports(arr)
    if not np.all(np.isfinite(vals)):
        raise ValueError("matrix has non-finite entries")
    if np.any(rows >= cols):
        raise ValueError("matrix must be strictly upper triangular")
    if vals.size and float(vals.min()) < 0.0:
        raise ValueError("influence entries must be nonnegative")
    n = arr.shape[0]
    gamma = np.eye(n)
    # Overflow is reported by the error below, not by a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 2, -1, -1):
            values, k = supports[i]
            if values.size:
                gamma[i, i + 1:] = values @ gamma[k, i + 1:]
    # A NaN residual compares False in _check_inverse, so overflow is caught here.
    if not np.all(np.isfinite(gamma)):
        raise ResolventOverflowError("resolvent has non-finite entries")
    _check_inverse(arr, gamma, supports)
    gamma.setflags(write=False)
    return gamma


def _check_inverse(h: np.ndarray, gamma: np.ndarray, supports=None) -> None:
    """Raise unless every entry of (I - H) gamma - I is within the backward
    error of substitution, n * eps * ||I + H||_inf * ||gamma||_inf.  Where
    alpha > 1, gamma grows geometrically in N and an absolute tolerance would
    reject it.

    Row i of the residual is gamma[i] - e_i - H[i, K_i] @ gamma[K_i], from
    ``supports`` (``_row_supports(h)[3]``, found here if not given).  Rows
    are formed a block of RESIDUAL_BLOCK_CELLS cells at a time: O(N * nnz(H))
    time, no dense product and no N x N temporary."""
    if supports is None:
        supports = _row_supports(h)[3]
    n = h.shape[0]
    step = max(1, RESIDUAL_BLOCK_CELLS // max(n, 1))
    residual = 0.0
    for lo in range(0, n, step):
        block = gamma[lo:lo + step].copy()
        block.reshape(-1)[lo::n + 1] -= 1.0  # entry (i, i) of each row i in the block
        for r, (values, k) in enumerate(supports[lo:lo + step]):
            if values.size:
                block[r] -= values @ gamma[k]
        residual = max(residual, float(np.abs(block).max()))
    scale = (1.0 + h.sum(axis=1).max(initial=0.0)) * gamma.sum(axis=1).max(initial=0.0)
    bound = n * np.finfo(float).eps * scale
    if residual > bound:
        raise RuntimeError(f"resolvent residual {residual:.3e} exceeds {bound:.3e}")


class OperatorNorms(NamedTuple):
    l1: float
    linf: float
    l2: float


def spectral_norm(matrix) -> float:
    """Largest singular value, rounded outward.

    Where every column holds at most one nonzero, the rows have disjoint
    supports, so A A^T is diagonal and ||A||_2 is exactly the largest row
    Euclidean norm; where every row holds at most one, the same holds for
    columns.  That covers H of the independent, Markov and tree families, as
    a step reads at most its parent, and costs O(rows * cols).  Any other
    matrix takes a LAPACK SVD, O(N^3).

    The closed form has relative error at most (max(shape) / 2 + 2) * eps;
    the SVD is backward stable: the computed value is the exact norm of a
    matrix within a small multiple of machine epsilon of the input, relative
    to its norm.  Multiplying by 1 + 4 * max(shape) * eps covers either
    error, so certified rows built on this norm never under-report.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"need a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if a.size == 0 or not a.any():
        return 0.0
    rows, cols = np.divmod(np.flatnonzero(a != 0.0), a.shape[1])
    for owner, other in ((rows, cols), (cols, rows)):
        if np.bincount(other).max() <= 1:
            # Scaled by the largest entry, so no square overflows and only
            # squares far below the largest norm's underflow.
            vals = np.abs(a[rows, cols])
            scale = float(vals.max())
            top = scale * math.sqrt(float(np.bincount(owner, weights=(vals / scale) ** 2).max()))
            break
    else:
        top = float(np.linalg.norm(a, 2))
    return top * (1.0 + 4.0 * max(a.shape) * np.finfo(float).eps)


def operator_norms(matrix) -> OperatorNorms:
    """Max column abs-sum, max row abs-sum, and spectral norm; the input is
    checked by ``spectral_norm``."""
    a = np.asarray(matrix, dtype=float)
    l2 = spectral_norm(a)
    if a.size == 0:
        return OperatorNorms(0.0, 0.0, 0.0)
    magnitudes = np.abs(a)
    l1 = float(magnitudes.sum(axis=0).max())
    linf = float(magnitudes.sum(axis=1).max())
    return OperatorNorms(l1, linf, l2)


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
