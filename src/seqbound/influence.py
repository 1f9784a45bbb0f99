"""Total-variation influence: exact interdependence matrices and decay profiles.

Entry (i, j) of the interdependence matrix is the largest total-variation
shift a flip of symbol i can cause in step j's kernel, maximized over every
assignment of the remaining history coordinates (the same assignment on both
sides of the flip).  Enumeration runs over the declared context signature
only: coordinates a step never reads are structural zeros, and all
out-of-signature coordinates are pinned to symbol 0, which is exact by the
context-honesty contract.  ``prune=False`` re-enables the full supremum for
cross-checking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .process import ProcessSpec, ensure_budget, kernel_at


@dataclass(frozen=True, eq=False)
class InterdependenceMatrix:
    """Strictly upper-triangular matrix of TV influence bounds in [0, 1]."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"influence matrix must be square, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("influence matrix has non-finite entries")
        if np.any(np.tril(arr) != 0.0):
            raise ValueError("influence matrix must be strictly upper triangular")
        if arr.size and (float(arr.min()) < 0.0 or float(arr.max()) > 1.0 + 1e-12):
            raise ValueError("influence entries must lie in [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def influence_entries(h) -> np.ndarray:
    """Entries of an InterdependenceMatrix, validating raw arrays on the way in."""
    if isinstance(h, InterdependenceMatrix):
        return h.entries
    return InterdependenceMatrix(np.asarray(h, dtype=float)).entries


def tv_distance(mu, nu) -> float:
    """Half the L1 distance between two probability vectors."""
    p = np.asarray(mu, dtype=float)
    q = np.asarray(nu, dtype=float)
    if p.ndim != 1 or p.shape != q.shape:
        raise ValueError(f"need two equal-length vectors, got shapes {p.shape} and {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())


def _max_pairwise_tv(rows: np.ndarray) -> float:
    """Largest TV distance between two slices along axis 0, each slice holding
    probability vectors along the last axis at matching positions."""
    best = 0.0
    for x in range(rows.shape[0] - 1):
        diffs = 0.5 * np.abs(rows[x + 1:] - rows[x]).sum(axis=-1)
        best = max(best, float(diffs.max()))
    return best


def dobrushin_coefficient(transition) -> float:
    """Largest TV distance between rows of a transition matrix."""
    p = np.asarray(transition, dtype=float)
    if p.ndim != 2:
        raise ValueError(f"transition must be a matrix, got shape {p.shape}")
    return _max_pairwise_tv(p)


def influence_enumeration_cost(spec: ProcessSpec, prune: bool = True) -> int:
    """Kernel evaluations interdependence_matrix will need."""
    size = spec.alphabet.size
    total = 0
    for j in range(2, spec.horizon + 1):
        coords = spec.signature_coords(j) if prune else tuple(range(1, j))
        if coords:
            total += size ** len(coords)
    return total


def interdependence_matrix(
    spec: ProcessSpec, prune: bool = True, budget: int | None = None
) -> InterdependenceMatrix:
    """Exact influence matrix by enumeration over context signatures.

    For each step j the kernel is tabulated over every assignment of the
    signature coordinates; entry (i, j) is then the largest TV distance
    between tabulated rows that differ only in coordinate i.
    """
    n, size = spec.horizon, spec.alphabet.size
    ensure_budget(influence_enumeration_cost(spec, prune), budget, "influence matrix enumeration")
    out = np.zeros((n, n))
    for j in range(2, n + 1):
        coords = spec.signature_coords(j) if prune else tuple(range(1, j))
        m = len(coords)
        if m == 0:
            continue
        table = np.empty((size,) * m + (size,))
        for assign in itertools.product(range(size), repeat=m):
            hist = [0] * (j - 1)
            for coord, val in zip(coords, assign):
                hist[coord - 1] = val
            table[assign] = kernel_at(spec, j, tuple(hist))
        for pos, coord in enumerate(coords):
            flat = np.moveaxis(table, pos, 0).reshape(size, -1, size)
            out[coord - 1, j - 1] = _max_pairwise_tv(flat)
    return InterdependenceMatrix(out)


def column_sum_alpha(h) -> float:
    """Largest column sum of the influence matrix (its induced l1 norm)."""
    arr = influence_entries(h)
    return float(arr.sum(axis=0).max()) if arr.size else 0.0


@dataclass(frozen=True)
class DecayProfile:
    """Distance-k influence maxima and their total."""

    phi: tuple[float, ...]
    total: float
    sub_critical: bool


def uniform_decay_profile(h) -> DecayProfile:
    """phi_k = max_i H[i, i+k] for k = 1..N-1, with S = sum phi_k."""
    arr = influence_entries(h)
    n = arr.shape[0]
    phi = tuple(float(np.diagonal(arr, offset=k).max()) for k in range(1, n))
    total = float(sum(phi))
    return DecayProfile(phi=phi, total=total, sub_critical=total < 1.0)
