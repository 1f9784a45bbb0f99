"""Total-variation influence: exact interdependence matrices and decay profiles.

Entry (i, j) of the interdependence matrix is the largest total-variation
shift a flip of symbol i can cause in step j's kernel, maximized over every
assignment of the remaining history coordinates (the same assignment on both
sides of the flip).  Each step's kernel table (``step_table``) spans the
declared context signature only: coordinates a step never reads are
structural zeros, and all out-of-signature coordinates are pinned to symbol
0, which is exact by the context-honesty contract.
"""

from __future__ import annotations

import numpy as np

from .process import ProcessSpec, ensure_budget, step_table

# interdependence_matrix stacks step tables this many cells at a time (one
# table at least), so its temporaries stay within about three chunks.
INFLUENCE_CHUNK_CELLS = 2**18


def influence_entries(h) -> np.ndarray:
    """``h`` as a float array, checked as an influence matrix: square, finite,
    strictly upper triangular, entries in [0, 1]."""
    arr = np.asarray(h, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"influence matrix must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("influence matrix has non-finite entries")
    if np.any(np.tril(arr) != 0.0):
        raise ValueError("influence matrix must be strictly upper triangular")
    if arr.size and (float(arr.min()) < 0.0 or float(arr.max()) > 1.0 + 1e-12):
        raise ValueError("influence entries must lie in [0, 1]")
    return arr


def tv_distance(mu, nu) -> float:
    """Half the L1 distance between two probability vectors."""
    p = np.asarray(mu, dtype=float)
    q = np.asarray(nu, dtype=float)
    if p.ndim != 1 or p.shape != q.shape:
        raise ValueError(f"need two equal-length vectors, got shapes {p.shape} and {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())


def _max_pairwise_tv(stack: np.ndarray) -> np.ndarray:
    """Per leading index g, the largest TV distance between two slices of
    ``stack[g]`` along axis 1, each slice holding probability vectors along
    the last axis at matching positions.  Every pair's distance is summed
    over a contiguous last axis, so it has the bits of the same pair taken
    on its own."""
    best = np.zeros(stack.shape[0])
    for x in range(stack.shape[1] - 1):
        diffs = stack[:, x + 1:] - stack[:, x:x + 1]
        sums = np.abs(diffs, out=diffs).sum(axis=-1)
        del diffs  # freed before the next pair's differences are formed
        best = np.maximum(best, sums.reshape(best.size, -1).max(axis=1))
    return 0.5 * best


def dobrushin_coefficient(transition) -> float:
    """Largest TV distance between rows of a transition matrix."""
    p = np.asarray(transition, dtype=float)
    if p.ndim != 2:
        raise ValueError(f"transition must be a matrix, got shape {p.shape}")
    return float(_max_pairwise_tv(p[None, :, None])[0])


def influence_enumeration_cost(spec: ProcessSpec, prune: bool = True) -> int:
    """Kernel evaluations interdependence_matrix will need."""
    size = spec.alphabet.size
    total = 0
    for j in range(2, spec.horizon + 1):
        coords = spec.signature_coords(j) if prune else tuple(range(1, j))
        if coords:
            total += size ** len(coords)
    return total


def interdependence_matrix(spec: ProcessSpec, *, budget: int | None = None) -> np.ndarray:
    """Exact influence matrix from the per-step kernel tables, read-only.

    Entry (i, j) is the largest TV distance between rows of step j's table
    that differ only in coordinate i.  Steps with one signature length are
    stacked, INFLUENCE_CHUNK_CELLS table cells at a time, and each
    coordinate's entries over a stack come from one set of array operations.
    The matrix is built on first use and kept on the spec; the budget is
    checked on every call.
    """
    n, size = spec.horizon, spec.alphabet.size
    ensure_budget(influence_enumeration_cost(spec), budget, "influence matrix enumeration")
    infl = spec._derived.get("influence")
    if infl is not None:
        return infl
    by_length: dict[int, list[int]] = {}
    for j in range(2, n + 1):
        m = len(spec.signature_coords(j))
        if m:
            by_length.setdefault(m, []).append(j)
    out = np.zeros((n, n))
    for m, steps in by_length.items():
        per_chunk = max(1, INFLUENCE_CHUNK_CELLS // size ** (m + 1))
        for lo in range(0, len(steps), per_chunk):
            chunk = steps[lo:lo + per_chunk]
            shape = (len(chunk),) + (size,) * (m + 1)
            tables = np.stack([step_table(spec, j) for j in chunk]).reshape(shape)
            rows = np.array([spec.signature_coords(j) for j in chunk]) - 1
            cols = np.array(chunk) - 1
            for pos in range(m):
                # Coordinate pos on axis 1, the others flattened: a copy unless pos is 0.
                slices = np.moveaxis(tables, pos + 1, 1).reshape(len(chunk), size, -1, size)
                out[rows[:, pos], cols] = _max_pairwise_tv(slices)
                del slices  # so two copies are never held at once
    influence_entries(out)
    out.setflags(write=False)
    spec._derived["influence"] = out
    return out


def column_sum_alpha(h) -> float:
    """Largest column sum of the influence matrix (its induced l1 norm)."""
    arr = influence_entries(h)
    return float(arr.sum(axis=0).max()) if arr.size else 0.0


def uniform_decay_profile(h) -> np.ndarray:
    """phi_k = max_i H[i, i+k] for k = 1..N-1, as a read-only array.

    Read off H's nonzeros by their lag j - i in O(nnz) after one pass to find
    them; a lag with no nonzero reads 0."""
    arr = influence_entries(h)
    rows, cols = np.divmod(np.flatnonzero(arr != 0.0), arr.shape[1])
    phi = np.zeros(max(arr.shape[0] - 1, 0))
    np.maximum.at(phi, cols - rows - 1, arr[rows, cols])
    phi.setflags(write=False)
    return phi
