"""Calibrated sliding-window scenarios.

Builds a local-context mixture kernel and tunes its mixing weight so the
largest column sum of the exact influence matrix hits a requested value.

The kernel at step j mixes a uniform floor with one point mass per visible
context coordinate: the coordinate at distance d (the d-th most recent
symbol) contributes weight beta * decay**(d-1) at a symbol obtained by
adding a hashed (step, distance) offset to the context symbol.  The offsets
are hashed once per spec, into an (N, W) table the kernel reads, and the
floor is computed once per visible width; the kernel returns a Python list,
the floor with each point mass added for d = 1, ..., visible.  Because the
offset map is injective in the symbol, changing the context coordinate at
distance d always moves its point mass, so the influence matrix is exactly
the banded matrix H[j-d, j] = beta * decay**(d-1), and beta is solved in
closed form from the weight profile.  The geometric decay concentrates
influence on recent context, which keeps the variance proxy of terminal
targets essentially independent of the horizon while the kernel still
genuinely reads the full window.
"""

from __future__ import annotations

from .errors import CalibrationError
from .influence import column_sum_alpha, interdependence_matrix
from .process import ProcessSpec, build_sliding_window

CALIBRATION_TOLERANCE = 1e-3
# Ratio between the influence weights of consecutive window distances.
WINDOW_INFLUENCE_DECAY = 0.2

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a cheap, well-distributed 64-bit permutation."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def window_point_symbol(step: int, distance: int, symbol: int, alphabet_size: int) -> int:
    """Deterministic point-mass location for one context coordinate.

    A hashed offset per (step, distance) is added to the context symbol
    modulo the alphabet, so distinct symbols always map to distinct points.
    """
    salt = _mix64(_mix64((int(step) + 1) * _GOLDEN) ^ (int(distance) * _GOLDEN))
    return (salt + int(symbol)) % int(alphabet_size)


def _weight_profile(width: int) -> tuple[float, ...]:
    return tuple(WINDOW_INFLUENCE_DECAY ** (d - 1) for d in range(1, int(width) + 1))


def _mixture_window_spec(horizon: int, alphabet_size: int, width: int, beta: float) -> ProcessSpec:
    size = int(alphabet_size)
    weights = tuple(beta * w for w in _weight_profile(width))
    if beta < 0.0 or sum(weights) > 1.0 + 1e-12:
        raise ValueError(f"mixing weight {beta} leaves no probability for the uniform floor")

    def window_kernel(step: int, window) -> list[float]:
        visible = len(window)
        vec = [floors[visible]] * size
        row = offsets[step - 1]
        for d in range(1, visible + 1):
            vec[(row[d - 1] + window[-d]) % size] += weights[d - 1]
        return vec

    spec = build_sliding_window(width, window_kernel, horizon, size)
    # Computed once per spec, after the alphabet is validated: offsets[j-1][d-1]
    # is window_point_symbol(j, d, 0, A), so the kernel's point mass lands on
    # window_point_symbol(j, d, x, A); floors[v] is the uniform floor of a
    # row that sees v context symbols.
    offsets = [
        tuple(window_point_symbol(j, d, 0, size) for d in range(1, len(weights) + 1))
        for j in range(1, spec.horizon + 1)
    ]
    floors = [(1.0 - sum(weights[:v])) / size for v in range(len(weights) + 1)]
    return spec


def build_calibrated_window(
    horizon: int,
    alphabet_size: int,
    width: int,
    target_alpha: float,
    budget: int | None = None,
) -> ProcessSpec:
    """Window spec whose exact influence matrix has largest column sum target_alpha.

    The last column sees the most distances, so the largest column sum is
    beta times the weight profile summed over min(width, horizon - 1)
    distances; beta is solved from it, and ``check_calibration`` re-verifies
    it against the exact influence matrix, which stays on the spec.  From
    horizon width + 1 on, beta no longer depends on the horizon, so the
    build at a smaller such horizon is this spec's leading steps.  Raises
    ValueError for a width or horizon below 1, and CalibrationError when the
    target is out of range or missed by ``CALIBRATION_TOLERANCE``.
    """
    target = float(target_alpha)
    if not 0.0 <= target < 1.0:
        raise CalibrationError(f"target influence must lie in [0, 1), got {target}")
    if int(width) < 1 or int(horizon) < 1:
        raise ValueError(f"window width and horizon must be positive, got {width} and {horizon}")

    profile = _weight_profile(width)
    reach = sum(profile[: int(horizon) - 1])
    if target > 0.0 and reach == 0.0:
        raise CalibrationError(
            f"the window kernel carries no context influence; cannot calibrate to {target}"
        )
    beta = 0.0 if target == 0.0 else target / reach
    if beta * sum(profile) > 1.0 + 1e-12:
        raise CalibrationError(
            f"target {target} needs mixing weight {beta:.6g}, beyond the valid "
            f"maximum {1.0 / sum(profile):.6g}"
        )

    spec = _mixture_window_spec(horizon, alphabet_size, width, beta)
    spec.meta.update({"beta": beta, "decay": WINDOW_INFLUENCE_DECAY, "target_alpha": target})
    return check_calibration(spec, budget)


def check_calibration(spec: ProcessSpec, budget: int | None = None) -> ProcessSpec:
    """Verify a calibrated window spec against its own exact influence matrix.

    Raises CalibrationError when the largest column sum misses the spec's
    ``target_alpha`` by more than ``CALIBRATION_TOLERANCE``; otherwise
    records it as ``achieved_alpha`` and returns the spec.  A sweep runs it
    on each horizon it reads off a larger build's leading steps.
    """
    target = spec.meta["target_alpha"]
    achieved = column_sum_alpha(interdependence_matrix(spec, budget=budget))
    if abs(achieved - target) > CALIBRATION_TOLERANCE:
        raise CalibrationError(
            f"calibration missed: target {target}, achieved {achieved:.9g} "
            f"(tolerance {CALIBRATION_TOLERANCE})"
        )
    spec.meta["achieved_alpha"] = achieved
    return spec
