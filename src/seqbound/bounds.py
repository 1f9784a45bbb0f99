"""Catalog of sub-Gaussian tail bounds sharing the shape 2*exp(-2 t^2 / proxy).

Each entry is a variance proxy with applicability and certification flags.
Inapplicability is a typed result, never an exception: a baseline that
diverges is itself a finding worth a report row.  Comparison-only baselines
(whose literature constants are not reproduced exactly) carry
``certified=False`` and still use the shared tail shape so curves are
comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .influence import (
    column_sum_alpha,
    dobrushin_coefficient,
    interdependence_matrix,
    uniform_decay_profile,
)
from .process import ProcessSpec
from .resolvent import (
    causal_resolvent,
    decay_lower_bound,
    matrix_entries,
    spectral_decay,
    variance_proxy,
)
from .targets import as_sensitivity

ORDERING_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class TailBound:
    """One bound row: variance proxy plus applicability and provenance flags."""

    name: str
    proxy: float | None
    applicable: bool = True
    reason: str = ""
    certified: bool = True
    details: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.applicable:
            if self.proxy is None or self.proxy < 0 or not math.isfinite(self.proxy):
                raise ValueError(f"applicable bound {self.name} needs a finite proxy >= 0")
        elif self.proxy is not None:
            raise ValueError(f"inapplicable bound {self.name} must not carry a proxy")

    def delta_at(self, t: float) -> float:
        """Tail probability bound min(1, 2 exp(-2 t^2 / proxy))."""
        if not self.applicable:
            raise ValueError(f"bound {self.name} is not applicable: {self.reason}")
        t = float(t)
        if t < 0:
            raise ValueError(f"t must be nonnegative, got {t}")
        if self.proxy == 0.0:
            return 1.0 if t == 0.0 else 0.0
        return min(1.0, 2.0 * math.exp(-2.0 * t * t / self.proxy))


def _checked_alpha(alpha, name: str, upper: float = math.inf) -> float:
    a = float(alpha)
    if not math.isfinite(a) or a < 0.0 or a >= upper:
        top = "" if math.isinf(upper) else f" and below {upper:g}"
        raise ValueError(f"{name} requires a contraction coefficient >= 0{top}, got {alpha}")
    return a


def _free_sensitivity(c) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(c, dtype=float))
    return as_sensitivity(arr, arr.shape[0])


def exact_tail(gamma, c) -> TailBound:
    """The matrix-exact bound for a resolvent Gamma: proxy ||Gamma c||_2^2."""
    return TailBound(name="exact", proxy=variance_proxy(gamma, c))


def spectral_tail(gamma, c) -> TailBound:
    """Relaxation through the decay coefficient: proxy ||c||_2^2 / kappa,
    with kappa = 1 / ||Gamma||_2^2 for a resolvent Gamma."""
    vec = as_sensitivity(c, matrix_entries(gamma).shape[0])
    kappa = spectral_decay(gamma)
    return TailBound(
        name="spectral",
        proxy=float(vec @ vec) / kappa,
        details={"decay_coefficient": kappa},
    )


def uniform_decay_tail(profile, c) -> TailBound:
    """Proxy ||c||_2^2 / (1 - S)^2 from a distance-decay profile with sum S."""
    lower = decay_lower_bound(profile)
    phi = np.asarray(getattr(profile, "phi", profile), dtype=float)
    total = float(phi.sum())
    vec = _free_sensitivity(c)
    if lower is None:
        return TailBound(
            name="uniform_decay",
            proxy=None,
            applicable=False,
            reason=f"decay profile sums to {total:g}, not below 1",
            details={"profile_sum": total},
        )
    return TailBound(
        name="uniform_decay",
        proxy=float(vec @ vec) / lower,
        details={"profile_sum": total, "decay_lower_bound": lower},
    )


def scalar_collapse_tail(gamma, c) -> TailBound:
    """Certified but deliberately loose: both Gamma and c collapse to scalar norms,
    giving proxy N * ||Gamma||_inf^2 * ||c||_inf^2."""
    g = matrix_entries(gamma)
    n = g.shape[0]
    vec = as_sensitivity(c, n)
    ginf = float(np.abs(g).sum(axis=1).max()) if g.size else 0.0
    cinf = float(vec.max()) if vec.size else 0.0
    return TailBound(
        name="scalar_collapse",
        proxy=n * ginf ** 2 * cinf ** 2,
        details={"gamma_inf_norm": ginf, "c_inf": cinf},
    )


def markov_tail(alpha, c) -> TailBound:
    """Contracting-chain bound: proxy ||c||_2^2 / (1 - alpha)^2."""
    a = _checked_alpha(alpha, "markov_tail")
    vec = _free_sensitivity(c)
    if a >= 1.0:
        return TailBound(
            name="markov",
            proxy=None,
            applicable=False,
            reason=f"contraction coefficient {a:g} is not below 1",
            details={"alpha": a},
        )
    return TailBound(
        name="markov",
        proxy=float(vec @ vec) / (1.0 - a) ** 2,
        details={"alpha": a},
    )


def tree_tail(alpha, out_degree, horizon) -> TailBound:
    """Sub-critical tree bound for unit sensitivities: proxy N / (1 - alpha*D)^2."""
    d = int(out_degree)
    if d != out_degree or d < 1:
        raise ValueError(f"out-degree must be a positive integer, got {out_degree}")
    n = int(horizon)
    if n < 1:
        raise ValueError(f"horizon must be positive, got {horizon}")
    a = _checked_alpha(alpha, "tree_tail")
    if a * d >= 1.0:
        return TailBound(
            name="tree",
            proxy=None,
            applicable=False,
            reason=f"alpha * D = {a * d:g} reaches the critical value 1",
            details={"alpha": a, "out_degree": float(d)},
        )
    return TailBound(
        name="tree",
        proxy=n / (1.0 - a * d) ** 2,
        details={"alpha": a, "out_degree": float(d)},
    )


def sparse_terminal_tail(alpha, c_terminal) -> TailBound:
    """Dimension-free bound for a target reading only the last symbol.

    Valid when the influence column sums stay below alpha < 1; the proxy
    c_N^2 / (1 - alpha)^2 does not grow with the horizon.
    """
    a = _checked_alpha(alpha, "sparse_terminal_tail")
    c_n = float(c_terminal)
    if c_n < 0:
        raise ValueError(f"terminal sensitivity must be nonnegative, got {c_terminal}")
    if a >= 1.0:
        return TailBound(
            name="sparse_terminal",
            proxy=None,
            applicable=False,
            reason=f"column-sum coefficient {a:g} is not below 1",
            details={"alpha": a},
        )
    return TailBound(
        name="sparse_terminal",
        proxy=c_n ** 2 / (1.0 - a) ** 2,
        details={"alpha": a},
    )


def kontorovich_baseline(alpha, c) -> TailBound:
    """Unconditional geometric-matrix baseline, comparison-only.

    Builds the dense matrix with entries alpha^(j-i) above the diagonal and
    reports its infinity norm sum_{k=1}^{N-1} alpha^k.  The proxy
    N * ((1-alpha)/(1-2*alpha))^2 * ||c||_inf^2 diverges for alpha >= 1/2,
    which is flagged rather than raised.
    """
    a = _checked_alpha(alpha, "kontorovich_baseline", upper=1.0)
    vec = _free_sensitivity(c)
    n = vec.shape[0]
    cinf = float(vec.max()) if vec.size else 0.0
    delta_inf = float(sum(a ** k for k in range(1, n)))
    details: dict[str, float] = {"alpha": a, "delta_inf_norm": delta_inf, "c_inf": cinf}
    if a >= 0.5:
        return TailBound(
            name="kontorovich",
            proxy=None,
            applicable=False,
            certified=False,
            reason=f"geometric-matrix multiplier diverges for contraction {a:g} >= 1/2",
            details=details,
        )
    multiplier = ((1.0 - a) / (1.0 - 2.0 * a)) ** 2
    details["multiplier"] = multiplier
    return TailBound(
        name="kontorovich",
        proxy=n * multiplier * cinf ** 2,
        certified=False,
        reason="comparison-only multiplier; literature tail constants differ",
        details=details,
    )


def samson_baseline(alpha, c) -> TailBound:
    """Square-root contraction baseline, comparison-only: ||c||_2^2 / (1 - sqrt(alpha))^2."""
    a = _checked_alpha(alpha, "samson_baseline", upper=1.0)
    vec = _free_sensitivity(c)
    multiplier = 1.0 / (1.0 - math.sqrt(a)) ** 2
    return TailBound(
        name="samson",
        proxy=float(vec @ vec) * multiplier,
        certified=False,
        reason="comparison-only multiplier; literature tail constants differ",
        details={"alpha": a, "multiplier": multiplier},
    )


@dataclass(frozen=True, eq=False)
class BoundReport:
    """All bounds for one scenario, applicable rows first, sorted by proxy."""

    scenario: Mapping[str, object]
    bounds: tuple[TailBound, ...]

    def __getitem__(self, name: str) -> TailBound:
        for bound in self.bounds:
            if bound.name == name:
                return bound
        raise KeyError(name)

    def applicable(self) -> tuple[TailBound, ...]:
        return tuple(b for b in self.bounds if b.applicable)

    def best(self) -> TailBound:
        return self.bounds[0]

    def csv_rows(self, t_grid) -> list[tuple]:
        """Rows for the `bound,proxy,applicable,reason,t,delta` CSV."""
        grid = [float(t) for t in np.atleast_1d(np.asarray(t_grid, dtype=float))]
        rows: list[tuple] = []
        for bound in self.bounds:
            if not bound.applicable:
                rows.append((bound.name, None, False, bound.reason, None, None))
                continue
            for t in grid:
                rows.append((bound.name, bound.proxy, True, bound.reason, t, bound.delta_at(t)))
        return rows

    def table(self, t_grid=()) -> str:
        """Human-readable comparison table."""
        from .report import format_number

        grid = [float(t) for t in t_grid]
        lines = []
        header = ["bound", "proxy", "applicable", "certified"] + [f"delta(t={format_number(t)})" for t in grid]
        widths = [max(len(header[0]), max((len(b.name) for b in self.bounds), default=0))]
        rows = []
        for bound in self.bounds:
            row = [
                bound.name,
                format_number(bound.proxy) if bound.applicable else "-",
                "yes" if bound.applicable else f"no ({bound.reason})",
                "yes" if bound.certified else "no",
            ]
            for t in grid:
                row.append(format_number(bound.delta_at(t)) if bound.applicable else "-")
            rows.append(row)
        for col in range(1, len(header)):
            widths.append(max(len(header[col]), max((len(r[col]) for r in rows), default=0)))
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)


def compare_bounds(spec: ProcessSpec, f=None, c=None, budget: int | None = None) -> BoundReport:
    """Assemble every bound for the scenario, sorted by proxy.

    The sensitivity comes from ``c`` or, failing that, from the target's
    declared vector.  The exact row must be minimal among certified
    applicable rows; that ordering holds mathematically, so a violation
    raises instead of being reported as data.
    """
    if c is None:
        declared = getattr(f, "sensitivity", None)
        if declared is None:
            raise ValueError("need an explicit sensitivity vector or a target that declares one")
        c = declared
    vec = as_sensitivity(c, spec.horizon)
    infl = interdependence_matrix(spec, budget=budget)
    gamma = causal_resolvent(infl)
    exact = exact_tail(gamma, vec)
    rows = [
        exact,
        spectral_tail(gamma, vec),
        uniform_decay_tail(uniform_decay_profile(infl), vec),
        scalar_collapse_tail(gamma, vec),
    ]
    alpha_cols = column_sum_alpha(infl)
    if spec.family == "markov":
        a = dobrushin_coefficient(spec.meta["transition"])
        rows.append(markov_tail(a, vec))
        if a < 1.0:
            rows.append(kontorovich_baseline(a, vec))
            rows.append(samson_baseline(a, vec))
        else:
            reason = f"contraction coefficient {a:g} is not below 1"
            rows.append(TailBound("kontorovich", None, applicable=False, certified=False, reason=reason))
            rows.append(TailBound("samson", None, applicable=False, certified=False, reason=reason))
    if spec.family == "tree":
        a = float(infl.entries.max()) if infl.entries.size else 0.0
        d = max(int(spec.meta.get("out_degree", 0)), 1)
        if np.all(vec == 1.0):
            rows.append(tree_tail(a, d, spec.horizon))
        else:
            rows.append(TailBound(
                "tree", None, applicable=False,
                reason="stated for unit sensitivity vectors only",
                details={"alpha": a, "out_degree": float(d)},
            ))
    if vec.shape[0] >= 1 and np.all(vec[:-1] == 0.0):
        rows.append(sparse_terminal_tail(alpha_cols, float(vec[-1])))
    for row in rows:
        if row.applicable and row.certified and exact.proxy > row.proxy + ORDERING_TOLERANCE:
            raise RuntimeError(
                f"exact proxy {exact.proxy} exceeds certified relaxation {row.name} = {row.proxy}"
            )
    ordered = sorted(
        rows,
        key=lambda b: (0, b.proxy, b.name) if b.applicable else (1, 0.0, b.name),
    )
    scenario = {
        "family": spec.family,
        "horizon": spec.horizon,
        "alphabet": spec.alphabet.size,
        "target": getattr(f, "name", None) if f is not None else None,
        "sensitivity": tuple(float(v) for v in vec),
        "column_sum_alpha": alpha_cols,
    }
    return BoundReport(scenario=scenario, bounds=tuple(ordered))
