"""Catalog of sub-Gaussian tail bounds sharing the shape 2*exp(-2 t^2 / proxy).

Each entry is a variance proxy, or None with the reason the bound does not
apply, plus a certification flag.  Inapplicability is a typed result, never
an exception: a baseline that diverges is itself a finding worth a report
row, and so is a proxy that overflows double precision.  Every coefficient
is read off the influence matrix H.  Comparison-only baselines
(whose literature constants are not reproduced exactly) carry
``certified=False`` and still use the shared tail shape so curves are
comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ResolventOverflowError
from .influence import column_sum_alpha, interdependence_matrix, uniform_decay_profile
from .process import ProcessSpec
from .resolvent import (
    causal_resolvent,
    decay_lower_bound,
    spectral_decay,
    variance_proxy,
)
from .targets import as_sensitivity

ORDERING_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class TailBound:
    """One bound row: its variance proxy, or None with the reason it does not
    apply, plus provenance flags."""

    name: str
    proxy: float | None
    reason: str = ""
    certified: bool = True
    details: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.proxy is not None and not (math.isfinite(self.proxy) and self.proxy >= 0):
            raise ValueError(f"bound {self.name} needs a finite proxy >= 0 or None, got {self.proxy}")

    @property
    def applicable(self) -> bool:
        return self.proxy is not None

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


def _checked_alpha(alpha, name: str) -> float:
    a = float(alpha)
    if not math.isfinite(a) or a < 0.0:
        raise ValueError(f"{name} requires a contraction coefficient >= 0, got {alpha}")
    return a


def _not_contracting(name: str, a: float, word: str = "contraction", certified: bool = True) -> TailBound:
    """The inapplicable row of a bound that needs a ``word`` coefficient below 1."""
    return TailBound(name, None, f"{word} coefficient {a:g} is not below 1", certified, {"alpha": a})


def _row(
    name: str, proxy: float, quantity: str, details=None, certified: bool = True, reason: str = ""
) -> TailBound:
    """The row with ``proxy``, or, where ``proxy`` is not a finite double, the
    inapplicable row saying ``quantity`` overflows."""
    if math.isfinite(proxy):
        return TailBound(name, proxy, reason, certified, details or {})
    return TailBound(name, None, f"{quantity} overflows double precision", certified, details or {})


def _free_sensitivity(c) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(c, dtype=float))
    return as_sensitivity(arr, arr.shape[0])


def _squared_norm(vec: np.ndarray) -> float:
    """||vec||_2^2, inf where it overflows, without a numpy warning."""
    with np.errstate(over="ignore"):
        return float(vec @ vec)


def exact_tail(gamma, c) -> TailBound:
    """The matrix-exact bound for a resolvent Gamma: proxy ||Gamma c||_2^2,
    inapplicable where that overflows (Gamma grows geometrically when alpha > 1)."""
    with np.errstate(over="ignore"):
        proxy = variance_proxy(gamma, c)
    return _row("exact", proxy, "proxy ||Gamma c||_2^2")


def spectral_tail(gamma, c) -> TailBound:
    """Relaxation through the decay coefficient: proxy ||c||_2^2 / kappa,
    with kappa = 1 / ||Gamma||_2^2 for a resolvent Gamma; inapplicable where
    ||Gamma||_2^2 or the proxy overflows."""
    vec = as_sensitivity(c, np.shape(gamma)[0])
    with np.errstate(over="ignore"):
        kappa = spectral_decay(gamma)
        proxy = float(vec @ vec) / kappa if kappa > 0.0 else math.inf
    quantity = "||Gamma||_2^2" if kappa == 0.0 else "proxy ||c||_2^2 / kappa"
    return _row("spectral", proxy, quantity, {"decay_coefficient": kappa})


def uniform_decay_tail(phi, c) -> TailBound:
    """Proxy ||c||_2^2 / (1 - S)^2 from a distance-decay profile phi with sum S,
    inapplicable where S >= 1 or the proxy overflows."""
    lower = decay_lower_bound(phi)
    total = math.fsum(phi)
    vec = _free_sensitivity(c)
    if lower is None:
        reason = f"decay profile sums to {total:g}, not below 1"
        return TailBound("uniform_decay", None, reason, details={"profile_sum": total})
    return _row(
        "uniform_decay",
        _squared_norm(vec) / lower,
        "proxy ||c||_2^2 / (1 - S)^2",
        details={"profile_sum": total, "decay_lower_bound": lower},
    )


def scalar_collapse_tail(gamma, c) -> TailBound:
    """Certified but deliberately loose: both Gamma and c collapse to scalar norms,
    giving proxy N * ||Gamma||_inf^2 * ||c||_inf^2, inapplicable where that
    overflows."""
    g = np.asarray(gamma, dtype=float)
    n = g.shape[0]
    vec = as_sensitivity(c, n)
    with np.errstate(over="ignore"):
        ginf = float(np.abs(g).sum(axis=1).max()) if g.size else 0.0
    cinf = float(vec.max()) if vec.size else 0.0
    details = {"gamma_inf_norm": ginf, "c_inf": cinf}
    # Products, not powers: a float power raises OverflowError.
    proxy = n * (ginf * ginf) * (cinf * cinf)
    return _row("scalar_collapse", proxy, "proxy N * ||Gamma||_inf^2 * ||c||_inf^2", details)


def markov_tail(alpha, c) -> TailBound:
    """Contracting-chain bound: proxy ||c||_2^2 / (1 - alpha)^2, inapplicable
    where that overflows."""
    a = _checked_alpha(alpha, "markov_tail")
    vec = _free_sensitivity(c)
    if a >= 1.0:
        return _not_contracting("markov", a)
    return _row(
        "markov",
        _squared_norm(vec) / (1.0 - a) ** 2,
        "proxy ||c||_2^2 / (1 - alpha)^2",
        details={"alpha": a},
    )


def tree_tail(alpha, out_degree, c) -> TailBound:
    """Sub-critical tree bound for unit sensitivities: proxy N / (1 - alpha*D)^2
    with N = len(c); any other c gets an inapplicable row.  The proxy cannot
    overflow: 1 - alpha*D is at least 2^-53, so it is at most N * 2^106."""
    d = int(out_degree)
    if d != out_degree or d < 1:
        raise ValueError(f"out-degree must be a positive integer, got {out_degree}")
    a = _checked_alpha(alpha, "tree_tail")
    vec = _free_sensitivity(c)
    details = {"alpha": a, "out_degree": float(d)}
    if not np.all(vec == 1.0):
        reason = "stated for unit sensitivity vectors only"
    elif a * d >= 1.0:
        reason = f"alpha * D = {a * d:g} reaches the critical value 1"
    else:
        return _row("tree", vec.shape[0] / (1.0 - a * d) ** 2, "proxy N / (1 - alpha * D)^2", details)
    return TailBound("tree", None, reason, details=details)


def sparse_terminal_tail(alpha, c_terminal) -> TailBound:
    """Dimension-free bound for a target reading only the last symbol.

    Valid when the influence column sums stay below alpha < 1; the proxy
    c_N^2 / (1 - alpha)^2 does not grow with the horizon, and the row is
    inapplicable where it overflows.
    """
    a = _checked_alpha(alpha, "sparse_terminal_tail")
    c_n = float(c_terminal)
    if c_n < 0:
        raise ValueError(f"terminal sensitivity must be nonnegative, got {c_terminal}")
    if a >= 1.0:
        return _not_contracting("sparse_terminal", a, "column-sum")
    # A product, not a power: a float power raises OverflowError.
    return _row(
        "sparse_terminal",
        c_n * c_n / (1.0 - a) ** 2,
        "proxy c_N^2 / (1 - alpha)^2",
        details={"alpha": a},
    )


def kontorovich_baseline(alpha, c) -> TailBound:
    """Unconditional geometric-matrix baseline, comparison-only.

    Reports the infinity norm sum_{k=1}^{N-1} alpha^k of the geometric
    matrix with entries alpha^(j-i) above the diagonal, summed as a series
    without building the matrix.  The proxy
    N * ((1-alpha)/(1-2*alpha))^2 * ||c||_inf^2 diverges for alpha >= 1/2,
    which is flagged rather than raised; at alpha >= 1 the row is
    inapplicable, as ``markov_tail``'s is, and so it is where the proxy
    overflows.
    """
    a = _checked_alpha(alpha, "kontorovich_baseline")
    vec = _free_sensitivity(c)
    if a >= 1.0:
        return _not_contracting("kontorovich", a, certified=False)
    n = vec.shape[0]
    cinf = float(vec.max()) if vec.size else 0.0
    delta_inf = float(sum(a ** k for k in range(1, n)))
    details: dict[str, float] = {"alpha": a, "delta_inf_norm": delta_inf, "c_inf": cinf}
    if a >= 0.5:
        reason = f"geometric-matrix multiplier diverges for contraction {a:g} >= 1/2"
        return TailBound("kontorovich", None, reason, certified=False, details=details)
    multiplier = ((1.0 - a) / (1.0 - 2.0 * a)) ** 2
    details["multiplier"] = multiplier
    return _row(
        "kontorovich",
        n * multiplier * (cinf * cinf),
        "proxy N * multiplier * ||c||_inf^2",
        certified=False,
        reason="comparison-only multiplier; literature tail constants differ",
        details=details,
    )


def samson_baseline(alpha, c) -> TailBound:
    """Square-root contraction baseline, comparison-only: ||c||_2^2 / (1 - sqrt(alpha))^2,
    inapplicable at alpha >= 1 or where that overflows."""
    a = _checked_alpha(alpha, "samson_baseline")
    vec = _free_sensitivity(c)
    if a >= 1.0:
        return _not_contracting("samson", a, certified=False)
    multiplier = 1.0 / (1.0 - math.sqrt(a)) ** 2
    return _row(
        "samson",
        _squared_norm(vec) * multiplier,
        "proxy ||c||_2^2 * multiplier",
        certified=False,
        reason="comparison-only multiplier; literature tail constants differ",
        details={"alpha": a, "multiplier": multiplier},
    )


@dataclass(frozen=True, eq=False)
class BoundReport:
    """All bounds for one scenario, applicable rows first, sorted by proxy."""

    bounds: tuple[TailBound, ...]
    # The read-only Gamma every bound was computed from; None where it overflows.
    resolvent: np.ndarray | None

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
    raises instead of being reported as data.  An exact row whose proxy
    overflows is inapplicable and is not compared.  Where Gamma itself
    overflows, the three rows built on it are inapplicable, the rows that
    read only H are reported, and the report's resolvent is None.  The
    Markov and tree rows share one coefficient, alpha = max H.
    """
    if c is None:
        declared = getattr(f, "sensitivity", None)
        if declared is None:
            raise ValueError("need an explicit sensitivity vector or a target that declares one")
        c = declared
    vec = as_sensitivity(c, spec.horizon)
    infl = interdependence_matrix(spec, budget=budget)
    try:
        gamma = causal_resolvent(infl)
    except ResolventOverflowError:
        gamma = None
        rows = [_row(name, math.inf, "resolvent Gamma") for name in ("exact", "spectral", "scalar_collapse")]
    else:
        rows = [exact_tail(gamma, vec), spectral_tail(gamma, vec), scalar_collapse_tail(gamma, vec)]
    exact = rows[0]
    rows.append(uniform_decay_tail(uniform_decay_profile(infl), vec))
    alpha_cols = column_sum_alpha(infl)
    if spec.family in ("markov", "tree"):
        # A chain or tree step reads at most its parent, so H's nonzeros are
        # the edges' Dobrushin coefficients; alpha is the largest (a chain's
        # superdiagonal, and 0 for a chain of one step, which has no edge).
        a = float(infl.max())
    if spec.family == "markov":
        rows += [markov_tail(a, vec), kontorovich_baseline(a, vec), samson_baseline(a, vec)]
    if spec.family == "tree":
        d = max(int(spec.meta.get("out_degree", 0)), 1)
        rows.append(tree_tail(a, d, vec))
    if vec.shape[0] >= 1 and np.all(vec[:-1] == 0.0):
        rows.append(sparse_terminal_tail(alpha_cols, float(vec[-1])))
    for row in rows if exact.applicable else ():
        if row.applicable and row.certified and exact.proxy > row.proxy + ORDERING_TOLERANCE:
            raise RuntimeError(
                f"exact proxy {exact.proxy} exceeds certified relaxation {row.name} = {row.proxy}"
            )
    ordered = sorted(
        rows,
        key=lambda b: (0, b.proxy, b.name) if b.applicable else (1, 0.0, b.name),
    )
    return BoundReport(bounds=tuple(ordered), resolvent=gamma)
