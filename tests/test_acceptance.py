"""Acceptance gate: ten end-to-end checks, one printed PASS/FAIL line each.

Every test exercises one depended-on guarantee of the package against an
independent oracle or closed form, prints

    ACCEPTANCE <number> <name>: PASS|FAIL [detail]

outside of output capture so the verdict is visible in any run, and then
asserts.  Tolerances are pinned next to each check.
"""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    all_trajectories,
    discrepancy_bound,
    exact_oscillation,
    random_positive_spec,
    random_table_target,
    random_tree,
)
from seqbound import cli
from seqbound.bounds import compare_bounds, kontorovich_baseline
from seqbound.config import load_config
from seqbound.coupling import (
    EXACT_COMPARISON_TOLERANCE,
    exact_pair_discrepancy,
    maximal_coupling_joint,
    simulate_coupled_paths,
)
from seqbound.influence import column_sum_alpha, interdependence_matrix, tv_distance
from seqbound.process import build_causal_tree, build_independent, build_markov
from seqbound.resolvent import (
    causal_resolvent,
    operator_norms,
    spectral_decay,
    variance_proxy,
)
from seqbound.sampling import check_tail_domination, default_t_grid, empirical_tail
from seqbound.targets import lipschitz_vector_oracle

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in ("CONFIG", "OUT", "SEED", "BUDGET", "T", "N_SAMPLES"):
        monkeypatch.delenv("SEQBOUND_" + name, raising=False)


def _record(capsys, number: int, name: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number} {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line)
    assert passed, line


def _symmetric_edge(alpha: float) -> list:
    return [[0.5 + alpha / 2, 0.5 - alpha / 2], [0.5 - alpha / 2, 0.5 + alpha / 2]]


class TestAcceptance:
    # ========================================================
    # 1. Independent coordinates collapse to the classical bound
    # ========================================================

    def test_01_independent_recovery(self, capsys):
        spec = build_independent([0.5, 0.5], horizon=10)
        h = interdependence_matrix(spec)
        gamma = causal_resolvent(h)
        proxy = variance_proxy(gamma, np.ones(10))
        ok = (
            bool(np.all(h == 0.0))
            and float(np.max(np.abs(gamma - np.eye(10)))) <= 1e-12
            and abs(proxy - 10.0) <= 1e-12
        )
        _record(capsys, 1, "independent-recovery", ok, f"proxy {proxy:.12g}")

    # ========================================================
    # 2. Markov chain: superdiagonal structure and closed form
    # ========================================================

    def test_02_markov_structure(self, capsys):
        spec = build_markov([[0.9, 0.1], [0.2, 0.8]], [1.0, 0.0], 8)
        entries = interdependence_matrix(spec)
        superdiag = np.diagonal(entries, offset=1)
        off = entries.copy()
        off[np.arange(7), np.arange(1, 8)] = 0.0
        structure = (
            float(np.max(np.abs(superdiag - 0.7))) <= 1e-12 and bool(np.all(off == 0.0))
        )
        gamma = causal_resolvent(entries)
        rng = np.random.default_rng(202)
        worst_ratio = 0.0
        for _ in range(100):
            c = rng.uniform(0.0, 2.0, 8)
            proxy = variance_proxy(gamma, c)
            closed_form = float(c @ c) / (1.0 - 0.7) ** 2
            worst_ratio = max(worst_ratio, proxy / closed_form)
            if proxy > closed_form + 1e-9:
                structure = False
        _record(capsys, 2, "markov-structure", structure, f"worst ratio {worst_ratio:.4f}")

    # ========================================================
    # 3. Causal trees: zeros off parent edges, degree closed form
    # ========================================================

    def test_03_tree_d_separation(self, capsys):
        rng = np.random.default_rng(303)
        ok, trees = True, 12
        for _ in range(trees):
            n = int(rng.integers(5, 16))
            parent = random_tree(rng, n, int(rng.integers(1, 5)))
            degree = max(parent[1:].count(p) for p in set(parent[1:])) if n > 1 else 0
            alpha = float(rng.uniform(0.05, 0.95 / max(degree, 1)))
            spec = build_causal_tree(parent, _symmetric_edge(alpha), [0.5, 0.5])
            entries = interdependence_matrix(spec)
            for j in range(2, n + 1):
                if abs(entries[parent[j - 1] - 1, j - 1] - alpha) > 1e-12:
                    ok = False
            expected = np.zeros_like(entries)
            for j in range(2, n + 1):
                expected[parent[j - 1] - 1, j - 1] = entries[parent[j - 1] - 1, j - 1]
            if not np.array_equal(entries, expected):
                ok = False
            proxy = variance_proxy(causal_resolvent(entries), np.ones(n))
            if proxy > n / (1.0 - alpha * degree) ** 2 + 1e-9:
                ok = False
        _record(capsys, 3, "tree-d-separation", ok, f"{trees} random trees")

    # ========================================================
    # 4. Conditional oscillations never exceed the resolvent bound
    # ========================================================

    def _random_specs(self):
        rng = np.random.default_rng(404)
        out = []
        for i in range(50):
            n, size = 2 + (i % 4), 2 + (i % 2)
            out.append((random_positive_spec(rng, n, size), random_table_target(rng, n, size)))
        return out

    def test_04_oscillation_domination(self, capsys):
        checks, violations = 0, 0
        for spec, f in self._random_specs():
            c = lipschitz_vector_oracle(f, spec.alphabet, spec.horizon)
            bound_vec = causal_resolvent(interdependence_matrix(spec)) @ c
            for k in range(1, spec.horizon + 1):
                for prefix in all_trajectories(k - 1, spec.alphabet.size):
                    checks += 1
                    if exact_oscillation(spec, f, k, prefix) > bound_vec[k - 1] + 1e-9:
                        violations += 1
        _record(
            capsys,
            4,
            "oscillation-domination",
            violations == 0,
            f"{checks} prefix checks, {violations} violations",
        )

    # ========================================================
    # 5. Discrepancy vectors: exact recursion and Monte Carlo
    # ========================================================

    def test_05_discrepancy_recursion(self, capsys):
        specs = self._random_specs()
        ok, exact_pivots, mc_coords = True, 0, 0
        for spec, _ in specs:
            h = interdependence_matrix(spec)
            for k in range(1, spec.horizon + 1):
                v = exact_pair_discrepancy(spec, k, (0,) * (k - 1), 0, 1)
                if np.any(v > discrepancy_bound(h, k) + 1e-9):
                    ok = False
                exact_pivots += 1
        for i in range(0, 50, 5):
            spec, _ = specs[i]
            k = 1 + (i % spec.horizon)
            v = exact_pair_discrepancy(spec, k, (0,) * (k - 1), 0, 1)
            estimate = simulate_coupled_paths(
                spec, k, (0,) * (k - 1), 0, 1, n_samples=100_000, seed=900 + i
            )
            if np.any(np.abs(estimate.v_hat - v) > 3.0 * estimate.stderr + 1e-12):
                ok = False
            mc_coords += spec.horizon
        _record(
            capsys,
            5,
            "discrepancy-recursion",
            ok,
            f"{exact_pivots} exact pivots, {mc_coords} MC coordinates",
        )

    # ========================================================
    # 6. Maximal coupling achieves the total variation distance
    # ========================================================

    def test_06_maximal_coupling_optimality(self, capsys):
        # Exact, at EXACT_COMPARISON_TOLERANCE: the joint has both marginals,
        # no negative cell, and off-diagonal mass equal to TV, which is
        # optimal by the coupling inequality P(y != z) >= TV(mu, nu).
        rng = np.random.default_rng(606)
        ok, worst = True, 0.0
        for i in range(100):
            size = 2 + (i % 5)
            if i == 0:
                mu = rng.uniform(0.05, 1.0, size)
                mu /= mu.sum()
                nu = mu.copy()
            elif i == 1:
                mu = np.zeros(size)
                nu = np.zeros(size)
                mu[0] = 1.0
                nu[1] = 1.0
            else:
                mu = rng.uniform(0.05, 1.0, size)
                nu = rng.uniform(0.05, 1.0, size)
                mu /= mu.sum()
                nu /= nu.sum()
            joint = maximal_coupling_joint(mu, nu)
            off_diagonal = joint.sum() - np.trace(joint)
            tv_gap = off_diagonal - tv_distance(mu, nu)
            gaps = np.concatenate([joint.sum(axis=1) - mu, joint.sum(axis=0) - nu, [tv_gap]])
            worst = max(worst, float(np.max(np.abs(gaps))))
            if joint.min() < 0.0:
                ok = False
        ok = ok and worst <= EXACT_COMPARISON_TOLERANCE
        _record(capsys, 6, "maximal-coupling-optimality", ok, f"100 pairs, worst gap {worst:.1e}")

    # ========================================================
    # 7. Calibrated window sweep: flat exact proxy, growing collapse
    # ========================================================

    def test_07_window_sweep(self, capsys, tmp_path):
        code = cli.main(
            ["sweep", "--config", str(CONFIG_DIR / "window.yaml"), "--out", str(tmp_path)]
        )
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        horizons = [int(row[0]) for row in rows]
        proxies = [float(row[1]) for row in rows]
        collapses = [float(row[2]) for row in rows]
        spread = (max(proxies) - min(proxies)) / min(proxies)
        config = load_config(CONFIG_DIR / "window.yaml")
        alpha = column_sum_alpha(interdependence_matrix(config.build(horizon=10)))
        ok = (
            code == 0
            and horizons == [10, 20, 50, 100, 200]
            and abs(alpha - 0.8) <= 1e-3
            and all(p <= 25.0 for p in proxies)
            and spread < 0.05
            and all(s >= h for s, h in zip(collapses, horizons))
        )
        _record(
            capsys,
            7,
            "window-sweep",
            ok,
            f"alpha {alpha:.6f}, proxy spread {100 * spread:.2f}%",
        )

    # ========================================================
    # 8. Chain-baseline multiplier: divergence threshold at 1/2
    # ========================================================

    def test_08_baseline_divergence(self, capsys):
        c = np.ones(8)
        ok = all(not kontorovich_baseline(a, c).applicable for a in (0.5, 0.6, 0.9))
        worst = 0.0
        for a in (0.1, 0.4, 0.49):
            bound = kontorovich_baseline(a, c)
            expected = ((1.0 - a) / (1.0 - 2.0 * a)) ** 2
            worst = max(worst, abs(bound.details["multiplier"] - expected))
            ok = ok and bound.applicable
        at_04 = kontorovich_baseline(0.4, c).details["multiplier"]
        ok = ok and worst <= 1e-12 and abs(at_04 - 9.0) <= 1e-12
        _record(capsys, 8, "baseline-divergence", ok, f"multiplier(0.4) = {at_04:.12g}")

    # ========================================================
    # 9. Decay floor for kappa and the Schur norm sandwich
    # ========================================================

    def test_09_decay_and_schur(self, capsys):
        rng = np.random.default_rng(909)
        ok, worst_gap = True, math.inf
        for _ in range(100):
            n = int(rng.integers(2, 13))
            depth = int(rng.integers(1, n))
            raw = rng.uniform(0.05, 1.0, depth)
            phi = raw * (float(rng.uniform(0.1, 0.95)) / raw.sum())
            h = np.zeros((n, n))
            for d in range(1, depth + 1):
                idx = np.arange(n - d)
                h[idx, idx + d] = phi[d - 1]
            s = float(phi.sum())
            kappa = spectral_decay(causal_resolvent(h))
            worst_gap = min(worst_gap, kappa - (1.0 - s) ** 2)
            if kappa < (1.0 - s) ** 2 - 1e-9:
                ok = False
            for matrix in (h, causal_resolvent(h)):
                norms = operator_norms(matrix)
                if norms.l2 > math.sqrt(norms.l1 * norms.linf) + 1e-9:
                    ok = False
        _record(capsys, 9, "decay-and-schur", ok, f"min kappa gap {worst_gap:.6f}")

    # ========================================================
    # 10. Empirical tails never beat any applicable bound
    # ========================================================

    def test_10_tail_domination(self, capsys):
        checks, failures = 0, 0
        for name in ("markov.yaml", "tree.yaml", "window.yaml"):
            config = load_config(CONFIG_DIR / name)
            spec = config.build()
            f = config.target()
            c = config.sensitivity(spec, f)
            report = compare_bounds(spec, f=f, c=c, budget=config.run.budget)
            estimate = empirical_tail(
                spec,
                f,
                default_t_grid(c),
                n_samples=config.run.n_samples,
                seed=config.run.seed,
                budget=config.run.budget,
            )
            for bound in report.applicable():
                outcome = check_tail_domination(estimate, bound)
                checks += len(outcome.rows)
                failures += len(outcome.failures())
        _record(
            capsys,
            10,
            "tail-domination",
            failures == 0,
            f"{checks} grid checks across three scenarios, {failures} failures",
        )
