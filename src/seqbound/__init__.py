"""Concentration bounds for finite-alphabet dependent sequences.

Quantifies how strongly later coordinates of a finite-horizon process depend
on earlier ones (an exact total-variation influence matrix), inverts the
dependence structure into a causal resolvent, and turns a per-coordinate
sensitivity vector into sub-Gaussian tail bounds that are exact for the
declared structure.  Includes specialized bounds for Markov chains, causal
trees, sparse targets, and calibrated sliding-window kernels, classical
baselines for comparison, and empirical verifiers (exact enumeration,
maximal-coupling simulation, Monte Carlo tails) for every inequality the
package computes.
"""

import types as _types

from .bounds import (
    TailBound,
    compare_bounds,
    exact_tail,
    kontorovich_baseline,
    markov_tail,
    samson_baseline,
    scalar_collapse_tail,
    sparse_terminal_tail,
    spectral_tail,
    tree_tail,
    uniform_decay_tail,
)
from .config import (
    DEFAULT_N_SAMPLES,
    DEFAULT_SEED,
    load_config,
    parse_config,
)
from .coupling import (
    coupled_pair_process,
    exact_pair_discrepancy,
    maximal_coupling_draws,
    maximal_coupling_joint,
    simulate_coupled_paths,
    verify_coupling_marginals,
    verify_discrepancy_recursion,
    verify_oscillation_bound,
)
from .errors import (
    CalibrationError,
    ConfigError,
    EnumerationBudgetError,
    ResolventOverflowError,
)
from .influence import (
    column_sum_alpha,
    dobrushin_coefficient,
    influence_enumeration_cost,
    interdependence_matrix,
    tv_distance,
    uniform_decay_profile,
)
from .process import (
    Alphabet,
    ProcessSpec,
    build_causal_tree,
    build_from_tables,
    build_independent,
    build_markov,
    build_sliding_window,
    ensure_budget,
    exact_expectation,
    kernel_at,
    mixed_radix_rank,
    prefix_expectation_table,
)
from .resolvent import (
    causal_resolvent,
    decay_lower_bound,
    operator_norms,
    spectral_decay,
    spectral_norm,
    variance_proxy,
)
from .sampling import (
    TailEstimate,
    binomial_stderr,
    check_tail_domination,
    default_t_grid,
    empirical_tail,
    sample_trajectories,
    tail_csv_rows,
    tightness_ratios,
)
from .targets import (
    TargetFunction,
    as_sensitivity,
    constant,
    count_symbol,
    evaluate_batch,
    lipschitz_vector_oracle,
    parity,
    sum_symbols,
    table_target,
    terminal_indicator,
    terminal_symbol,
)
from .window import build_calibrated_window, window_point_symbol

__version__ = "0.1.0"

# Every name imported above, the submodules aside: one list to keep.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
