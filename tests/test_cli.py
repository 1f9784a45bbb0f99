"""Command-line front end: subcommands, CSV outputs, and exit codes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import seqbound
from seqbound import cli
from seqbound.cli import BOUNDS_HEADER, MATRIX_HEADER, SWEEP_HEADER
from seqbound.config import load_config
from seqbound.report import VERIFICATION_HEADER, format_number
from seqbound.sampling import TAIL_HEADER

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
MARKOV = str(CONFIG_DIR / "markov.yaml")
WINDOW_SMALL = str(CONFIG_DIR / "window_small.yaml")


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in ("CONFIG", "OUT", "SEED", "BUDGET", "T", "N_SAMPLES"):
        monkeypatch.delenv("SEQBOUND_" + name, raising=False)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_yaml(path, doc):
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def small_markov_doc(**extra):
    doc = {
        "scenario": {
            "family": "markov",
            "horizon": 3,
            "alphabet": 2,
            "markov": {"transition": [[0.9, 0.1], [0.2, 0.8]], "init": [1.0, 0.0]},
        },
        "target": {"name": "sum_symbols"},
    }
    doc.update(extra)
    return doc


# ============================================================
# Subcommands: happy paths
# ============================================================

SHIPPED_CONFIGS = sorted(path.name for path in CONFIG_DIR.glob("*.yaml"))
# verify is left out on window.yaml: f's exhaustive table alone needs 2^100
# evaluations, over the default budget, so it exits 3.  sweep needs a
# sweep section, which only window.yaml has.
SMOKE_RUNS = [
    (name, command)
    for name in SHIPPED_CONFIGS
    for command in ("matrix", "bounds", "verify")
    if (name, command) != ("window.yaml", "verify")
] + [("window.yaml", "sweep")]


@pytest.mark.parametrize("name, command", SMOKE_RUNS)
def test_shipped_config_runs(tmp_path, name, command):
    """Each run exits 0, and a second run into another directory writes
    byte-identical CSVs."""
    outputs = []
    for out in (tmp_path / "first", tmp_path / "second"):
        argv = [command, "--config", str(CONFIG_DIR / name), "--out", str(out)]
        if command == "verify":
            argv += ["--n-samples", "20000"]
        assert cli.main(argv) == 0
        outputs.append({path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))})
    assert outputs[0] and outputs[0] == outputs[1]



# Calls during verify, each exact quantity built once: one influence matrix
# and resolvent (from compare_bounds, besides window calibration's own
# influence matrix), no separate sensitivity oracle, two exhaustive
# evaluations of f (the suites' prefix-expectation table and the tail
# centering's exact expectation), one exact pair pass per pivot step for
# all pivot pairs, one walk of the first positive prefix, and one stacked
# maximal-coupling joint per step: the coupling suite checks the pair
# tables the recursion suite built and builds none itself.
VERIFY_CALLS = {
    "window_small.yaml": {
        "interdependence_matrix": 2,
        "causal_resolvent": 1,
        "lipschitz_vector_oracle": 0,
        "exhaustive evaluate_batch": 2,
        "exact_pair_discrepancy": 8,
        "_first_positive_prefix": 1,
        "maximal_coupling_joint": 8,
    },
    "markov.yaml": {
        "interdependence_matrix": 1,
        "causal_resolvent": 1,
        "lipschitz_vector_oracle": 0,
        "exhaustive evaluate_batch": 2,
        "exact_pair_discrepancy": 8,
        "_first_positive_prefix": 1,
        "maximal_coupling_joint": 8,
    },
    # The oracle sensitivity is read off f's table, not a third pass over f.
    "markov.yaml, oracle sensitivity": {
        "interdependence_matrix": 1,
        "causal_resolvent": 1,
        "lipschitz_vector_oracle": 0,
        "exhaustive evaluate_batch": 2,
        "exact_pair_discrepancy": 8,
        "_first_positive_prefix": 1,
        "maximal_coupling_joint": 8,
    },
}


@pytest.mark.parametrize("name", sorted(VERIFY_CALLS))
def test_verify_builds_each_exact_quantity_once(tmp_path, monkeypatch, name):
    base, _, mode = name.partition(", ")
    path = CONFIG_DIR / base
    if mode == "oracle sensitivity":
        doc = yaml.safe_load(path.read_text())
        doc["sensitivity"] = {"mode": "oracle"}
        path = write_yaml(tmp_path / "oracle.yaml", doc)
    config = load_config(path)
    trajectories = config.alphabet_size ** config.horizon
    calls = dict.fromkeys(VERIFY_CALLS[name], 0)

    def counting(key, original, selects=lambda *args: True):
        def wrapper(*args, **kwargs):
            calls[key] += bool(selects(*args))
            return original(*args, **kwargs)

        return original, wrapper

    wrapped = [
        counting("interdependence_matrix", seqbound.interdependence_matrix),
        counting("causal_resolvent", seqbound.causal_resolvent),
        counting("lipschitz_vector_oracle", seqbound.lipschitz_vector_oracle),
        counting(
            "exhaustive evaluate_batch",
            seqbound.evaluate_batch,
            lambda f, paths: paths.shape[0] == trajectories,
        ),
        counting("exact_pair_discrepancy", seqbound.exact_pair_discrepancy),
        counting("_first_positive_prefix", seqbound.coupling._first_positive_prefix),
        counting("maximal_coupling_joint", seqbound.maximal_coupling_joint),
    ]
    # Every module that bound a counted function by name reaches its wrapper.
    for key, module in list(sys.modules.items()):
        if key.split(".")[0] != "seqbound":
            continue
        for attr, value in list(vars(module).items()):
            for original, wrapper in wrapped:
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    argv = ["verify", "--config", str(path), "--out", str(tmp_path)]
    assert cli.main(argv + ["--n-samples", "20000"]) == 0
    assert calls == VERIFY_CALLS[name]


def test_coupling_rows_do_not_depend_on_the_seed(tmp_path):
    rows = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        argv = ["verify", "--config", MARKOV, "--out", str(out), "--seed", seed]
        assert cli.main(argv + ["--n-samples", "20000"]) == 0
        lines = (out / "verification.csv").read_bytes().splitlines()
        rows.append([line for line in lines if line.startswith(b"coupling_")])
    assert len(rows[0]) == 3 * 8
    assert rows[0] == rows[1]


def test_builtin_cells_format_as_numpy_cells():
    # Exact float and int take a fast path; numpy scalars, bool, None and
    # str take the general one, and both agree.
    floats = [0.0, -0.0, 0.1 + 0.2, 1e-300, -2.5e17, 1 / 3, float("inf"), float("-inf")]
    for x in floats:
        assert format_number(x) == format_number(np.float64(x)) == f"{x:.12g}"
    assert format_number(float("nan")) == format_number(np.float64("nan")) == ""
    for i in (0, -7, 2**70):
        assert format_number(i) == str(i)
    assert (format_number(np.int64(-7)), format_number(np.uint8(7))) == ("-7", "7")
    assert [format_number(v) for v in (True, False, None, "x")] == ["1", "0", "", "x"]


class TestSubcommands:
    def test_describe(self, capsys):
        assert cli.main(["describe", "--config", MARKOV]) == 0
        out = capsys.readouterr().out
        assert "scenario: markov" in out
        assert "horizon: 8" in out
        assert "seed: 20260816" in out
        assert "dobrushin alpha: 0.7" in out
        assert "  step 1 reads -" in out
        assert "  step 2 reads 1" in out

    def test_describe_window_reports_calibration(self, capsys):
        assert cli.main(["describe", "--config", WINDOW_SMALL]) == 0
        out = capsys.readouterr().out
        assert "calibrated beta:" in out
        assert "achieved alpha: 0.8" in out

    def test_matrix(self, tmp_path, capsys):
        assert cli.main(["matrix", "--config", MARKOV, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "||H||_1 = 0.7" in out
        assert "kappa = 0.147885065137" in out
        influence = read_rows(tmp_path / "influence.csv")
        assert influence[0] == list(MATRIX_HEADER)
        assert len(influence) == 1 + 7  # superdiagonal of an 8-step chain
        assert all(abs(float(row[2]) - 0.7) < 1e-9 for row in influence[1:])
        resolvent = read_rows(tmp_path / "resolvent.csv")
        assert len(resolvent) == 1 + 36  # dense upper triangle with diagonal

    def test_matrix_rows_match_cell_scan(self):
        # Reference: a row-major scan of every cell, with -0.0 counted as zero.
        rng = np.random.default_rng(5)
        entries = np.triu(rng.uniform(size=(6, 6)) * (rng.uniform(size=(6, 6)) < 0.5))
        entries[0, 5] = -0.0
        expected = [
            (i + 1, j + 1, float(entries[i, j]))
            for i in range(6)
            for j in range(6)
            if entries[i, j] != 0.0
        ]
        rows = list(cli._matrix_rows(entries))
        assert rows == expected
        assert all(type(x) is int for row in rows for x in row[:2])

    def test_bounds(self, tmp_path, capsys):
        assert cli.main(["bounds", "--config", MARKOV, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "bounds.csv")
        assert rows[0] == list(BOUNDS_HEADER)
        by_name = {}
        for row in rows[1:]:
            by_name.setdefault(row[0], []).append(row)
        assert {"exact", "spectral", "scalar_collapse", "markov", "uniform_decay",
                "samson", "kontorovich"} <= set(by_name)
        assert all(row[2] == "1" for row in by_name["exact"])
        assert all(row[2] == "0" for row in by_name["kontorovich"])  # alpha 0.7 diverges
        assert len(by_name["exact"]) == 20  # default threshold grid
        assert len(by_name["kontorovich"]) == 1
        out = capsys.readouterr().out
        assert "exact" in out and "wrote" in out

    def test_verify(self, tmp_path, capsys):
        code = cli.main(
            ["verify", "--config", MARKOV, "--out", str(tmp_path), "--n-samples", "20000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for suite in ("oscillation", "recursion", "coupling-marginals", "tail-domination"):
            assert f"suite {suite}:" in out
        verification = read_rows(tmp_path / "verification.csv")
        assert verification[0] == list(VERIFICATION_HEADER)
        assert all(row[6] == "1" for row in verification[1:])
        tails = read_rows(tmp_path / "tails.csv")
        assert tails[0] == list(TAIL_HEADER)
        assert "tightness exact:" in out

    def test_sweep(self, tmp_path, capsys):
        config = write_yaml(
            tmp_path / "sweep.yaml",
            {
                "scenario": {
                    "family": "window",
                    "horizon": 8,
                    "alphabet": 2,
                    "window": {"width": 3, "target_alpha": 0.5},
                },
                "target": {"name": "terminal_indicator", "symbol": 1},
                "sweep": {"horizons": [4, 6, 8]},
            },
        )
        assert cli.main(["sweep", "--config", config, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "sweep.csv")
        assert rows[0] == list(SWEEP_HEADER)
        assert [row[0] for row in rows[1:]] == ["4", "6", "8"]
        for row in rows[1:]:
            assert 0.0 < float(row[1]) <= float(row[2])  # exact <= scalar collapse
            assert abs(float(row[3]) - 4.0) < 1e-9  # 1 / (1 - 0.5)^2
        assert "N=8:" in capsys.readouterr().out

    def test_sweep_requires_window_family(self, tmp_path):
        config = write_yaml(
            tmp_path / "markov_sweep.yaml", small_markov_doc(sweep={"horizons": [3, 4]})
        )
        assert cli.main(["sweep", "--config", config, "--out", str(tmp_path)]) == 2


# ============================================================
# Exit codes
# ============================================================


class TestExitCodes:
    def test_missing_config_is_an_argument_error(self, capsys):
        assert cli.main(["describe"]) == 2
        assert "config" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        config = write_yaml(tmp_path / "bad.yaml", small_markov_doc(bogus={"x": 1}))
        assert cli.main(["describe", "--config", config]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_unreadable_config_path(self, tmp_path):
        assert cli.main(["describe", "--config", str(tmp_path / "absent.yaml")]) == 2

    def test_budget_exhaustion(self, capsys):
        assert cli.main(["matrix", "--config", MARKOV, "--budget", "1"]) == 3
        assert "budget" in capsys.readouterr().err

    def test_calibration_failure(self, tmp_path, capsys):
        config = write_yaml(
            tmp_path / "degenerate.yaml",
            {
                "scenario": {
                    "family": "window",
                    "horizon": 1,
                    "alphabet": 2,
                    "window": {"width": 3, "target_alpha": 0.5},
                },
                "target": {"name": "sum_symbols"},
            },
        )
        assert cli.main(["describe", "--config", config]) == 4
        assert "influence" in capsys.readouterr().err

    def test_verification_failure(self, tmp_path, capsys):
        config = write_yaml(
            tmp_path / "undersized.yaml",
            small_markov_doc(
                sensitivity={"declared": [0.25, 0.25, 0.25]},
                run={"n_samples": 4000, "seed": 5},
            ),
        )
        assert cli.main(["verify", "--config", config, "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "failing checks:" in out
        assert "sensitivity_declared" in out

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2

    def test_bad_flag_value_exits_two(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["describe", "--config", MARKOV, "--seed", "-5"])
        assert err.value.code == 2


# ============================================================
# Flag > environment > config resolution
# ============================================================


class TestEnvResolution:
    def test_env_supplies_config_and_seed(self, monkeypatch, capsys):
        monkeypatch.setenv("SEQBOUND_CONFIG", MARKOV)
        monkeypatch.setenv("SEQBOUND_SEED", "42")
        assert cli.main(["describe"]) == 0
        assert "seed: 42" in capsys.readouterr().out

    def test_flag_beats_env(self, monkeypatch, capsys):
        monkeypatch.setenv("SEQBOUND_SEED", "42")
        assert cli.main(["describe", "--config", MARKOV, "--seed", "7"]) == 0
        assert "seed: 7" in capsys.readouterr().out

    def test_env_values_are_validated(self, monkeypatch, capsys):
        monkeypatch.setenv("SEQBOUND_BUDGET", "zero")
        assert cli.main(["describe", "--config", MARKOV]) == 2
        assert "SEQBOUND_BUDGET" in capsys.readouterr().err


# ============================================================
# Module entry point
# ============================================================


class TestModuleEntry:
    def test_python_dash_m(self):
        env = {k: v for k, v in os.environ.items() if not k.startswith("SEQBOUND_")}
        result = subprocess.run(
            [sys.executable, "-m", "seqbound", "describe", "--config", MARKOV],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0
        assert "scenario: markov" in result.stdout

    def test_public_names_resolve_once(self):
        names = seqbound.__all__
        assert len(names) == len(set(names))
        for name in names:
            assert getattr(seqbound, name) is not None
        test_oracles = {
            "all_trajectories",
            "discrepancy_bound",
            "enumeration_cost",
            "exact_oscillation",
            "joint_probability",
        }
        assert test_oracles.isdisjoint(names)
