"""Command-line front end: subcommands, CSV outputs, and exit codes."""

import csv
import dataclasses
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

import seqbound
from seqbound import build_markov, cli, report
from seqbound.cli import BOUNDS_HEADER, SWEEP_HEADER
from seqbound.config import MAX_SEED, load_config
from seqbound.influence import interdependence_matrix
from seqbound.process import step_table
from seqbound.report import (
    MATRIX_HEADER,
    VERIFICATION_HEADER,
    format_number,
    write_csv,
    write_matrix_csv,
)
from seqbound.resolvent import causal_resolvent
from seqbound.sampling import TAIL_HEADER
from conftest import CANONICAL_INIT, CANONICAL_TRANSITION, family_doc, per_entry_matrix_csv

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


def count_calls(monkeypatch, module, name) -> list[int]:
    """Wrap ``module.name``; the one-entry list returned counts its calls."""
    calls = [0]
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


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


# Sweeps whose smaller horizons are read off the largest build's leading
# steps: a Markov chain, a shared-marginal independent process, and a width-3
# window, whose horizons 2 and 3 (at most its width) are built on their own.
SWEEP_CASES = {
    "markov": {**yaml.safe_load(Path(MARKOV).read_text()), "sweep": {"horizons": [10, 100, 400]}},
    "independent": {
        "scenario": {
            "family": "independent",
            "horizon": 3,
            "alphabet": 2,
            "independent": {"marginals": [0.3, 0.7]},
        },
        "target": {"name": "sum_symbols"},
        "sweep": {"horizons": [2, 5, 9]},
    },
    "window": {
        "scenario": {
            "family": "window",
            "horizon": 8,
            "alphabet": 2,
            "window": {"width": 3, "target_alpha": 0.5},
        },
        "target": {"name": "terminal_indicator", "symbol": 1},
        "sweep": {"horizons": [2, 3, 4, 6, 8]},
    },
}


# ============================================================
# Subcommands: happy paths
# ============================================================

SHIPPED_CONFIGS = sorted(path.name for path in CONFIG_DIR.glob("*.yaml"))
# verify is left out on window.yaml: f's exhaustive table alone needs 2^100
# evaluations, over the default budget, so it exits 3.  sweep needs a sweep
# section, which only window.yaml has among the shipped configs; markov and
# shared-marginal independent scenarios can sweep too.
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


# SHA-256 of every CSV that matrix, bounds and sweep write on the shipped
# configs, and on markov.yaml stretched to N = 500 (a Toeplitz resolvent of
# 125,250 entries); sweep writes only where a config has a sweep section.
# Also the CSVs of verify on the four shipped configs it finishes on (seeded,
# so the tail rows, one set per applicable bound, are fixed), and the stdout
# of bounds, the table with its applicable, certified and reason columns,
# with the output directory masked.  Recorded before the matrix writer and
# the influence enumeration were vectorized, and the verify and stdout
# entries before the catalog rows were built through one constructor, so any
# change to an output byte fails here.
VERIFIED_CONFIGS = ("independent.yaml", "markov.yaml", "tree.yaml", "window_small.yaml")
GOLDEN_CSV_SHA256 = {
    ("independent.yaml", "matrix", "influence.csv"): "62a970c811f2ba14833ac61b444cf8fad0c108ed79957d511485d8e14a13312b",
    ("independent.yaml", "matrix", "resolvent.csv"): "fc3663db68255d5a3c19335832a77e8b8b054a966453eab03306f22e7825616e",
    ("independent.yaml", "bounds", "bounds.csv"): "b2f87114df56402b5169ebcf3f35c760c3d0b9e5759d0e7bf8ebfecfb7832348",
    ("independent.yaml", "bounds", "stdout"): "f80bb7257fd4734d5e4334250e87c83305b76fe50a0cbd1a96c83e1b0124b23e",
    ("independent.yaml", "verify", "tails.csv"): "4a21d1c72906a5bbd02f532e23f26ce1ad2a33f1f8f3a9def95756d45110c496",
    ("independent.yaml", "verify", "verification.csv"): "3c597245799cebb678b5cb8ecee9e9ea5b391ea2ed686e01f9019e5b0aaf56ae",
    ("markov.yaml", "matrix", "influence.csv"): "c173caa4d1a99ca315ed2cd9f69c2ef76efce7c54e458471caf477a00eb8f4c0",
    ("markov.yaml", "matrix", "resolvent.csv"): "30b4796960d20a06bea925e0f018a84e8f33fe6633419ae11a0e6c20cebe738b",
    ("markov.yaml", "bounds", "bounds.csv"): "095b36488e5617fc30816e1d0a3aedd68c9bf8f9c0c6b085a6139bc5a8b4a54d",
    ("markov.yaml", "bounds", "stdout"): "56eec90c022c846a57226996f5699d7aa6da0ecaee4515293997dfbb82b357e2",
    ("markov.yaml", "verify", "tails.csv"): "ff39260603a97eb64b630f35831e2490f9ea3fe0028081d1452b565cdea83d6a",
    ("markov.yaml", "verify", "verification.csv"): "b2d62b6a89ae36c3a4afdfd8070710acfe7b50cefdd9379e9d42eb72d3b9c57e",
    ("markov-500", "matrix", "influence.csv"): "6a1205b7bb54677459e3436616e924b3e53c75ff01a78fd12ddaf1267048e7f4",
    ("markov-500", "matrix", "resolvent.csv"): "2ccee94a9bf63a1f9b1d9acdc6206be81c92a8950f141124ae4650692432ed21",
    ("markov-500", "bounds", "bounds.csv"): "eff424915e5e7805d316b1b571a522ce6df4defa4d6a0ce2e4c8838b7c05a095",
    ("markov-500", "sweep", "sweep.csv"): "52652df911270a8662256d2bc19f3005e93a93d514e82a2dd0f861c9b1fced45",
    ("tree.yaml", "matrix", "influence.csv"): "83d6a75bd3c9af8f9ae398dcb6cde7056f2b2db03c1342dfaf6235311f005c9f",
    ("tree.yaml", "matrix", "resolvent.csv"): "d08047803a0f5f050ae659374d4d3ee774b8f5686c2e1ab9dc3840eb4c47d99c",
    ("tree.yaml", "bounds", "bounds.csv"): "76e89b9077e8fb4ae27c878a5fb10cb6a1c605c008f313574cf4542574c19aaf",
    ("tree.yaml", "bounds", "stdout"): "25aeacecbcc128ac36189d54f2c1421d23a93bf38e26ddeb95b89c17a4a4f71a",
    ("tree.yaml", "verify", "tails.csv"): "42406e9520b3fd9697ac9a3f41c4d9ed287114adce48b596e2c150606591aba2",
    ("tree.yaml", "verify", "verification.csv"): "cc3fd3336112e84ff3ab3ddf13f49a2f6f4ca052181cc83ed0f10d7e7186e971",
    ("window.yaml", "matrix", "influence.csv"): "2c7dbbf81430cbd3352c831da963fb067e3d5d58c9ff887daadf29cd1528c2a5",
    ("window.yaml", "matrix", "resolvent.csv"): "28707ca13b346f5e867915cfd0f155ce31195be8e7815dea2801304d05558bdd",
    ("window.yaml", "bounds", "bounds.csv"): "ded6a3ccee8b4ccac9f54ebb928162ae5612c5884bae01774da6f945a8b16e9c",
    ("window.yaml", "bounds", "stdout"): "b6b91793ddf9a8af8c806dc38ecc7165eee27236febfef01395d822db0d4264c",
    ("window.yaml", "sweep", "sweep.csv"): "59a950e8723028fc48ee27f301d3802cb87ce6beb56147a7ef5a61bdd47956b0",
    ("window_small.yaml", "matrix", "influence.csv"): "61515a63adef30dd628ef8fe578fe671b4c4fc9140fb9d39590ad2636545bba3",
    ("window_small.yaml", "matrix", "resolvent.csv"): "0d69900bf64246f745c580a17b91d4d7ed0434de498c745308149ee470f90599",
    ("window_small.yaml", "bounds", "bounds.csv"): "a677e6c4ccf1a7b33f6d2be0ce52b614f6df1242e743f675bf1521ab2655a123",
    ("window_small.yaml", "bounds", "stdout"): "9bdaf7a9560056da426955d72016f46266817c59f941c4541722044909b21534",
    ("window_small.yaml", "verify", "tails.csv"): "952d01dc05ccfff6bcdfa266d8c54a2dea35da7de080cb9e9c6c099503b561fc",
    ("window_small.yaml", "verify", "verification.csv"): "2c88b9e9e09ab38020a5c407e3560da4c8a8ca5e39310852ce403d73157c7124",
}


def test_csv_outputs_match_golden_hashes(tmp_path, capsys):
    markov = yaml.safe_load(Path(MARKOV).read_text())
    markov["scenario"]["horizon"] = 500
    markov["sweep"] = {"horizons": [10, 100, 500]}
    configs = {name: str(CONFIG_DIR / name) for name in SHIPPED_CONFIGS}
    configs["markov-500"] = write_yaml(tmp_path / "markov-500.yaml", markov)
    hashes = {}
    for name, path in configs.items():
        for command in ("matrix", "bounds", "sweep", "verify"):
            if command == "verify" and name not in VERIFIED_CONFIGS:
                continue
            out = tmp_path / name / command
            capsys.readouterr()
            code = cli.main([command, "--config", path, "--out", str(out)])
            assert code == (2 if command == "sweep" and load_config(path).sweep is None else 0)
            for csv_path in sorted(out.glob("*.csv")):
                digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
                hashes[name, command, csv_path.name] = digest
            if command == "bounds" and name in SHIPPED_CONFIGS:
                text = capsys.readouterr().out.replace(str(out), "<out>")
                hashes[name, command, "stdout"] = hashlib.sha256(text.encode()).hexdigest()
    capsys.readouterr()
    assert hashes == GOLDEN_CSV_SHA256



# Calls during verify, each exact quantity built once: one influence matrix
# and resolvent (from compare_bounds, besides window calibration's own
# influence matrix), no separate sensitivity oracle, two exhaustive
# evaluations of f (the suites' prefix-expectation table and the tail
# centering's exact expectation), one exact pair pass per pivot step for
# all pivot pairs, one walk of the first positive prefix, and one stacked
# maximal-coupling joint per step: the coupling suite checks the pair
# tables the recursion suite built and builds none itself.  Histories over
# the base alphabet are enumerated twice, for those two tables of f; the
# oscillation suite walks the positive-probability prefixes forward
# instead.  The pair tables' enumerations over |A|^2 are not counted.
VERIFY_CALLS = {
    "window_small.yaml": {
        "interdependence_matrix": 2,
        "causal_resolvent": 1,
        "lipschitz_vector_oracle": 0,
        "exhaustive evaluate_batch": 2,
        "exact_pair_discrepancy": 8,
        "_first_positive_prefix": 1,
        "maximal_coupling_joint": 8,
        "base trajectory_rows": 2,
    },
    "markov.yaml": {
        "interdependence_matrix": 1,
        "causal_resolvent": 1,
        "lipschitz_vector_oracle": 0,
        "exhaustive evaluate_batch": 2,
        "exact_pair_discrepancy": 8,
        "_first_positive_prefix": 1,
        "maximal_coupling_joint": 8,
        "base trajectory_rows": 2,
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
        "base trajectory_rows": 2,
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
        counting(
            "base trajectory_rows",
            seqbound.process.trajectory_rows,
            lambda horizon, size: size == config.alphabet_size,
        ),
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


def test_verify_refuses_an_overflowed_resolvent(tmp_path, monkeypatch, capsys):
    # compare_bounds reports an overflowed Gamma as resolvent None; verify
    # stops there, before any suite or output file.
    def overflowed(spec, **kwargs):
        return dataclasses.replace(seqbound.compare_bounds(spec, **kwargs), resolvent=None)

    suites = count_calls(monkeypatch, cli, "verify_oscillation_bound")
    monkeypatch.setattr(cli, "compare_bounds", overflowed)
    assert cli.main(["verify", "--config", MARKOV, "--out", str(tmp_path / "out")]) == 2
    assert "error: resolvent Gamma overflows double precision" in capsys.readouterr().err
    assert suites == [0] and not (tmp_path / "out").exists()


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

    def test_matrix_csv_matches_cell_by_cell_writer(self, tmp_path):
        # Reference: a row-major scan of every cell, -0.0 counted as zero,
        # each cell formatted by write_csv through format_number.
        def reference(path, entries):
            rows = [
                (i + 1, j + 1, float(entries[i, j]))
                for i in range(entries.shape[0])
                for j in range(entries.shape[1])
                if entries[i, j] != 0.0
            ]
            write_csv(path, MATRIX_HEADER, rows)

        rng = np.random.default_rng(5)
        cases = [
            np.triu(rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.5))
            for n in (2, 6, 17)
        ]
        edge = np.zeros((8, 8))
        edge[0] = [-0.0, 5e-324, 1e-05, 9.99999999999e-05, 1e11, 1e12, 1.0, 0.1 + 0.2]
        cases.append(edge)
        cases += [np.array([[0.25]]), np.zeros((3, 3))]
        for name in SHIPPED_CONFIGS:
            config = load_config(CONFIG_DIR / name)
            infl = interdependence_matrix(config.build(), budget=config.run.budget)
            cases += [infl, causal_resolvent(infl)]
        for entries in cases:
            write_matrix_csv(tmp_path / "fast.csv", entries)
            reference(tmp_path / "reference.csv", entries)
            assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_matrix_csv_matches_per_entry_writer(self, tmp_path):
        rng = np.random.default_rng(11)
        markov = build_markov(CANONICAL_TRANSITION, CANONICAL_INIT, 300)
        config = load_config(CONFIG_DIR / "window.yaml")
        window = interdependence_matrix(config.build(), budget=config.run.budget)
        sparse = np.triu(rng.uniform(size=(40, 40)) * (rng.uniform(size=(40, 40)) < 0.15))
        # Rows 0, 2 and 4 share values; the rows between are zero.
        run = [0.5, 0.25, 0.125, 1 / 3, 0.1]
        gaps = np.zeros((5, 5))
        gaps[0], gaps[2, 2:], gaps[4, 3:] = run, run[2:], run[3:]
        # 0.1 comes back in row 2 after row 1 dropped it.
        skip = np.array([[0.1, 0.2, 0.3], [0.0, 0.2, 0.7], [0.0, 0.1, 0.2]])
        # Row 1 repeats none of row 0, so lookups end; row 2 repeats both.
        ended = np.array([[0.1, 0.2, 0.0], [0.3, 0.4, 0.0], [0.1, 0.3, 0.2]])
        extremes = np.array(
            [
                [-0.5, -0.0, 1e-300, 1e300, 5e-324],
                [0.0, -0.5, 1e300, -0.0, 1e-300],
                [-1e300, 0.0, -0.5, -1e-300, -0.0],
            ]
        )
        cases = {
            "markov gamma N=300": causal_resolvent(interdependence_matrix(markov)),
            "window.yaml gamma": causal_resolvent(window),
            "dense random triangle": np.triu(rng.uniform(size=(120, 120))),
            "sparse rows, non-adjacent columns": sparse,
            "zero rows between nonzero ones": gaps,
            "value repeating in a non-adjacent row": skip,
            "repeats after lookups end": ended,
            "negative, -0.0 and extreme entries": extremes,
        }
        for name, entries in cases.items():
            write_matrix_csv(tmp_path / "fast.csv", entries)
            per_entry_matrix_csv(tmp_path / "oracle.csv", entries)
            fast, oracle = (tmp_path / "fast.csv").read_bytes(), (tmp_path / "oracle.csv").read_bytes()
            assert fast == oracle, name
            assert fast.count(b"\n") == 1 + np.count_nonzero(entries), name

    def test_matrix_csv_formats_each_repeated_value_once(self, tmp_path, monkeypatch):
        markov = build_markov(CANONICAL_TRANSITION, CANONICAL_INIT, 300)
        toeplitz = causal_resolvent(interdependence_matrix(markov))
        dense = np.triu(np.random.default_rng(3).uniform(size=(300, 300)))
        calls = count_calls(monkeypatch, report, "_format_float")
        # Gamma of the chain holds 300 distinct values, 1, 0.7, 0.7^2, ...,
        # and the dense triangle none twice.
        for entries, distinct in ((toeplitz, 300), (dense, 300 * 301 // 2)):
            calls[0] = 0
            write_matrix_csv(tmp_path / "m.csv", entries)
            assert np.unique(entries[entries != 0.0]).size == distinct
            assert calls[0] == distinct

    def test_matrix_csv_layout(self, tmp_path):
        # Row-major, 1-based integer indices, -0.0 and 0.0 skipped, 12 digits.
        entries = np.array([[1.0, -0.0, 0.1 + 0.2], [0.0, 5e-324, 1e12], [0.0, 0.0, 0.0]])
        write_matrix_csv(tmp_path / "m.csv", entries)
        assert (tmp_path / "m.csv").read_text() == (
            "i,j,value\n1,1,1\n1,3,0.3\n2,2,4.94065645841e-324\n2,3,1e+12\n"
        )
        write_matrix_csv(tmp_path / "zero.csv", np.zeros((2, 2)))
        assert (tmp_path / "zero.csv").read_text() == "i,j,value\n"

    def test_matrix_csv_memory_is_bounded_by_a_row(self, tmp_path):
        # A dense N = 1000 upper triangle is 11 MB of CSV; streaming one
        # matrix row per write keeps the text held at a time to O(N).
        entries = np.triu(np.random.default_rng(7).uniform(size=(1000, 1000)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_matrix_csv(tmp_path / "dense.csv", entries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "dense.csv").stat().st_size > 11_000_000
        assert peak - before < 1_000_000

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

    def test_bounds_with_overflowing_sensitivity(self, tmp_path, capsys):
        # ||c||_2^2 = 8e320: every row built on it reports the overflow, and
        # the run still exits 0 with one inapplicable row per bound.
        doc = yaml.safe_load(Path(MARKOV).read_text())
        doc["sensitivity"] = {"declared": [1e160] * 8}
        config = write_yaml(tmp_path / "huge.yaml", doc)
        assert cli.main(["bounds", "--config", config, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        rows = read_rows(tmp_path / "bounds.csv")[1:]
        assert all(row[1:3] == ["", "0"] and row[4:] == ["", ""] for row in rows)
        assert {row[0]: row[3] for row in rows} == {
            "exact": "proxy ||Gamma c||_2^2 overflows double precision",
            "kontorovich": "geometric-matrix multiplier diverges for contraction 0.7 >= 1/2",
            "markov": "proxy ||c||_2^2 / (1 - alpha)^2 overflows double precision",
            "samson": "proxy ||c||_2^2 * multiplier overflows double precision",
            "scalar_collapse": "proxy N * ||Gamma||_inf^2 * ||c||_inf^2 overflows double precision",
            "spectral": "proxy ||c||_2^2 / kappa overflows double precision",
            "uniform_decay": "proxy ||c||_2^2 / (1 - S)^2 overflows double precision",
        }
        assert len(rows) == 7

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

    def test_verify_tightness_reads_only_bounds_below_one(self, tmp_path, capsys):
        # At the first positive threshold every bound is clipped at 1, so a
        # minimum taken there prints one value for every row.
        assert cli.main(["verify", "--config", MARKOV, "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        tightness = dict(
            line.removeprefix("tightness ").split(": ")
            for line in lines
            if line.startswith("tightness ")
        )
        assert float(tightness["exact"]) < float(tightness["spectral"])
        assert tightness["samson"] == "-"  # never below 1 on the default grid

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

    def test_sweep_without_sparse_row_prints_dash(self, tmp_path, capsys):
        # sum_symbols is not terminal-sparse, so no sparse_terminal row: the
        # printout shows "-" and sweep.csv leaves the cell empty.
        config = write_yaml(
            tmp_path / "sweep.yaml",
            {
                "scenario": {
                    "family": "window",
                    "horizon": 6,
                    "alphabet": 2,
                    "window": {"width": 3, "target_alpha": 0.5},
                },
                "target": {"name": "sum_symbols"},
                "sweep": {"horizons": [4, 6]},
            },
        )
        assert cli.main(["sweep", "--config", config, "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(line.endswith("terminal-sparse -") for line in lines[:2])
        rows = read_rows(tmp_path / "sweep.csv")
        assert [row[3] for row in rows[1:]] == ["", ""]

    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_sweep_matches_compare_bounds(self, tmp_path, monkeypatch, case):
        """Each sweep.csv cell is that of a standalone build at its horizon,
        and each horizon read off the largest build's leading steps has the
        standalone build's step tables and influence matrix, bit for bit."""
        doc = SWEEP_CASES[case]
        config = write_yaml(tmp_path / "sweep.yaml", doc)
        swept = []

        def recording(spec, **kwargs):
            swept.append(spec)
            return seqbound.compare_bounds(spec, **kwargs)

        monkeypatch.setattr(cli, "compare_bounds", recording)
        assert cli.main(["sweep", "--config", config, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "sweep.csv")
        horizons = doc["sweep"]["horizons"]
        assert [int(row[0]) for row in rows[1:]] == horizons
        largest = swept[0]
        assert largest.horizon == horizons[-1]
        loaded = load_config(config)
        for row, spec in zip(rows[1:], sorted(swept, key=lambda s: s.horizon)):
            n = spec.horizon
            alone, f = loaded.build(horizon=n), loaded.target(n)
            report = seqbound.compare_bounds(alone, f=f, c=loaded.sensitivity(alone, f))
            sparse = next((b.proxy for b in report.bounds if b.name == "sparse_terminal"), None)
            cells = (n, report["exact"].proxy, report["scalar_collapse"].proxy, sparse)
            assert row == [format_number(v) for v in cells]
            if spec.family == "markov":
                assert float(row[1]) <= report["markov"].proxy
            assert (spec._tables is largest._tables) == (n >= loaded.prefix_from)
            for j in range(1, n + 1):
                assert step_table(spec, j).tobytes() == step_table(alone, j).tobytes()
            h, h_alone = interdependence_matrix(spec), interdependence_matrix(alone)
            assert h.tobytes() == h_alone.tobytes()

    def test_window_sweep_tabulates_each_step_once(self, tmp_path, monkeypatch):
        # The sweep's kernel calls are those of its largest build; the
        # horizon read off its leading steps is checked against its own H.
        doc = {
            "scenario": {
                "family": "window",
                "horizon": 40,
                "alphabet": 4,
                "window": {"width": 4, "target_alpha": 0.7},
            },
            "target": {"name": "terminal_indicator", "symbol": 1},
            "sweep": {"horizons": [20, 40]},
        }
        config = write_yaml(tmp_path / "window_sweep.yaml", doc)
        calls = count_calls(monkeypatch, seqbound.process, "kernel_at")
        checks = count_calls(monkeypatch, seqbound.config, "check_calibration")
        assert cli.main(["sweep", "--config", config, "--out", str(tmp_path)]) == 0
        swept = calls[0]
        assert checks == [1]
        load_config(config).build(horizon=40)
        assert calls[0] == 2 * swept

    def test_markov_sweep_tabulates_each_step_once(self, tmp_path, monkeypatch):
        # H reads the two-row tables of steps 2..400 once each; step 1's
        # table (no context) is never read.
        config = write_yaml(tmp_path / "markov_sweep.yaml", SWEEP_CASES["markov"])
        calls = count_calls(monkeypatch, seqbound.process, "kernel_at")
        assert cli.main(["sweep", "--config", config, "--out", str(tmp_path)]) == 0
        assert calls == [2 * 399]

    @pytest.mark.parametrize("case", ["independent-matrix", "table", "tree"])
    def test_sweep_rejects_pinned_family(self, tmp_path, capsys, case):
        doc = family_doc(case)
        horizon = doc["scenario"]["horizon"]
        doc["sweep"] = {"horizons": [horizon, horizon + 1]}
        config = write_yaml(tmp_path / "pinned.yaml", doc)
        assert cli.main(["sweep", "--config", config, "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert "N=" not in out
        assert f"pinned to horizon {horizon}" in err
        assert not (tmp_path / "sweep.csv").exists()


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

    @pytest.mark.parametrize(
        "section, key, value", [("scenario", "family", ["markov"]), ("target", "name", {"a": 1})]
    )
    def test_non_string_choice_exits_two(self, tmp_path, capsys, section, key, value):
        doc = small_markov_doc()
        doc[section][key] = value
        config = write_yaml(tmp_path / "bad.yaml", doc)
        assert cli.main(["describe", "--config", config]) == 2
        assert f"config error at {section}.{key}: expected one of" in capsys.readouterr().err

    def test_unreadable_config_path(self, tmp_path):
        assert cli.main(["describe", "--config", str(tmp_path / "absent.yaml")]) == 2

    def test_budget_exhaustion(self, capsys):
        assert cli.main(["matrix", "--config", MARKOV, "--budget", "1"]) == 3
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["markov", "window"])
    def test_sweep_over_budget_prints_no_row(self, tmp_path, capsys, case):
        # The largest horizon is built and bounded first: it alone is over
        # the budget, so no smaller horizon's line is printed before exit 3.
        doc = {**SWEEP_CASES[case], "sweep": {"horizons": [3, 4, 30]}}
        config = write_yaml(tmp_path / "sweep.yaml", doc)
        argv = ["sweep", "--config", config, "--out", str(tmp_path), "--budget", "20"]
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert "N=" not in out
        assert "budget" in err
        assert not (tmp_path / "sweep.csv").exists()

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

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("budget", "zero", "expected an integer, got 'zero'"),
            ("budget", "0", "must be >= 1, got 0"),
            ("seed", str(MAX_SEED + 1), f"must be <= {MAX_SEED}, got {MAX_SEED + 1}"),
        ],
    )
    def test_flag_and_env_share_one_parser(self, monkeypatch, capsys, name, text, message):
        with pytest.raises(SystemExit) as err:
            cli.main(["describe", "--config", MARKOV, f"--{name}", text])
        assert err.value.code == 2
        assert message in capsys.readouterr().err
        monkeypatch.setenv(f"SEQBOUND_{name.upper()}", text)
        assert cli.main(["describe", "--config", MARKOV]) == 2
        assert f"config error at $SEQBOUND_{name.upper()}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, grid, message",
        [
            ("0.5,-1", [0.5, -1], "entry [1]: must be >= 0.0, got -1.0"),
            ("1,nan", [1, float("nan")], "entry [1]: must be finite"),
            ("", [], "must be nonempty"),
        ],
    )
    def test_thresholds_follow_the_t_grid_rule(
        self, tmp_path, monkeypatch, capsys, text, grid, message
    ):
        with pytest.raises(SystemExit) as err:
            cli.main(["describe", "--config", MARKOV, "--t", text])
        assert err.value.code == 2
        assert f"argument --t: {message}" in capsys.readouterr().err
        monkeypatch.setenv("SEQBOUND_T", text)
        assert cli.main(["describe", "--config", MARKOV]) == 2
        assert f"config error at $SEQBOUND_T: {message}" in capsys.readouterr().err
        monkeypatch.delenv("SEQBOUND_T")
        config = write_yaml(tmp_path / "grid.yaml", small_markov_doc(run={"t_grid": grid}))
        assert cli.main(["describe", "--config", config]) == 2
        assert f"config error at run.t_grid: {message}" in capsys.readouterr().err


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
