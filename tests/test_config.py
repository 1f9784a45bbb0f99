"""Config parsing: strict schemas, dotted error paths, and builders."""

import copy
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from seqbound import (
    CalibrationError,
    ConfigError,
    DEFAULT_N_SAMPLES,
    DEFAULT_SEED,
    load_config,
    parse_config,
    prefix_expectation_table,
)
from seqbound import cli
from seqbound.config import _FAMILIES, _TARGETS, RUN_SETTINGS
from conftest import FAMILY_CASES, family_doc

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def minimal_markov(**overrides) -> dict:
    doc = {
        "scenario": {
            "family": "markov",
            "horizon": 3,
            "alphabet": 2,
            "markov": {
                "transition": [[0.9, 0.1], [0.2, 0.8]],
                "init": [1.0, 0.0],
            },
        },
        "target": {"name": "sum_symbols"},
    }
    doc.update(overrides)
    return doc


# One target block per target entry, and its value on the path (1, 0, 1).
TARGET_CASES = {
    "sum_symbols": ({}, 2.0),
    "count_symbol": ({"symbol": 1}, 2.0),
    "terminal_symbol": ({}, 1.0),
    "terminal_indicator": ({"symbol": 0}, 0.0),
    "parity": ({}, 0.0),
    "constant": ({"value": 2.5}, 2.5),
    "table": ({"values": list(range(8))}, 5.0),  # rank of (1, 0, 1)
}


# ============================================================
# Shipped configs parse and build
# ============================================================


class TestShippedConfigs:
    @pytest.mark.parametrize(
        "name", ["markov.yaml", "tree.yaml", "window_small.yaml", "independent.yaml"]
    )
    def test_roundtrip(self, name):
        config = load_config(CONFIG_DIR / name)
        spec = config.build()
        assert spec.horizon == config.horizon
        assert spec.alphabet.size == config.alphabet_size
        f = config.target()
        c = config.sensitivity(spec, f)
        assert c.shape == (spec.horizon,)

    def test_window_sweep_config(self):
        config = load_config(CONFIG_DIR / "window.yaml")
        assert config.sweep is not None
        assert config.sweep == (10, 20, 50, 100, 200)
        spec = config.build(horizon=10)
        assert spec.horizon == 10

    def test_defaults(self):
        config = parse_config(minimal_markov())
        assert config.run.seed == DEFAULT_SEED
        assert config.run.n_samples == DEFAULT_N_SAMPLES
        assert config.run.budget is None
        assert config.run.t_grid is None
        assert config.sweep is None
        assert config.sensitivity_mode == "target"


# ============================================================
# Strict validation with dotted paths
# ============================================================


class TestValidation:
    def test_unknown_top_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_markov(extensions={"a": 1}))
        assert "extensions" in str(err.value)

    def test_missing_sections(self):
        with pytest.raises(ConfigError):
            parse_config({"target": {"name": "parity"}})
        with pytest.raises(ConfigError):
            parse_config({"scenario": minimal_markov()["scenario"]})

    def test_family_block_must_match_family(self):
        doc = minimal_markov()
        doc["scenario"]["independent"] = {"marginals": [0.5, 0.5]}
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert "scenario.independent" in str(err.value)

    def test_wrong_transition_shape(self):
        doc = minimal_markov()
        doc["scenario"]["markov"]["transition"] = [[0.5, 0.25, 0.25]]
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert "scenario.markov.transition" in str(err.value)

    def test_symbol_out_of_range(self):
        doc = minimal_markov(target={"name": "count_symbol", "symbol": 5})
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert "target.symbol" in str(err.value)

    def test_unknown_target(self):
        doc = minimal_markov(target={"name": "mystery"})
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_negative_t_grid_entry(self):
        doc = minimal_markov(run={"t_grid": [0.5, -1.0]})
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert "run.t_grid" in str(err.value)

    def test_seed_bounds(self):
        doc = minimal_markov(run={"seed": -1})
        with pytest.raises(ConfigError):
            parse_config(doc)
        doc = minimal_markov(run={"seed": 2 ** 64})
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_sweep_must_increase(self):
        doc = minimal_markov(sweep={"horizons": [10, 10, 20]})
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert "sweep.horizons" in str(err.value)

    def test_declared_conflicts_with_sweep(self):
        doc = minimal_markov(
            sensitivity={"declared": [1.0, 1.0, 1.0]},
            sweep={"horizons": [3, 6]},
        )
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_declared_and_mode_conflict(self):
        doc = minimal_markov(sensitivity={"mode": "oracle", "declared": [1.0, 1.0, 1.0]})
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_declared_length_checked(self):
        doc = minimal_markov(sensitivity={"declared": [1.0, 1.0]})
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert "sensitivity.declared" in str(err.value)

    def test_boolean_is_not_an_integer(self):
        doc = minimal_markov()
        doc["scenario"]["horizon"] = True
        with pytest.raises(ConfigError):
            parse_config(doc)


# ============================================================
# One rule per kind of value: number, numeric array, choice
# ============================================================


def _numeric_entries(node: dict, at: tuple = ()):
    """Key paths to the first non-null scalar of every number or numeric
    array in a document."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _numeric_entries(value, at + (key,))
        elif not isinstance(value, str):
            entry = at + (key,)
            while isinstance(value, list):
                j = next(j for j, v in enumerate(value) if v is not None)
                entry, value = entry + (j,), value[j]
            yield entry


def _entry_id(entry: tuple) -> str:
    return "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in entry)[1:]


def _per_node_tree() -> dict:
    doc = family_doc("tree")  # parents 0, 1, 1: node 1 is the only root
    block = doc["scenario"]["tree"]
    block["edge_transition"] = [None, block["edge_transition"], block["edge_transition"]]
    block["root_marginal"] = [block["root_marginal"], None, None]
    return doc


# Valid documents that together hold every numeric key, and for each key the
# key path to one of its entries.
NUMERIC_DOCS = {
    **{case: family_doc(case) for case in FAMILY_CASES},
    "tree-per-node": _per_node_tree(),
    **{
        f"target-{name}": minimal_markov(target={"name": name, **TARGET_CASES[name][0]})
        for name in ("count_symbol", "constant", "table")
    },
    "declared": minimal_markov(sensitivity={"declared": [1.0, 0.5, 1.0]}),
    "run": minimal_markov(run={"seed": 1, "budget": 10**6, "n_samples": 10, "t_grid": [0.5, 1]}),
    "sweep": minimal_markov(sweep={"horizons": [3, 6]}),
}
NUMERIC_ENTRIES = {
    _entry_id(entry): (doc, entry)
    for doc in NUMERIC_DOCS.values()
    for entry in _numeric_entries(doc)
}


class TestValueKinds:
    def test_every_numeric_key_has_a_case(self):
        keys = {entry.split("[")[0] for entry in NUMERIC_ENTRIES}
        for family, (block_keys, _) in _FAMILIES.items():
            assert {f"scenario.{family}.{key}" for key in block_keys} <= keys
        assert {"scenario.horizon", "scenario.alphabet", "sensitivity.declared"} <= keys
        assert "sweep.horizons" in keys
        assert {f"target.{key}" for keys_, _ in _TARGETS.values() for key in keys_} <= keys
        assert {f"run.{key}" for key in RUN_SETTINGS} <= keys

    @pytest.mark.parametrize("bad", [True, float("nan"), "1"], ids=["true", "nan", "string"])
    @pytest.mark.parametrize("entry", sorted(NUMERIC_ENTRIES))
    def test_numbers_reject_booleans_nan_and_strings(self, entry, bad):
        doc, at = NUMERIC_ENTRIES[entry]
        parse_config(copy.deepcopy(doc))  # valid as it stands
        doc = copy.deepcopy(doc)
        node = doc
        for step in at[:-1]:
            node = node[step]
        node[at[-1]] = bad
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        key = ".".join(step for step in at if isinstance(step, str))
        assert err.value.path.split("[")[0] == key

    @pytest.mark.parametrize(
        "bad", [["markov"], {"a": 1}, 1, True], ids=["list", "mapping", "int", "bool"]
    )
    @pytest.mark.parametrize(
        "section, key", [("scenario", "family"), ("target", "name"), ("sensitivity", "mode")]
    )
    def test_choices_are_strings(self, section, key, bad):
        doc = minimal_markov(sensitivity={"mode": "oracle"})
        doc[section][key] = bad
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.path == f"{section}.{key}"
        assert f"got {bad!r}" in err.value.message

    @pytest.mark.parametrize(
        "case, key, value, path, message",
        [
            ("tree", "edge_transition", "abc", "edge_transition", "expected a numeric array"),
            (
                "tree-per-node",
                "edge_transition",
                [None, [[0.6, 0.4], [0.4, 0.6]], [[0.6, 0.4], [0.4, True]]],
                "edge_transition[2]",
                "entry [1][1]: expected a number, got True",
            ),
            (
                "tree-per-node",
                "root_marginal",
                [[0.5, 0.5], None],  # neither one vector nor one per node
                "root_marginal",
                "expected a numeric array",
            ),
            (
                "tree-per-node",
                "root_marginal",
                [[0.5, 0.5], None, "ab"],
                "root_marginal[2]",
                "expected a numeric array",
            ),
            (
                "table",
                "kernels",
                [[[0.5, 0.5]], [[0.9, 0.1], [False, 1]]],
                "kernels[1]",
                "entry [1][0]: expected a number, got False",
            ),
        ],
    )
    def test_tree_and_table_arrays_are_checked_under_their_paths(
        self, case, key, value, path, message
    ):
        doc = copy.deepcopy(NUMERIC_DOCS[case])
        family = doc["scenario"]["family"]
        doc["scenario"][family][key] = value
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert (err.value.path, err.value.message) == (f"scenario.{family}.{path}", message)

    def test_per_node_tree_lists_build_the_shared_tree(self):
        shared = parse_config(family_doc("tree")).build()
        per_node = parse_config(_per_node_tree()).build()
        for j in range(1, 4):
            for history in ((0, 0), (1, 1)):
                assert np.array_equal(
                    per_node.kernel(j, history[: j - 1]), shared.kernel(j, history[: j - 1])
                )


class TestKernelShapes:
    """Every kernel array is checked against ``scenario.alphabet`` and against
    the nodes that read it, under its own key."""

    @pytest.mark.parametrize(
        "key, value, path, message",
        [
            (
                "edge_transition",
                [[[9.0]], [[0.6, 0.4], [0.4, 0.6]], [[0.6, 0.4], [0.4, 0.6]]],
                "edge_transition[0]",
                "must be null: node 1 does not read it",
            ),
            (
                "root_marginal",
                [[0.5, 0.5], None, [3.0, -7.0]],
                "root_marginal[2]",
                "must be null: node 3 does not read it",
            ),
            (
                "edge_transition",
                [None, [[0.6, 0.4], [0.4, 0.6]], None],
                "edge_transition[2]",
                "missing: node 3 reads it",
            ),
            ("root_marginal", [None, None, None], "root_marginal[0]", "missing: node 1 reads it"),
        ],
    )
    def test_per_node_entries_are_null_exactly_where_unread(self, key, value, path, message):
        doc = _per_node_tree()  # parents 0, 1, 1
        doc["scenario"]["tree"][key] = value
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert (err.value.path, err.value.message) == (f"scenario.tree.{path}", message)

    def test_the_unread_entries_of_a_tree_document_are_rejected(self):
        doc = _per_node_tree()
        block = doc["scenario"]["tree"]
        block["root_marginal"] = [[0.5, 0.5], [0.5], [3.0, -7.0]]
        block["edge_transition"][0] = [[9.0]]
        for path in ("edge_transition[0]", "root_marginal[1]"):
            with pytest.raises(ConfigError) as err:
                parse_config(doc)
            assert err.value.path == f"scenario.tree.{path}"
            block["edge_transition"][0] = None

    @pytest.mark.parametrize(
        "parent, index, got",
        [([0, 3, 1], 1, 3), ([1, 1, 1], 0, 1), ([0, 1, 3], 2, 3), ([0, -1, 1], 1, -1)],
    )
    def test_a_parent_after_its_child_is_named(self, parent, index, got):
        doc = family_doc("tree")
        doc["scenario"]["tree"]["parent"] = parent
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert (err.value.path, err.value.message) == (
            "scenario.tree.parent",
            f"entry [{index}]: must be 0 (root) or an earlier node (at most {index}), got {got}",
        )

    def test_a_missing_root_entry_is_named(self):
        doc = _per_node_tree()
        block = doc["scenario"]["tree"]
        block["parent"] = [0, 0, 1]
        block["edge_transition"] = [None, None, [[0.6, 0.4], [0.4, 0.6]]]
        block["root_marginal"] = [[0.5, 0.5], None, None]
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert (err.value.path, err.value.message) == (
            "scenario.tree.root_marginal[1]",
            "missing: node 2 reads it",
        )

    @pytest.mark.parametrize(
        "case, path, message",
        [
            ("independent-vector", "independent.marginals", "must have shape (3,), got (2,)"),
            ("independent-matrix", "independent.marginals", "must have shape (2, 3), got (2, 2)"),
            ("markov", "markov.transition", "must be 3x3 for the declared alphabet, got (2, 2)"),
            ("tree", "tree.edge_transition", "must have shape (3, 3), got (2, 2)"),
            ("tree-per-node", "tree.edge_transition[1]", "must have shape (3, 3), got (2, 2)"),
            ("table", "table.kernels[0]", "must have shape (1, 3), got (1, 2)"),
        ],
    )
    def test_alphabet_mismatch_is_named_at_the_family_key(self, case, path, message):
        doc = copy.deepcopy(NUMERIC_DOCS[case])
        doc["scenario"]["alphabet"] = 3
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert (err.value.path, err.value.message) == (f"scenario.{path}", message)

    def test_window_kernels_take_the_declared_alphabet(self):
        doc = family_doc("window")
        doc["scenario"]["alphabet"] = 3
        assert parse_config(doc).build().alphabet.size == 3

    @pytest.mark.parametrize(
        "value, path",
        [([0.2, 0.3, 0.5], "root_marginal"), ([[0.2, 0.3, 0.5], None, None], "root_marginal[0]")],
    )
    def test_tree_root_vectors_follow_the_alphabet(self, value, path):
        doc = _per_node_tree()
        doc["scenario"]["tree"]["root_marginal"] = value
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert (err.value.path, err.value.message) == (
            f"scenario.tree.{path}",
            "must have shape (2,), got (3,)",
        )

    @pytest.mark.parametrize(
        "kernels, path, message",
        [
            ([[0.5, 0.5], [[0.9, 0.1], [0.3, 0.7]]], None, None),  # a bare first row
            (
                [[[0.5, 0.5]], [[0.9, 0.1], [0.3, 0.7], [0.5, 0.5]]],
                "kernels[1]",
                "(2, 2), got (3, 2)",
            ),
            ([[[0.5, 0.5]], [0.9, 0.1]], "kernels[1]", "(2, 2), got (2,)"),
            (
                [[[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.1], [0.3, 0.7]]],
                "kernels[0]",
                "(1, 2), got (2, 2)",
            ),
        ],
    )
    def test_table_kernels_have_one_row_per_history(self, kernels, path, message):
        doc = family_doc("table")
        doc["scenario"]["table"]["kernels"] = kernels
        if path is None:
            assert parse_config(doc).build().horizon == 2
            return
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert (err.value.path, err.value.message) == (
            f"scenario.table.{path}",
            f"must have shape {message}",
        )


# ============================================================
# Builders and sensitivity resolution
# ============================================================


class TestBuilders:
    def test_pinned_horizon_families_reject_resizing(self):
        config = parse_config(minimal_markov())
        spec = config.build(horizon=6)  # markov kernels extend to any horizon
        assert spec.horizon == 6
        for case in ("independent-matrix", "tree", "table"):
            config = parse_config(family_doc(case))
            family, pinned = config.family, config.horizon
            assert config.build(horizon=pinned).horizon == pinned
            message = f"{family} scenario is pinned to horizon {pinned}, asked for 5"
            with pytest.raises(ValueError, match=message):
                config.build(horizon=5)

    def test_alphabet_cross_check(self):
        doc = minimal_markov()
        doc["scenario"]["alphabet"] = 2
        doc["scenario"]["markov"]["transition"] = [[0.9, 0.1], [0.2, 0.8]]
        config = parse_config(doc)
        assert config.build().alphabet.size == 2

    def test_declared_sensitivity_used(self):
        doc = minimal_markov(sensitivity={"declared": [2.0, 0.0, 1.0]})
        config = parse_config(doc)
        spec = config.build()
        c = config.sensitivity(spec, config.target())
        assert np.array_equal(c, [2.0, 0.0, 1.0])

    def test_oracle_mode_matches_declared_for_sum(self):
        doc = minimal_markov(sensitivity={"mode": "oracle"})
        config = parse_config(doc)
        spec = config.build()
        f = config.target()
        c = config.sensitivity(spec, f)
        assert np.allclose(c, [1.0, 1.0, 1.0], atol=1e-12)
        values = prefix_expectation_table(spec, f)[-1]
        assert np.array_equal(config.sensitivity(spec, f, values), c)

    def test_table_family_and_target(self):
        doc = {
            "scenario": {
                "family": "table",
                "horizon": 2,
                "alphabet": 2,
                "table": {
                    "kernels": [
                        [[0.5, 0.5]],
                        [[0.9, 0.1], [0.2, 0.8]],
                    ],
                },
            },
            "target": {"name": "table", "values": [0.0, 1.0, 2.0, 3.0]},
        }
        config = parse_config(doc)
        spec = config.build()
        f = config.target()
        assert f.evaluate((1, 1)) == 3.0
        c = config.sensitivity(spec, f)  # falls back to the oracle
        assert np.allclose(c, [2.0, 1.0], atol=1e-12)
        # f's values in rank order give the oracle's vector without a new pass.
        values = prefix_expectation_table(spec, f)[-1]
        assert np.array_equal(config.sensitivity(spec, f, values), c)


# ============================================================
# One table entry per family and per target
# ============================================================


class TestTables:
    @pytest.mark.parametrize("case", sorted(FAMILY_CASES))
    def test_family_entry(self, case):
        family, horizon, _, prefix_from = FAMILY_CASES[case]
        config = parse_config(family_doc(case))
        assert (config.family, config.prefix_from) == (family, prefix_from)
        spec = config.build()
        assert (spec.family, spec.horizon, spec.alphabet.size) == (family, horizon, 2)
        doc = family_doc(case)
        doc["scenario"][family]["bogus"] = 1
        with pytest.raises(ConfigError, match=rf"scenario\.{family}\.bogus: unknown key"):
            parse_config(doc)

    def test_window_has_no_tolerance_key(self):
        doc = family_doc("window")
        doc["scenario"]["window"]["tolerance"] = 1e-3
        with pytest.raises(ConfigError, match=r"scenario\.window\.tolerance: unknown key"):
            parse_config(doc)

    def test_build_within_a_larger_build(self):
        config = parse_config(family_doc("window"))  # width 2: prefix-closed from 3
        larger = config.build(horizon=6)
        assert config.build(horizon=3, within=larger)._tables is larger._tables
        # At horizon 2 beta is solved over one distance, so the larger
        # build's leading steps miss the target, and the check sees it.
        with pytest.raises(CalibrationError, match="calibration missed"):
            config.build(horizon=2, within=larger)
        with pytest.raises(ValueError, match="leading steps must number 1..6"):
            config.build(horizon=7, within=larger)

    @pytest.mark.parametrize("name", sorted(TARGET_CASES))
    def test_target_entry(self, name):
        params, value = TARGET_CASES[name]
        config = parse_config(minimal_markov(target={"name": name, **params}))
        config.build()
        assert config.target().evaluate((1, 0, 1)) == value
        with pytest.raises(ConfigError, match=r"target\.bogus: unknown key"):
            parse_config(minimal_markov(target={"name": name, "bogus": 1, **params}))

    def test_every_entry_has_a_case(self):
        assert {family for family, *_ in FAMILY_CASES.values()} == set(_FAMILIES)
        assert set(TARGET_CASES) == set(_TARGETS)
        for name, (keys, _) in _TARGETS.items():
            assert set(TARGET_CASES[name][0]) == keys

    def test_schema_doc_lists_every_key(self):
        """Every family block key and every target name with its keys appears
        in docs/config_schema.md, so an entry added without docs fails here."""
        text = (ROOT / "docs" / "config_schema.md").read_text()
        for family, (keys, _) in _FAMILIES.items():
            section = re.search(rf"^`{family}`:\n\n((?:\|.*\n)+)", text, re.MULTILINE)
            assert section, f"no key table for family {family}"
            assert set(re.findall(r"^\| `(\w+)` \|", section.group(1), re.MULTILINE)) == keys
        for name, (keys, _) in _TARGETS.items():
            row = re.search(rf"^\| `{name}` \| (.*?) \|", text, re.MULTILINE)
            assert row, f"no row for target {name}"
            assert set(re.findall(r"`(\w+)`", row.group(1))) == keys


# ============================================================
# File loading
# ============================================================


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("scenario: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize(
        "name", sorted(path.name for path in CONFIG_DIR.glob("*.yaml")) + sorted(FAMILY_CASES)
    )
    def test_loaders_give_equal_documents(self, name):
        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML was built without libyaml")
        if name in FAMILY_CASES:
            text = yaml.safe_dump(family_doc(name))
        else:
            text = (CONFIG_DIR / name).read_text(encoding="utf-8")
        document = yaml.load(text, Loader=yaml.CSafeLoader)
        assert document == yaml.load(text, Loader=yaml.SafeLoader)
        assert isinstance(document, dict)

    @pytest.mark.parametrize("libyaml", [True, False], ids=["CSafeLoader", "SafeLoader"])
    def test_invalid_yaml_exits_two_on_either_loader(self, tmp_path, monkeypatch, capsys, libyaml):
        if libyaml and not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML was built without libyaml")
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        loaders = []
        load = yaml.load
        monkeypatch.setattr(
            yaml, "load", lambda text, Loader: loaders.append(Loader) or load(text, Loader=Loader)
        )
        path = tmp_path / "broken.yaml"
        path.write_text("scenario: [unclosed\n")
        assert cli.main(["describe", "--config", str(path)]) == 2
        assert "invalid YAML" in capsys.readouterr().err
        assert loaders == [yaml.CSafeLoader if libyaml else yaml.SafeLoader]
        # The same loader parses a valid document into a config.
        path.write_text(yaml.safe_dump(minimal_markov()))
        assert load_config(path).family == "markov"
        assert len(set(loaders)) == 1

    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "ok.yaml"
        path.write_text(yaml.safe_dump(minimal_markov()))
        config = load_config(path)
        assert config.family == "markov"
        assert config.horizon == 3
