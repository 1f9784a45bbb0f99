"""Tests of the benchmark itself: the generator, the span arithmetic and the
output checks.  Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest
import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from seqbound.cli import main as cli_main  # noqa: E402
from seqbound.config import load_config  # noqa: E402
from seqbound.sampling import DEFAULT_GRID_POINTS, default_t_grid, empirical_tail  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


def _write(doc: dict, path: Path) -> str:
    path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    return str(path)


# ============================================================
# Generator
# ============================================================


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_in_the_seed(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    assert workloads.generate(name, 7) != workloads.generate(name, 8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_configs_load(name, tmp_path):
    for scenario in workloads.generate(name, 3):
        config = load_config(_write(scenario.doc, tmp_path / f"{scenario.name}.yaml"))
        assert config.horizon == scenario.doc["scenario"]["horizon"]
        assert scenario.operations


def test_markov_alpha_band():
    for seed in range(20):
        (scenario,) = workloads.generate("markov-long", seed)
        alpha = checks.dobrushin(scenario.doc["scenario"]["markov"]["transition"])
        assert 0.695 - 1e-6 <= alpha <= 0.705 + 1e-6


# ============================================================
# Spans
# ============================================================


def test_self_time_of_nested_spans():
    spans = [
        Span("cli.main", 0.0, 10.0, None),
        Span("bounds.compare_bounds", 1.0, 7.0, 0),
        Span("resolvent.spectral_norm", 2.0, 5.0, 1),
        Span("report.write_csv", 8.0, 9.5, 0),
    ]
    own = self_times(spans)
    assert own == pytest.approx([2.5, 3.0, 3.0, 1.5])
    assert sum(own) == pytest.approx(10.0)


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        Span("a", 0.0, 10.0, None),
        Span("b", 1.0, 4.0, 0),
        Span("c", 3.0, 6.0, 0),
        Span("d", 9.0, 12.0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_records_parents_and_counters():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.spanned("m.inner", lambda x: x + 1)
    outer = tracer.spanned("m.outer", lambda x: inner(x) * 2)
    hot = tracer.counted("m.hot", lambda: None)
    assert outer(1) == 4  # not recording: no spans
    assert tracer.spans == []
    tracer.recording = True
    assert outer(1) == 4
    hot()
    hot()
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("m.outer", None), ("m.inner", 0)]
    assert tracer.counters["m.outer.calls"] == 1
    assert tracer.counters["m.hot.calls"] == 2
    assert sum(self_times(tracer.spans)) == pytest.approx(tracer.spans[0].end - tracer.spans[0].start)


def test_install_patches_names_callers_imported(tmp_path):
    import seqbound.bounds
    import seqbound.cli
    import seqbound.influence

    original = seqbound.influence.interdependence_matrix
    (scenario,) = workloads.generate("markov-long", 1)
    scenario.doc["scenario"]["horizon"] = 8
    path = _write(scenario.doc, tmp_path / "m.yaml")
    tracer = Tracer()
    assert tracer.install() == []
    try:
        assert seqbound.bounds.interdependence_matrix is not original
        tracer.recording = True
        # Read at call time, as the benchmark does, to reach the patched name.
        assert seqbound.cli.main(["bounds", "--config", path, "--out", str(tmp_path / "out")]) == 0
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert seqbound.bounds.interdependence_matrix is original
    assert tracer.counters["influence.interdependence_matrix.calls"] == 1
    assert tracer.counters["influence.table_cells"] == 7 * 2 * 2
    assert tracer.counters["process.kernel_evals"] == tracer.counters["process.kernel_at.calls"] == 14
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    assert sum(self_times(tracer.spans)) == pytest.approx(roots[0].end - roots[0].start)


# ============================================================
# Output checks
# ============================================================


@pytest.fixture(scope="module")
def markov_outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("markov")
    (scenario,) = workloads.generate("markov-long", 5)
    scenario.doc["scenario"]["horizon"] = 30
    scenario.doc["run"]["n_samples"] = 2000
    path = _write(scenario.doc, base / "m.yaml")
    for op in ("matrix", "bounds"):
        assert cli_main([op, "--config", path, "--out", str(base / op)]) == 0
    return scenario.doc, base, path


def _copy(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


def _edit_lines(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def test_markov_influence_check(markov_outputs, tmp_path):
    doc, base, _ = markov_outputs
    assert checks.check_markov_influence(base / "matrix" / "influence.csv", doc) == []

    shifted = _copy(base / "matrix", tmp_path / "shifted") / "influence.csv"

    def off_by_1e6(lines):
        i, j, value = lines[3].strip().split(",")
        return lines[:3] + [f"{i},{j},{float(value) + 1e-6!r}\n"] + lines[4:]

    _edit_lines(shifted, off_by_1e6)
    assert checks.check_markov_influence(shifted, doc)

    short = _copy(base / "matrix", tmp_path / "short") / "influence.csv"
    _edit_lines(short, lambda lines: lines[:-1])
    assert checks.check_markov_influence(short, doc)


def test_bounds_check(markov_outputs, tmp_path):
    doc, base, _ = markov_outputs
    good = base / "bounds" / "bounds.csv"
    assert checks.check_bounds(good, doc, DEFAULT_GRID_POINTS) == []

    no_exact = _copy(base / "bounds", tmp_path / "no_exact") / "bounds.csv"
    _edit_lines(no_exact, lambda lines: [line for line in lines if not line.startswith("exact,")])
    assert checks.check_bounds(no_exact, doc, DEFAULT_GRID_POINTS)

    missing_row = _copy(base / "bounds", tmp_path / "missing_row") / "bounds.csv"
    _edit_lines(missing_row, lambda lines: lines[:-1])
    assert checks.check_bounds(missing_row, doc, DEFAULT_GRID_POINTS)

    proxies = checks.bound_proxies(good)
    inverted = _copy(base / "bounds", tmp_path / "inverted") / "bounds.csv"

    def raise_exact(lines):
        top = max(p for name, p in proxies.items() if p is not None and name not in checks.COMPARISON_ONLY)
        return [
            line.replace(f"exact,{line.split(',')[1]},", f"exact,{top * 2!r},", 1)
            if line.startswith("exact,") else line
            for line in lines
        ]

    _edit_lines(inverted, raise_exact)
    assert any("exceeds certified" in p for p in checks.check_bounds(inverted, doc, DEFAULT_GRID_POINTS))


def test_tail_check(markov_outputs):
    doc, base, path = markov_outputs
    config = load_config(path)
    spec, f = config.build(), config.target()
    estimate = empirical_tail(spec, f, default_t_grid(f.sensitivity), n_samples=2000, seed=3)
    proxies = checks.bound_proxies(base / "bounds" / "bounds.csv")
    assert checks.check_tail(estimate, proxies, 2000) == []
    assert checks.check_tail(estimate, {"exact": proxies["exact"] * 1e-3}, 2000)
    assert checks.check_tail(estimate, proxies, 4000)


def test_same_files_check(markov_outputs, tmp_path):
    _, base, _ = markov_outputs
    again = _copy(base / "matrix", tmp_path / "again")
    assert checks.check_same_files(base / "matrix", again) == []
    _edit_lines(again / "resolvent.csv", lambda lines: lines[:-1] + [lines[-1].replace("1", "2", 1)])
    assert checks.check_same_files(base / "matrix", again)


@pytest.fixture(scope="module")
def window_outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("window")
    (scenario,) = workloads.generate("window-wide", 5)
    scenario.doc["scenario"].update(horizon=8, alphabet=2)
    scenario.doc["scenario"]["window"]["width"] = 2
    scenario.doc["target"]["symbol"] = 1
    scenario.doc["sweep"]["horizons"] = [4, 8]
    path = _write(scenario.doc, base / "w.yaml")
    for op in ("bounds", "sweep"):
        assert cli_main([op, "--config", path, "--out", str(base / op)]) == 0
    return scenario.doc, base, path


def test_window_checks(window_outputs, tmp_path):
    doc, base, path = window_outputs
    assert checks.check_bounds(base / "bounds" / "bounds.csv", doc, DEFAULT_GRID_POINTS) == []
    assert checks.check_sweep(base / "sweep" / "sweep.csv", doc) == []
    assert checks.check_window_spec(load_config(path).build(), doc) == []

    missed = {**doc, "scenario": {**doc["scenario"], "window": {**doc["scenario"]["window"]}}}
    missed["scenario"]["window"]["target_alpha"] += 0.01
    assert checks.check_bounds(base / "bounds" / "bounds.csv", missed, DEFAULT_GRID_POINTS)
    assert checks.check_sweep(base / "sweep" / "sweep.csv", missed)
    assert checks.check_window_spec(load_config(path).build(), missed)

    short = _copy(base / "sweep", tmp_path / "short") / "sweep.csv"
    _edit_lines(short, lambda lines: lines[:-1])
    assert checks.check_sweep(short, doc)


@pytest.fixture(scope="module")
def verify_outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("verify")
    markov = next(s for s in workloads.generate("verify-exact", 5) if s.name == "markov")
    markov.doc["scenario"]["horizon"] = 6
    markov.doc["run"]["n_samples"] = 2000
    path = _write(markov.doc, base / "m.yaml")
    code = cli_main(["verify", "--config", path, "--out", str(base / "verify")])
    return code, base / "verify"


def _set_row(path: Path, check: str, j: str, scale: float) -> None:
    """Fail the first row of `check` at coordinate j, its observed value set
    to `scale` times its bound."""

    def edit(lines):
        out, done = [], False
        for line in lines:
            cells = line.rstrip("\n").split(",")
            if not done and cells[0] == check and cells[2] == j:
                cells[3], cells[6], done = repr(float(cells[4]) * scale), "0", True
            out.append(",".join(cells) + "\n")
        assert done
        return out

    _edit_lines(path, edit)


def test_verification_check(verify_outputs, tmp_path):
    code, out = verify_outputs
    good = out / "verification.csv"
    problems, alarms = checks.check_verification(good)
    assert problems == []
    assert (code == 1) == bool(alarms)

    # A Monte Carlo row 4 standard errors out is a false alarm; 6 is a problem.
    sigmas = checks.MC_ROW_SIGMAS["discrepancy_mc_exact"]
    chance = _copy(out, tmp_path / "chance") / "verification.csv"
    _set_row(chance, "discrepancy_mc_exact", "2", 4.0 / sigmas)
    problems, alarms = checks.check_verification(chance)
    assert problems == [] and any("j=2" in alarm for alarm in alarms)

    far = _copy(out, tmp_path / "far") / "verification.csv"
    _set_row(far, "discrepancy_mc_exact", "2", 6.0 / sigmas)
    assert checks.check_verification(far)[0]

    exact = _copy(out, tmp_path / "exact") / "verification.csv"
    _set_row(exact, "discrepancy_exact", "2", 1.0 + 1e-6)
    assert any("exact check" in p for p in checks.check_verification(exact)[0])
