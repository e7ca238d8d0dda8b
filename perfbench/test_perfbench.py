"""Tests of the benchmark itself, at tiny sizes: each output check passes on
right outputs and fails on wrong ones, and the analyze-csv generator's
closed-form truth matches its own Monte Carlo mean.

    python3 -m pytest perfbench
"""
import csv
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import trialgen
from tracing import Tracer
from trialmi import cli
from trialmi.core import ADMIN_WITHDRAWAL, OTHER_WITHDRAWAL, scenario_counts
from trialmi.datagen import setting_preset
from trialmi.imputation import ImputationConfig, impute_matrix

HERE = Path(__file__).resolve().parent


def run_cli(*argv) -> None:
    assert cli.main([str(a) for a in argv]) == 0


def rewrite(path: Path, edit) -> None:
    """Apply ``edit`` to the data rows of a trialmi output CSV, in place."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
    fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(comments)
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def find(rows, **match):
    return next(r for r in rows if all(r[k] == v for k, v in match.items()))


# --- the analyze-csv generator ------------------------------------------------------


def test_generator_truth_matches_its_monte_carlo_mean():
    _, arm, endpoint = trialgen.generate(seed=5, n_per_arm=20000)
    truth = trialgen.closed_form_truth()
    for a in (0, 1):
        values = endpoint[arm == a]
        mcse = math.sqrt(truth.var[a] / values.size)
        assert abs(values.mean() - truth.mean[a]) <= 4 * mcse
        assert values.var(ddof=1) == pytest.approx(truth.var[a], rel=0.05)


def test_generator_makes_the_documented_input(tmp_path):
    path = tmp_path / "trial.csv"
    trialgen.write_csv(path, trialgen.generate(seed=3)[0])
    data = cli.read_dataset_csv(path)
    assert cli.validate_dataset(data) == []
    subjects = data.subjects
    assert len(subjects) == 2 * trialgen.N_PER_ARM
    admin = [s.withdraw_time for s in subjects if s.withdraw_type == ADMIN_WITHDRAWAL]
    assert 0.15 <= len(admin) / len(subjects) <= 0.25
    assert min(admin) > 0
    assert len(admin) - len(set(admin)) >= trialgen.SITE_SIZE  # site closures tie
    assert any(s.withdraw_type == OTHER_WITHDRAWAL for s in subjects)
    assert any(s.missing[1] and not s.missing[2] for s in subjects)  # visit gaps
    counts = scenario_counts(data)
    assert all(n > 0 for arm in counts.values() for n in arm.values())


def test_generator_depends_only_on_seed():
    assert trialgen.generate(7, 50)[0] == trialgen.generate(7, 50)[0]
    assert trialgen.generate(7, 50)[0] != trialgen.generate(8, 50)[0]


# --- truth-setting2 ------------------------------------------------------------------


@pytest.fixture(scope="module")
def truth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("truth")
    run_cli("truth", "--preset", "setting2", "--n-datasets", 400, "--seed", 1, "--out", out)
    return out


def test_truth_check_passes_on_program_output(truth_dir):
    assert checks.check_truth_csv(truth_dir / "truth.csv", setting_preset("setting2"), 400) == []


@pytest.mark.parametrize("estimand", ["control", "treatment", "difference"])
def test_truth_check_fails_on_shifted_truth(truth_dir, tmp_path, estimand):
    path = tmp_path / "truth.csv"
    shutil.copy(truth_dir / "truth.csv", path)
    subjects = 400 * setting_preset("setting2").n_per_arm

    def shift(rows):
        row = find(rows, estimand=estimand)
        row["value"] = repr(float(row["value"]) + 10 * math.sqrt(3.0 / subjects))
    rewrite(path, shift)
    assert checks.check_truth_csv(path, setting_preset("setting2"), 400)


def test_closed_form_treatment_needs_response_independent_dropout():
    assert set(checks.preset_closed_form(setting_preset("setting1"))) == {"control"}
    assert set(checks.preset_closed_form(setting_preset("setting2"))) == {"control", "treatment"}


# --- simulate-setting1 ---------------------------------------------------------------

R = 100


def good_metrics() -> list[dict[str, str]]:
    """Rows with the properties a paper-scale setting1 plan must show."""
    rows = []
    for method in checks.METHODS:
        for estimand in checks.ESTIMANDS:
            bias = 0.12 if (method == "B" and estimand != "control") else 0.005
            rows.append({"method": method, "estimand": estimand, "BIAS": str(bias),
                         "ESE": "0.15", "ASE": "0.15", "CP": "0.95"})
    return rows


def test_metrics_check_passes_on_good_rows():
    assert checks.check_metrics(good_metrics(), R) == []


def test_metrics_check_fails_on_swapped_method_columns():
    rows = good_metrics()
    for estimand in checks.ESTIMANDS:
        b, c = find(rows, method="B", estimand=estimand), find(rows, method="C", estimand=estimand)
        b["method"], c["method"] = "C", "B"
    assert checks.check_metrics(rows, R)


@pytest.mark.parametrize("column,value", [("BIAS", "0.1"), ("CP", "0.8"), ("ESE", "0"),
                                          ("ASE", "nan")])
def test_metrics_check_fails_on_a_wrong_method_c_value(column, value):
    rows = good_metrics()
    find(rows, method="C", estimand="difference")[column] = value
    assert checks.check_metrics(rows, R)


def test_metrics_check_fails_without_a_b_versus_c_gap():
    rows = good_metrics()
    find(rows, method="B", estimand="treatment")["BIAS"] = "0.05"
    assert checks.check_metrics(rows, R)


def test_metrics_check_fails_on_a_missing_row():
    assert checks.check_metrics(good_metrics()[:-1], R)


@pytest.fixture()
def simulate_dir(tmp_path):
    """Real outputs of a tiny plan, with metrics.csv replaced by good rows:
    the statistical checks need paper-scale replicates."""
    run_cli("simulate", "--preset", "setting1", "--reps", 2, "--m-imputations", 5,
            "--truth-datasets", 300, "--seed", 4, "--out", tmp_path)

    def replace(rows):
        rows[:] = good_metrics()
    rewrite(tmp_path / "metrics.csv", replace)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["identity"]["plan"]["n_replicates"] = R
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    return tmp_path


def test_simulate_check_passes(simulate_dir):
    assert checks.check_simulate_dir(simulate_dir, setting_preset("setting1"), R, 300) == []


def test_simulate_check_fails_on_shifted_control_truth(simulate_dir):
    def shift(rows):
        find(rows, estimand="control")["value"] = "0.05"
    rewrite(simulate_dir / "truth.csv", shift)
    assert checks.check_simulate_dir(simulate_dir, setting_preset("setting1"), R, 300)


def test_simulate_check_fails_on_scenario_counts(simulate_dir):
    def drop(rows):
        row = find(rows, arm="treatment", scenario="S1")
        row["mean_count"] = repr(float(row["mean_count"]) - 1.0)
    rewrite(simulate_dir / "scenarios.csv", drop)
    assert checks.check_simulate_dir(simulate_dir, setting_preset("setting1"), R, 300)


def test_simulate_check_fails_on_excluded_replicates(simulate_dir):
    manifest = json.loads((simulate_dir / "manifest.json").read_text())
    manifest["execution"]["n_excluded"] = 1
    (simulate_dir / "manifest.json").write_text(json.dumps(manifest))
    assert checks.check_simulate_dir(simulate_dir, setting_preset("setting1"), R, 300)


# --- analyze-csv ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def estimates(tmp_path_factory):
    out = tmp_path_factory.mktemp("analyze")
    trialgen.write_csv(out / "trial.csv", trialgen.generate(seed=2, n_per_arm=200)[0])
    run_cli("analyze", out / "trial.csv", "--m-imputations", 5, "--seed", 2, "--out", out)
    return checks.read_table(out / "estimates.csv")


def fresh(rows):
    return [dict(r) for r in rows]


def test_estimates_check_passes_on_program_output(estimates):
    assert checks.check_estimates(estimates, trialgen.closed_form_truth()) == []


def test_estimates_check_fails_on_shifted_truth(estimates):
    truth = trialgen.closed_form_truth()
    shifted = trialgen.Truth(mean=(truth.mean[0], truth.mean[1] + 1.0), var=truth.var)
    assert checks.check_estimates(estimates, shifted)
    shifted = trialgen.Truth(mean=(truth.mean[0] + 1.0, truth.mean[1] + 1.0), var=truth.var)
    assert checks.check_estimates(estimates, shifted)


@pytest.mark.parametrize("edit", [
    {"estimand": "treatment", "column": "ci_high", "value": "-9"},
    {"estimand": "control", "column": "se", "value": "0"},
    {"estimand": "difference", "column": "estimate", "value": "0.5"},
])
def test_estimates_check_fails_on_a_wrong_row(estimates, edit):
    rows = fresh(estimates)
    find(rows, method="A", estimand=edit["estimand"])[edit["column"]] = edit["value"]
    assert checks.check_estimates(rows, trialgen.closed_form_truth())


def test_estimates_check_fails_on_a_missing_method(estimates):
    rows = [r for r in fresh(estimates) if r["method"] != "D"]
    assert checks.check_estimates(rows, trialgen.closed_form_truth())


# --- the impute_matrix boundary check and the tracer --------------------------------


@pytest.fixture(scope="module")
def small_trial(tmp_path_factory):
    path = tmp_path_factory.mktemp("trial") / "trial.csv"
    trialgen.write_csv(path, trialgen.generate(seed=9, n_per_arm=150)[0])
    return path


def test_imputed_check(small_trial):
    data = cli.read_dataset_csv(small_trial)
    endpoints = impute_matrix(data, ImputationConfig(method="C", m=4)).endpoints
    assert checks.check_imputed(data, endpoints) == []
    observed = next(j for j, s in enumerate(data.subjects) if not s.missing[-1])
    changed = endpoints.copy()
    changed[2, observed] += 1e-9
    assert checks.check_imputed(data, changed)
    missing = next(j for j, s in enumerate(data.subjects) if s.missing[-1])
    changed = endpoints.copy()
    changed[0, missing] = np.nan
    assert checks.check_imputed(data, changed)


def test_tracer_records_layers_and_restores_functions(small_trial, tmp_path):
    import trialmi.imputation as imputation
    original = (cli.main, cli.impute_matrix, imputation.classify_scenario)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.impute_matrix is imputation.impute_matrix is not original[1]
        run_cli("analyze", small_trial, "--m-imputations", 4, "--out", tmp_path)
    finally:
        tracer.uninstall()
    assert (cli.main, cli.impute_matrix, imputation.classify_scenario) == original
    assert tracer.absent == [] and tracer.failures == []
    spans = tracer.summary()
    for method in checks.METHODS:
        assert spans[f"imputation.impute_matrix.{method}"]["calls"] == 1
    # Four extractions plus one survival sample build classify every subject.
    assert spans["core.classify_scenario"]["calls"] == 5 * 300
    assert spans["survival.fit_survival"]["calls"] == 2
    assert tracer.counts["survival.fit_survival.iterations"] > 0
    root = spans["cli.main"]
    assert root["calls"] == 1 and 0 < root["self_ms"] < root["ms"]


def test_self_time_excludes_child_spans_and_result_hooks():
    tracer = Tracer()
    inner = tracer._wrap(lambda: time.sleep(0.01), "inner", after=lambda args, r: time.sleep(0.02))

    def outer_body():
        inner()
        inner()
        time.sleep(0.005)
    tracer._wrap(outer_body, "outer")()
    spans = tracer.summary()
    assert spans["inner"]["calls"] == 2 and spans["outer"]["calls"] == 1
    assert spans["inner"]["ms"] < 40
    assert spans["outer"]["ms"] - spans["outer"]["self_ms"] == pytest.approx(
        spans["inner"]["ms"] + spans["perfbench.after_call"]["ms"], rel=1e-9)
    assert 5 <= spans["outer"]["self_ms"] < 20


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "analyze-csv",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
