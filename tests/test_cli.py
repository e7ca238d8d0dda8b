"""Command-line tests: the settings a run uses, rejects and records."""
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trialmi import cli, core
from trialmi.core import ADMIN_WITHDRAWAL, validate_dataset
from trialmi.datagen import generate_trial
from trialmi.errors import ValidationError
from trialmi.imputation import ImputationConfig

from .helpers import completer, count_calls, make_dataset, make_subject, write_csv
from .strategies import invalid_records, valid_records

SETTINGS = {f.name for f in dataclasses.fields(ImputationConfig)} - {"method", "seed"}
BASE = {"m": 4, "min_donor_pool": 6}
CHANGED = {"m": 5, "min_donor_pool": 7, "mar_conditioning": "baseline-only"}


@pytest.fixture(scope="module")
def trial_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "trial.csv"
    write_csv(generate_trial("setting2", seed=4), path)
    return path


def run(tmp_path, name, *argv, config=None):
    out = tmp_path / name
    if config is not None:
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
        argv += ("--config", tmp_path / f"{name}.json")
    assert cli.main([str(a) for a in argv + ("--out", out)]) == 0
    return out, json.loads((out / "manifest.json").read_text())


def data_rows(path):
    return [r for r in csv.reader(path.read_text().splitlines()) if not r[0].startswith("#")]


def test_analyze_takes_m_from_config(trial_csv, tmp_path):
    out, manifest = run(tmp_path, "config", "analyze", trial_csv, config={"imputation": {"m": 5}})
    assert manifest["identity"]["imputation"]["m"] == 5
    flag, _ = run(tmp_path, "flag", "analyze", trial_csv, "--m-imputations", 5)
    assert data_rows(out / "estimates.csv") == data_rows(flag / "estimates.csv")
    _, manifest = run(tmp_path, "both", "analyze", trial_csv, "--m-imputations", 7,
                      config={"imputation": {"m": 5}})
    assert manifest["identity"]["imputation"]["m"] == 7


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_manifest_id_tracks_every_imputation_setting(trial_csv, tmp_path, command):
    if command == "analyze":
        argv, extra = ("analyze", trial_csv), {}
    else:
        argv = ("simulate", "--preset", "setting1", "--reps", 2, "--truth-datasets", 50)
        extra = {"gen": {"n_per_arm": 100}}
    _, base = run(tmp_path, "base", *argv, config={"imputation": BASE, **extra})
    identity = base["identity"] if command == "analyze" else base["identity"]["plan"]
    assert set(identity["imputation"]) == SETTINGS == set(CHANGED)
    ids = {base["manifest_id"]}
    for key, value in CHANGED.items():
        _, manifest = run(tmp_path, key, *argv, config={"imputation": {**BASE, key: value}, **extra})
        ids.add(manifest["manifest_id"])
    assert len(ids) == 1 + len(CHANGED)


def test_analyze_accepts_week0_administrative_withdrawal(tmp_path):
    data = generate_trial("setting2", seed=4)
    w0 = make_subject([None] * 4, withdraw=0.0, withdraw_type=ADMIN_WITHDRAWAL, subject_id="W0")
    path = tmp_path / "w0.csv"
    write_csv(make_dataset(data.subjects + (w0,), grid=data.grid), path)
    out, _ = run(tmp_path, "w0", "analyze", path, "--methods", "C", "--m-imputations", 5)
    rows = data_rows(out / "estimates.csv")[1:]
    assert len(rows) == 3
    assert np.isfinite(np.array([r[2:] for r in rows], dtype=float)).all()


def test_analyze_checks_each_record_once(trial_csv, tmp_path, monkeypatch):
    # One vectorised pass checks every subject, and neither the CSV reader
    # nor the analysis builds a subject record.
    read, datasets = cli.read_dataset_csv, []
    monkeypatch.setattr(cli, "read_dataset_csv", lambda path: datasets.append(read(path)) or datasets[-1])
    checks = count_calls(monkeypatch, core, "_violations")
    records = count_calls(monkeypatch, core.SubjectRecord, "__init__")
    run(tmp_path, "once", "analyze", trial_csv, "--m-imputations", 4)
    assert (checks[0], records[0], len(datasets)) == (1, 0, 1) and "subjects" not in vars(datasets[0])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["y24", "baseline", "disc_week", "withdraw_week"])
def test_non_finite_cell_is_rejected_naming_the_subject(trial_csv, tmp_path, capsys, column, value):
    # A NaN cell is not a missing value: empty cells are.
    rows = data_rows(trial_csv)
    rows[5][rows[0].index(column)] = value
    with open(tmp_path / "bad.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert cli.main(["analyze", str(tmp_path / "bad.csv"), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: subject {rows[5][0]}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("row, column, value, message", [
    (2, "arm", "x", "line 5: arm must be 0 or 1, got 'x'"),
    (2, "withdraw_type", "gone", "line 5: withdraw_type must be admin/other/empty, got 'gone'"),
    (2, "baseline", "abc", "line 5: baseline 'abc' is not a number"),
    (2, "y24", " NaN ", "subject {id}: line 5: y24 'NaN' is NaN"),
    (2, None, "extra", "line 5: expected 10 fields, got 11"),
    (0, "disc_week", "disc", "line 3: missing column 'disc_week'"),
    (0, "y12", "baseline", "line 3: repeated column 'baseline'"),
    (0, "y12", "y0", "line 3: visit week 0.0 must be positive and finite"),
])
def test_parse_error_names_its_file_line(trial_csv, tmp_path, capsys, row, column, value, message):
    # After a comment and a blank line, the header is file line 3 and rows[2], the
    # second subject, is line 5.
    rows = data_rows(trial_csv)
    if column is None:
        rows[row].append(value)
    else:
        rows[row][rows[0].index(column)] = value
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    (tmp_path / "bad.csv").write_text("# comment\n\n" + text.getvalue())
    assert cli.main(["analyze", str(tmp_path / "bad.csv"), "--out", str(tmp_path / "out")]) == 1
    assert message.format(id=rows[2][0]) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def round_trip_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("round-trip") / "data.csv"


@given(st.lists(st.one_of(valid_records(), invalid_records()), min_size=1, max_size=8))
def test_csv_round_trip_keeps_the_arrays_or_names_the_unparsable_lines(round_trip_csv, records):
    # An arm outside {0, 1} or a NaN baseline cannot be written as a cell the
    # reader accepts; every other dataset reads back bit for bit, with the
    # same violations reported.
    data = make_dataset(records)
    write_csv(data, round_trip_csv)
    unparsable = {j + 2 for j, r in enumerate(records) if r.arm not in (0, 1) or math.isnan(r.baseline)}
    if unparsable:
        with pytest.raises(ValidationError) as error:
            cli.read_dataset_csv(round_trip_csv)
        assert {int(n) for n in re.findall(r"line (\d+)", str(error.value))} == unparsable
        return
    back = cli.read_dataset_csv(round_trip_csv)
    assert (back.grid, back.ids) == (data.grid, data.ids)
    for name in ("arm", "baseline", "y", "disc", "withdraw", "withdraw_type"):
        got, want = getattr(back, name), getattr(data, name)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
    assert validate_dataset(back) == validate_dataset(data)


def test_header_only_csv_is_an_input_error(trial_csv, tmp_path, capsys):
    (tmp_path / "header.csv").write_text(trial_csv.read_text().splitlines()[0] + "\n")
    assert cli.main(["analyze", str(tmp_path / "header.csv"), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'header.csv'}: no subject rows\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("invalid", ["duplicate-only", "mixed"])
def test_analyze_reports_every_violation(tmp_path, capsys, invalid):
    subjects = [completer(-1.0, subject_id="X1"), completer(-0.5, subject_id="X1")]
    expected = {"error: subject X1: duplicate subject id"}
    if invalid == "mixed":
        subjects += [make_subject([None] * 4, withdraw=60.0, subject_id="X2"),
                     make_subject([-0.1, -0.2, -0.3, -0.4], withdraw=13.0, subject_id="X3")]
        expected |= {"error: subject X2: withdraw_time 60.0 outside [0, 48.0]",
                     "error: subject X3: visit 1 (week 24) observed after withdrawal at week 13"}
    write_csv(make_dataset(subjects), tmp_path / "bad.csv")
    assert cli.main(["analyze", str(tmp_path / "bad.csv"), "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert expected <= set(lines) and len(lines) == (1 if invalid == "duplicate-only" else 5)
    assert not (tmp_path / "out").exists()


def test_analyze_takes_plan_settings_from_config(trial_csv, tmp_path):
    plan = {"methods": ["A"], "seed": 7, "ci_level": 0.9}
    out, manifest = run(tmp_path, "config", "analyze", trial_csv, "--m-imputations", 4,
                        config={"plan": plan})
    identity = manifest["identity"]
    assert (identity["methods"], identity["seed"], identity["ci_level"]) == (["A"], 7, 0.9)
    flag, flag_manifest = run(tmp_path, "flag", "analyze", trial_csv, "--m-imputations", 4,
                              "--methods", "A", "--seed", 7, "--level", 0.9)
    assert data_rows(out / "estimates.csv") == data_rows(flag / "estimates.csv")
    assert manifest["manifest_id"] == flag_manifest["manifest_id"]
    _, manifest = run(tmp_path, "both", "analyze", trial_csv, "--m-imputations", 4,
                      "--methods", "B", "--seed", 8, "--level", 0.8, config={"plan": plan})
    identity = manifest["identity"]
    assert (identity["methods"], identity["seed"], identity["ci_level"]) == (["B"], 8, 0.8)


def test_analyze_defaults_without_config(trial_csv, tmp_path):
    out, manifest = run(tmp_path, "default", "analyze", trial_csv, "--m-imputations", 4)
    explicit, explicit_manifest = run(tmp_path, "explicit", "analyze", trial_csv, "--m-imputations", 4,
                                      "--methods", "A,B,C,D", "--seed", 0, "--level", 0.95)
    assert manifest == explicit_manifest
    assert (out / "estimates.csv").read_text() == (explicit / "estimates.csv").read_text()


def rejects(tmp_path, capsys, config, *argv):
    (tmp_path / "bad.json").write_text(json.dumps(config))
    assert cli.main([str(a) for a in argv] + ["--config", str(tmp_path / "bad.json"),
                                               "--out", str(tmp_path / "bad")]) == 1
    return capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "truth"])
def test_command_rejects_config_keys_it_does_not_use(trial_csv, tmp_path, capsys, command):
    if command == "analyze":
        argv, unused = ("analyze", trial_csv, "--m-imputations", 4), (
            {"plan": {"preset": "setting2"}}, {"plan": {"n_replicates": 3}}, {"plan": {"workers": 4}},
            {"plan": {"truth_n_datasets": 5}})
        err = rejects(tmp_path, capsys, {"gen": {"n_per_arm": 60}}, *argv)
        assert "analyze does not use section 'gen'" in err
        for key, value in (("survival_kind", "proportional_hazards"), ("gate_probability_override", 0.5)):
            err = rejects(tmp_path, capsys, {"imputation": {key: value}}, *argv)
            assert f"unknown key imputation.{key}" in err
    else:
        argv, unused = ("truth", "--n-datasets", 20), (
            {"plan": {"methods": ["A"]}}, {"plan": {"n_replicates": 3}}, {"plan": {"workers": 4}},
            {"plan": {"ci_level": 0.9}})
        err = rejects(tmp_path, capsys, {"imputation": {"m": 5}}, *argv)
        assert "truth does not use section 'imputation'" in err
    for config in unused:
        key = next(iter(config["plan"]))
        assert f"{command} does not use plan.{key}" in rejects(tmp_path, capsys, config, *argv)


def test_simulate_accepts_every_config_key(tmp_path):
    config = {"gen": {"n_per_arm": 100},
              "plan": {"preset": "setting2", "n_replicates": 2, "methods": ["A", "C"], "seed": 3,
                       "workers": 1, "truth_n_datasets": 50, "ci_level": 0.9},
              "imputation": {**CHANGED, "m": 4, "min_donor_pool": 6}}
    assert set(config["plan"]) == cli._PLAN_KEYS and set(config["imputation"]) == SETTINGS
    _, manifest = run(tmp_path, "all", "simulate", config=config)
    identity = manifest["identity"]
    assert (identity["preset"], identity["params"]["n_per_arm"]) == ("setting2", 100)
    assert identity["plan"]["imputation"] == config["imputation"]
    plan = {k: v for k, v in config["plan"].items() if k not in ("preset", "workers")}
    assert {k: identity["plan"][k] for k in plan} == plan
    assert manifest["execution"]["workers"] == 1


def test_cli_import_leaves_out_scipy_stats(tmp_path):
    # No scipy module at all: loading scipy.special alone costs about a third of a second.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    loaded = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    for argv in (["--help"], ["truth", "--n-datasets", "20", "--out", str(tmp_path)]):
        code = f"import sys, trialmi.cli; trialmi.cli.main({argv!r}); {loaded}"
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                                timeout=60, check=True)
        assert result.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "truth.csv").exists()


@pytest.mark.parametrize("methods", ["A,B", " a , b ", ["A", "B"]])
def test_config_methods_parse_like_the_flag(trial_csv, tmp_path, methods):
    out, manifest = run(tmp_path, "config", "analyze", trial_csv, "--m-imputations", 4,
                        config={"plan": {"methods": methods}})
    assert manifest["identity"]["methods"] == ["A", "B"]
    flag, _ = run(tmp_path, "flag", "analyze", trial_csv, "--m-imputations", 4, "--methods", "A,B")
    assert data_rows(out / "estimates.csv") == data_rows(flag / "estimates.csv")


@pytest.mark.parametrize("methods", ["AB", "", ["AB"], 5])
def test_config_methods_reject_what_the_flag_rejects(trial_csv, tmp_path, capsys, methods):
    err = rejects(tmp_path, capsys, {"plan": {"methods": methods}}, "analyze", trial_csv)
    assert f"got {methods!r}" in err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("command", ["simulate", "analyze"])
@pytest.mark.parametrize("level", [1.5, 0.0, float("nan")])
def test_out_of_range_level_is_rejected_before_any_work(trial_csv, tmp_path, capsys, monkeypatch,
                                                       command, level):
    def no_work(*args, **kwargs):
        raise AssertionError("ran work after a bad ci_level")
    monkeypatch.setattr(cli, "run_plan", no_work)
    monkeypatch.setattr(cli, "read_dataset_csv", no_work)
    argv = ["simulate", "--reps", 2] if command == "simulate" else ["analyze", trial_csv]
    assert cli.main([str(a) for a in argv] + ["--level", str(level), "--out", str(tmp_path / "out")]) == 1
    assert "ci_level must lie in (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, config, name", [
    ("simulate", {"plan": {"n_replicates": "x"}}, "plan.n_replicates"),
    ("simulate", {"plan": {"n_replicates": 2.5}}, "plan.n_replicates"),
    ("simulate", {"plan": {"workers": "two"}}, "plan.workers"),
    ("simulate", {"plan": {"truth_n_datasets": [5]}}, "plan.truth_n_datasets"),
    ("simulate", {"plan": {"ci_level": "high"}}, "plan.ci_level"),
    ("truth", {"plan": {"seed": "x"}}, "plan.seed"),
    ("truth", {"plan": {"truth_n_datasets": "many"}}, "plan.truth_n_datasets"),
    ("analyze", {"plan": {"seed": "x"}}, "plan.seed"),
    ("analyze", {"plan": {"ci_level": "high"}}, "plan.ci_level"),
    ("simulate", {"gen": {"n_per_arm": "x"}}, "gen.n_per_arm"),
    ("simulate", {"gen": {"n_per_arm": 2.5}}, "gen.n_per_arm"),
    ("simulate", {"gen": {"p_miss_completer": None}}, "gen.p_miss_completer"),
    ("simulate", {"gen": {"c_experimental": 0.06}}, "gen.c_experimental"),
    ("truth", {"gen": {"grid": [12, "a"]}}, "gen.grid[1]"),
    ("truth", {"gen": {"grid": "12,24"}}, "gen.grid"),
    ("truth", {"gen": {"c_control": [0.2, None, 0.2, 0.2]}}, "gen.c_control[1]"),
    ("simulate", {"gen": {"n_per_arm": True}}, "gen.n_per_arm"),
    ("truth", {"plan": {"seed": True}}, "plan.seed"),
    ("truth", {"gen": {"theta1": math.nan}}, "gen.theta1"),
    ("simulate", {"gen": {"withdrawal_hazard": math.inf}}, "gen.withdrawal_hazard"),
    ("analyze", {"imputation": {"m": "5"}}, "imputation.m"),
    ("analyze", {"imputation": {"min_donor_pool": 2.5}}, "imputation.min_donor_pool"),
    ("truth", {"gen": {"theta1": "-1.5"}}, "gen.theta1"),
    ("truth", {"gen": {"grid": [12, 24, 36, "48"]}}, "gen.grid[3]"),
    ("simulate", {"plan": {"n_replicates": "2"}}, "plan.n_replicates"),
    ("analyze", {"plan": {"ci_level": "0.9"}}, "plan.ci_level"),
    ("truth", {"gen": {"grid": [12, 24, 36, math.inf]}}, "gen.grid[3]"),
    ("truth", {"gen": {"mu_x": -math.inf}}, "gen.mu_x"),
    ("analyze", {"plan": {"ci_level": math.nan}}, "plan.ci_level"),
])
def test_non_numeric_setting_names_the_setting(trial_csv, tmp_path, capsys, command, config, name):
    argv = (command, trial_csv) if command == "analyze" else (command,)
    err = rejects(tmp_path, capsys, config, *argv)
    assert f"{name} must be" in err
    assert not (tmp_path / "bad").exists()


def test_non_integer_workers_variable_names_the_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.WORKERS_ENV, "abc")
    assert cli.main(["simulate", "--reps", "2", "--out", str(tmp_path / "out")]) == 1
    assert f"{cli.WORKERS_ENV} must be an integer, got 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_workers_variable_is_read_as_text(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.WORKERS_ENV, "2")
    _, manifest = run(tmp_path, "env", "simulate", "--preset", "setting1", "--reps", 2, "--truth-datasets", 50,
                      config={"gen": {"n_per_arm": 100}, "imputation": BASE})
    assert manifest["execution"]["workers"] == 2


def test_gen_values_take_their_field_types(tmp_path):
    _, manifest = run(tmp_path, "typed", "truth", "--n-datasets", 20, config={
        "gen": {"n_per_arm": 60.0, "theta1": -2, "mu_x": None, "grid": [12, 24, 36, 48],
                "c_control": [0, 0.1, 0.1, 0.1]}})
    params = manifest["identity"]["params"]
    assert (params["n_per_arm"], params["theta1"], params["mu_x"]) == (60, -2.0, None)
    assert params["grid"] == [12.0, 24.0, 36.0, 48.0] and params["c_control"] == [0.0, 0.1, 0.1, 0.1]
    assert [type(params[k]) for k in ("n_per_arm", "theta1")] == [int, float]


@pytest.mark.parametrize("form", ["flag", "config"])
def test_analyze_rejects_repeated_methods(trial_csv, tmp_path, capsys, form):
    if form == "flag":
        (tmp_path / "empty.json").write_text("{}")
        argv = ["analyze", str(trial_csv), "--methods", "A,A", "--config", str(tmp_path / "empty.json")]
        assert cli.main(argv + ["--out", str(tmp_path / "bad")]) == 1
        err = capsys.readouterr().err
    else:
        err = rejects(tmp_path, capsys, {"plan": {"methods": ["A", "a"]}}, "analyze", trial_csv)
    assert "methods must not repeat" in err
    assert not (tmp_path / "bad").exists()


def test_exhausted_donor_pool_is_a_runtime_failure(tmp_path, capsys):
    # Two retrieved dropouts per arm: four pooled donors, below the default
    # threshold of 12, for each arm's retrieved dropout with no endpoint.
    subjects = [completer(-1.0 + 0.05 * j, arm=arm, baseline=7 + 0.1 * j)
                for arm in (0, 1) for j in range(15)]
    subjects += [completer(-0.3 - 0.1 * j, arm=arm, disc=12.0, baseline=7 + 0.4 * j)
                 for arm in (0, 1) for j in range(2)]
    subjects += [make_subject([-0.2, None, None, None], arm=arm, disc=24.0) for arm in (0, 1)]
    write_csv(make_dataset(subjects), tmp_path / "short.csv")
    assert cli.main(["analyze", str(tmp_path / "short.csv"), "--m-imputations", "4",
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: donor pool exhausted even after pooling arms")
    assert not (tmp_path / "out").exists()
