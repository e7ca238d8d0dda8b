"""Command-line tests: the settings a run uses, rejects and records."""
import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trialmi import cli
from trialmi.core import ADMIN_WITHDRAWAL
from trialmi.datagen import generate_trial
from trialmi.imputation import ImputationConfig

from .helpers import make_dataset, make_subject, write_csv

SETTINGS = {f.name for f in dataclasses.fields(ImputationConfig)} - {"method", "seed"}
BASE = {"m": 4, "min_donor_pool": 6}
CHANGED = {"m": 5, "survival_kind": "kaplan_meier", "min_donor_pool": 7,
           "mar_conditioning": "baseline-only", "gate_probability_override": 0.5}


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
    config = {"gen": {"n_per_arm": 60},
              "plan": {"preset": "setting2", "n_replicates": 2, "methods": ["A", "C"], "seed": 3,
                       "workers": 1, "truth_n_datasets": 50, "ci_level": 0.9},
              "imputation": {**CHANGED, "m": 4, "min_donor_pool": 6}}
    assert set(config["plan"]) == cli._PLAN_KEYS and set(config["imputation"]) == SETTINGS
    _, manifest = run(tmp_path, "all", "simulate", config=config)
    identity = manifest["identity"]
    assert (identity["preset"], identity["params"]["n_per_arm"]) == ("setting2", 60)
    assert identity["plan"]["imputation"] == config["imputation"]
    plan = {k: v for k, v in config["plan"].items() if k not in ("preset", "workers")}
    assert {k: identity["plan"][k] for k in plan} == plan
    assert manifest["execution"]["workers"] == 1


def test_cli_import_leaves_out_scipy_stats():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, trialmi.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            timeout=60, check=True)
    assert result.stdout.strip() == "False"


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
