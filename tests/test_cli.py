"""Command-line tests: the imputation settings a run uses and records."""
import csv
import dataclasses
import json

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
