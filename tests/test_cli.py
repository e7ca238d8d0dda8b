"""Command-line tests: the settings a run uses, rejects and records."""
import argparse
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
from trialmi.simharness import SimPlan

from .helpers import completer, count_calls, load_trialgen, make_dataset, make_subject, write_csv
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


def outputs(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def subparser(command):
    parser = cli._build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[command]


def flags_of(command):
    """Each dest a command's options set, with its flag."""
    return {a.dest: a.option_strings[0] for a in subparser(command)._actions if a.option_strings}


#: Per command, the config of a small run, for the settings a test leaves alone.
SMALL = {"simulate": {"gen": {"n_per_arm": 100}, "imputation": {"m": 4, "min_donor_pool": 6},
                      "plan": {"n_replicates": 2, "truth_n_datasets": 50}},
         "truth": {"gen": {"n_per_arm": 10}},
         "analyze": {"imputation": {"m": 4}}}


def command_argv(command, trial_csv):
    return (command, trial_csv) if command == "analyze" else (command,)


def with_key(config, key, value):
    section, name = key.split(".")
    return {**config, section: {**config.get(section, {}), name: value}}


#: (command, flag, the config key it sets, a value, another value for the config to lose to)
FLAG_KEYS = [
    ("simulate", "--preset", "plan.preset", "setting2", "setting1"),
    ("simulate", "--seed", "plan.seed", 3, 4),
    ("simulate", "--reps", "plan.n_replicates", 3, 2),
    ("simulate", "--methods", "plan.methods", "A,C", "B"),
    ("simulate", "--m-imputations", "imputation.m", 5, 6),
    ("simulate", "--workers", "plan.workers", 2, 1),
    ("simulate", "--truth-datasets", "plan.truth_n_datasets", 60, 70),
    ("simulate", "--level", "plan.ci_level", 0.9, 0.8),
    ("truth", "--preset", "plan.preset", "setting2", "setting1"),
    ("truth", "--seed", "plan.seed", 3, 4),
    ("truth", "--n-datasets", "plan.truth_n_datasets", 60, 70),
    ("analyze", "--methods", "plan.methods", "A,C", "B"),
    ("analyze", "--m-imputations", "imputation.m", 5, 6),
    ("analyze", "--seed", "plan.seed", 3, 4),
    ("analyze", "--level", "plan.ci_level", 0.9, 0.8),
]


@pytest.mark.parametrize("command, flag, key, value, other", FLAG_KEYS,
                         ids=[f"{command}{flag}" for command, flag, *_ in FLAG_KEYS])
def test_flag_and_config_key_agree(trial_csv, tmp_path, monkeypatch, command, flag, key, value, other):
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    argv, config = command_argv(command, trial_csv), SMALL[command]
    assert flags_of(command)[key.split(".")[1]] == flag
    _, small_manifest = run(tmp_path, "small", *argv, config=config)
    by_flag, flag_manifest = run(tmp_path, "flag", *argv, flag, value, config=config)
    by_config, config_manifest = run(tmp_path, "config", *argv, config=with_key(config, key, value))
    both, both_manifest = run(tmp_path, "both", *argv, flag, value, config=with_key(config, key, other))
    assert flag_manifest == config_manifest == both_manifest != small_manifest
    assert outputs(by_flag) == outputs(by_config) == outputs(both)


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
    # A lone surrogate is written as the byte it escapes, here 0xE9, which is not UTF-8.
    pytest.param(2, "baseline", "7.5\udce9", "line 5: not UTF-8 text", id="not-utf8"),
    pytest.param(2, "id", "x" * 200_000, "line 5: field larger than field limit (131072)",
                 id="field-over-limit"),
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
    (tmp_path / "bad.csv").write_bytes(("# comment\n\n" + text.getvalue()).encode("utf-8", "surrogateescape"))
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


def test_hash_is_a_comment_only_before_the_header(trial_csv, tmp_path):
    rows = data_rows(trial_csv)
    rows[1][0] = "#" + rows[1][0]
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    (tmp_path / "hash.csv").write_text("# comment\n" + text.getvalue())
    back, data = cli.read_dataset_csv(tmp_path / "hash.csv"), cli.read_dataset_csv(trial_csv)
    assert len(data.ids) == 400
    assert back.ids == ("#" + data.ids[0],) + data.ids[1:]
    assert back.y.tobytes() == data.y.tobytes()


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


@pytest.mark.parametrize("command", ["simulate", "truth", "analyze"])
def test_unset_plan_settings_take_simplan_defaults(trial_csv, tmp_path, monkeypatch, command):
    # The small run leaves every plan setting unset but simulate's replicate and
    # truth counts; the explicit run passes each of the others at SimPlan's
    # default (the preset is not a SimPlan field).
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    argv, config = command_argv(command, trial_csv), SMALL[command]
    flags = flags_of(command)
    defaults = {f.name: f.default for f in dataclasses.fields(SimPlan)}
    explicit = ()
    for key in sorted(set(cli._SETTINGS["plan"]) & set(flags) - {"preset"} - set(config.get("plan", {}))):
        explicit += (flags[key], ",".join(defaults[key]) if key == "methods" else defaults[key])
    assert explicit
    out, manifest = run(tmp_path, "default", *argv, config=config)
    explicit_out, explicit_manifest = run(tmp_path, "explicit", *argv, *explicit, config=config)
    assert manifest == explicit_manifest
    assert outputs(out) == outputs(explicit_out)


def test_every_flag_sets_a_config_key():
    # A flag whose dest is no config key would bypass the one path from flags
    # and config to the settings.
    keys = set().union(*cli._SETTINGS.values())
    for command in ("simulate", "analyze", "truth"):
        dests = {a.dest for a in subparser(command)._actions} - {"help", "command", "config", "out", "dataset"}
        assert dests and dests <= keys, command


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("command", ["simulate", "truth", "analyze"])
def test_negative_seed_is_an_input_error(trial_csv, tmp_path, capsys, command, form):
    argv = command_argv(command, trial_csv)
    if form == "flag":
        assert cli.main([str(a) for a in argv] + ["--seed", "-2", "--out", str(tmp_path / "bad")]) == 1
        err = capsys.readouterr().err
    else:
        err = rejects(tmp_path, capsys, {"plan": {"seed": -2}}, *argv)
    assert err == "error: seed must be a non-negative integer, got -2\n"
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("command", ["simulate", "truth"])
def test_zero_truth_datasets_is_an_input_error(tmp_path, capsys, command, form):
    # The plan rejects the count, naming the key its flag and config set.
    if form == "flag":
        flag = "--truth-datasets" if command == "simulate" else "--n-datasets"
        assert cli.main([command, flag, "0", "--out", str(tmp_path / "bad")]) == 1
        err = capsys.readouterr().err
    else:
        err = rejects(tmp_path, capsys, {"plan": {"truth_n_datasets": 0}}, command)
    assert err == "error: truth_n_datasets must be >= 1, got 0\n"
    assert not (tmp_path / "bad").exists()


def test_analyze_records_each_methods_fallback_events(trial_csv, tmp_path):
    # The benchmark generator's trial (seed 2, 150 per arm) has 11 retrieved
    # dropouts in the control arm, below min_donor_pool (12), so every method
    # pools them across arms.
    trialgen = load_trialgen()
    pooled_csv = tmp_path / "pooled.csv"
    trialgen.write_csv(pooled_csv, trialgen.generate(2, n_per_arm=150)[0])
    _, manifest = run(tmp_path, "pooled", "analyze", pooled_csv, "--m-imputations", 4, "--seed", 2)
    assert manifest["execution"] == {
        "fallback_events": {m: ["retrieved-dropout donors pooled across arms"] for m in "ABCD"}}
    assert manifest["manifest_id"] == cli._manifest_id(manifest["identity"])
    _, manifest = run(tmp_path, "own-arms", "analyze", trial_csv, "--m-imputations", 4, "--methods", "B,C")
    assert manifest["execution"] == {"fallback_events": {"B": [], "C": []}}


def rejects(tmp_path, capsys, config, *argv):
    (tmp_path / "bad.json").write_text(json.dumps(config))
    assert cli.main([str(a) for a in argv] + ["--config", str(tmp_path / "bad.json"),
                                               "--out", str(tmp_path / "bad")]) == 1
    return capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "analyze", "truth"])
def test_config_that_is_not_utf8_is_an_input_error(trial_csv, tmp_path, capsys, command):
    (tmp_path / "bad.json").write_bytes(b'{"plan": {"seed": "\xe9"}}')
    argv = [command, str(trial_csv)] if command == "analyze" else [command]
    assert cli.main(argv + ["--config", str(tmp_path / "bad.json"), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read config {tmp_path / 'bad.json'}: ")
    assert not (tmp_path / "out").exists()


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
    assert set(config["plan"]) == set(cli._SETTINGS["plan"]) and set(config["imputation"]) == SETTINGS
    _, manifest = run(tmp_path, "all", "simulate", config=config)
    identity = manifest["identity"]
    assert (identity["preset"], identity["params"]["n_per_arm"]) == ("setting2", 100)
    assert identity["plan"]["imputation"] == config["imputation"]
    plan = {k: v for k, v in config["plan"].items() if k not in ("preset", "workers")}
    assert {k: identity["plan"][k] for k in plan} == plan
    assert manifest["execution"]["workers"] == 1


def test_cli_import_leaves_out_scipy_stats(tmp_path):
    # No scipy module at all: loading scipy.special alone costs about a third
    # of a second. Nor the process pool, which only --workers > 1 uses: it
    # costs 10-15 ms.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    loaded = ("print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
              " or m == 'concurrent.futures.process'))")
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
    ("truth", {"plan": {"seed": None}}, "plan.seed"),
    ("analyze", {"imputation": {"m": None}}, "imputation.m"),
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
