"""Golden outputs: the SHA-256 of small fixed-seed CLI runs, below the manifest line.

A change that keeps every random draw and every floating-point operation must
leave these hashes as they are. A change that declares a random-stream layout
change (or an arithmetic change) in CHANGES.md updates them in the same change.
"""
import hashlib
import json

import pytest

from trialmi import cli

from .helpers import load_trialgen

SIMULATE = ("--reps", 3, "--m-imputations", 10, "--truth-datasets", 200, "--seed", 5)
#: run name -> (argv after the command, config or None, output files hashed)
RUNS = {
    "simulate-setting1": (("simulate", "--preset", "setting1") + SIMULATE, None,
                          ("metrics.csv", "scenarios.csv", "truth.csv")),
    # A small trial, so that short donor pools borrow the other arm.
    "simulate-setting2": (("simulate", "--preset", "setting2") + SIMULATE,
                          {"gen": {"n_per_arm": 80}, "imputation": {"min_donor_pool": 6}},
                          ("metrics.csv", "scenarios.csv", "truth.csv")),
    "truth": (("truth", "--preset", "setting2", "--n-datasets", 501, "--seed", 3), None,
              ("truth.csv",)),
    "analyze": (("analyze", "{csv}", "--m-imputations", 20, "--seed", 3), None,
                ("estimates.csv",)),
}
GOLDEN = {
    "simulate-setting1": "9bfce026f0c78f93df99297d143efeb9c333856996ef236cacc9a13f1f04429a",
    "simulate-setting2": "5bcf5988edc8b1b07cd006e527f60f3f61383b0e5b54e180c5df42ee9360d96c",
    "truth": "96fe4627fcce3d47c04e1add331e4152adc45e0a9624b1af23b66421df0bd5d6",
    "analyze": "17ad840b96efbda96786cb78ce9dd48684254c201d9668d4c39679b648743c1b",
}


@pytest.fixture(scope="module")
def trial_csv(tmp_path_factory):
    trialgen = load_trialgen()
    path = tmp_path_factory.mktemp("golden") / "trial.csv"
    trialgen.write_csv(path, trialgen.generate(1, n_per_arm=200)[0])
    return path


def data_digest(out_dir, files) -> str:
    """SHA-256 over each file's name and its rows below the ``# manifest=`` line."""
    digest = hashlib.sha256()
    for name in files:
        lines = (out_dir / name).read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[0].startswith("# manifest=")
        digest.update(name.encode() + b"\0" + "".join(lines[1:]).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_output(name, trial_csv, tmp_path):
    argv, config, files = RUNS[name]
    argv = [str(a).format(csv=trial_csv) for a in argv]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "config.json")]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert data_digest(tmp_path / "out", files) == GOLDEN[name], (
        f"{name}: fixed-seed output changed. Only a declared random-stream or "
        "arithmetic change may update these hashes, and it says so in CHANGES.md.")
