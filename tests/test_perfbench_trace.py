"""A short traced run of the benchmark in ``perfbench/``, on a copy of the
source tree. Its tracer reads the results of traced calls
(``impute_matrix(...).endpoints`` with the dataset's ``subjects``, and
``SurvivalModel.iterations``), which a check of the names alone does not
exercise."""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_analyze_run_is_correct(tmp_path):
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__", "results"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "analyze-csv", "--seed", "1",
                          "--seconds", "1", "--trace", "1"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0, run.stderr
    assert report["attempted"] >= 2
    metrics = {name: m["value"] for name, m in report["metrics"].items()}
    for name in ("imputation.impute_matrix.C.ms", "estimation.estimate_matrix.ms",
                 "survival.fit_survival.calls"):
        assert metrics[name] > 0, name
