"""Benchmark of the trialmi command line: simulate, analyze and truth.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; trialmi is imported from ``src/``.
The subcommands run in this one process, through ``trialmi.cli.main``, one
call after another (a closed loop), with one worker and one BLAS thread.
Each call's outputs are checked (see checks.py). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones, measured
untraced; with ``--trace 1`` they are the per-layer ones, from a traced
repeat of the same calls (see tracing.py). README.md describes both.
"""
import os

# One BLAS thread, set before numpy loads: two shared cores cannot hold a
# multi-threaded BLAS steady.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import trialgen
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_LAUNCHES = 3          # timed launches of a fresh interpreter, after one warm-up
PLAN_REPLICATES = 100       # replicates per simulate plan
TRUTH_DATASETS = 20000      # paper scale, for simulate and truth alike

PER_LAYER = (
    "datagen.generate_trial.ms", "datagen.generate_truth.ms",
    "core.validate_dataset.ms", "core.classify_scenario.calls", "core.classify_scenario.ms",
    "imputation.impute_matrix.A.ms", "imputation.impute_matrix.B.ms",
    "imputation.impute_matrix.C.ms", "imputation.impute_matrix.D.ms",
    "imputation.impute_matrix.self_ms",
    "imputation.fit_donor_model.calls", "imputation.fit_donor_model.ms",
    "imputation.posterior_draws.calls", "imputation.posterior_draws.ms",
    "survival.build_sample.ms", "survival.fit_survival.calls", "survival.fit_survival.ms",
    "survival.fit_survival.iterations", "survival.fit_survival.km_fallbacks",
    "survival.prob_disc_before_end.calls", "survival.prob_disc_before_end.ms",
    "estimation.estimate_matrix.ms", "estimation.pool_rubin.calls", "estimation.pool_rubin.ms",
    "streams.substream.calls", "streams.substream.ms",
    "simharness.run_plan.self_ms", "cli.read_dataset_csv.ms", "cli.self_ms",
)


class Workload:
    """One workload: the argv of call ``i``, and the check of its outputs.

    ``op`` names what ``attempted`` and ``failed`` count and what per-layer
    metrics are given per; a call makes ``ops_per_call`` of them and
    ``work_per_call`` units of the work that ``work_per_s`` counts.
    """

    ops_per_call = work_per_call = 1

    def excluded(self) -> int:
        """Operations of the last completed call that the program dropped."""
        return 0


class Simulate(Workload):
    """``trialmi simulate --preset setting1`` at paper scale, a plan per call."""

    name = "simulate-setting1"
    op = "replicate"
    ops_per_call = work_per_call = PLAN_REPLICATES

    def __init__(self, seed: int, work: Path) -> None:
        from trialmi.datagen import setting_preset
        self.seed, self.out = seed, work / "simulate"
        self.params = setting_preset("setting1")

    def argv(self, i: int) -> list[str]:
        return ["simulate", "--preset", "setting1", "--reps", str(PLAN_REPLICATES),
                "--methods", "A,B,C,D", "--m-imputations", "100",
                "--truth-datasets", str(TRUTH_DATASETS), "--workers", "1",
                "--seed", str(1000 * self.seed + i), "--out", str(self.out)]

    def excluded(self) -> int:
        manifest = json.loads((self.out / "manifest.json").read_text(encoding="utf-8"))
        return int(manifest["execution"]["n_excluded"])

    def check(self, i: int) -> list[str]:
        return checks.check_simulate_dir(self.out, self.params, PLAN_REPLICATES, TRUTH_DATASETS)


class Analyze(Workload):
    """``trialmi analyze`` (A-D, m=100) repeated on one 1,000-subject CSV."""

    name = "analyze-csv"
    op = "analysis"

    def __init__(self, seed: int, work: Path) -> None:
        self.seed, self.out = seed, work / "analyze"
        self.csv = work / "analyze.csv"
        trialgen.write_csv(self.csv, trialgen.generate(seed)[0])
        self.truth = trialgen.closed_form_truth()
        self.reference = None

    def argv(self, i: int) -> list[str]:
        return ["analyze", str(self.csv), "--seed", str(self.seed), "--out", str(self.out)]

    def check(self, i: int) -> list[str]:
        data = (self.out / "estimates.csv").read_bytes()
        if self.reference is None:
            self.reference = data
            return checks.check_estimates(checks.read_table(self.out / "estimates.csv"), self.truth)
        return [] if data == self.reference else [f"analysis {i}: estimates.csv differs from the first"]


class Truth(Workload):
    """``trialmi truth --preset setting2`` with 20,000 datasets per call."""

    name = "truth-setting2"
    op = "truth call"
    work_per_call = TRUTH_DATASETS

    def __init__(self, seed: int, work: Path) -> None:
        from trialmi.datagen import setting_preset
        self.seed, self.out = seed, work / "truth"
        self.params = setting_preset("setting2")

    def argv(self, i: int) -> list[str]:
        return ["truth", "--preset", "setting2", "--n-datasets", str(TRUTH_DATASETS),
                "--seed", str(1000 * self.seed + i), "--out", str(self.out)]

    def check(self, i: int) -> list[str]:
        return checks.check_truth_csv(self.out / "truth.csv", self.params, TRUTH_DATASETS)


WORKLOADS = {w.name: w for w in (Simulate, Analyze, Truth)}


class Pass:
    """What one pass of calls did: wall time per completed call, counts,
    failed checks, and calls that exited with an error."""

    def __init__(self) -> None:
        self.calls = self.work = self.attempted = self.failed = 0
        self.call_s: list[float] = []
        self.failures: list[str] = []
        self.errors: list[str] = []

    def call(self, wl, i: int) -> None:
        """Make call ``i`` of ``wl``, in this process, and record it."""
        import trialmi.cli as cli
        argv = wl.argv(i)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            code = cli.main(argv)
            t1 = time.perf_counter()
        self.calls += 1
        self.attempted += wl.ops_per_call
        if code != 0:
            self.failed += wl.ops_per_call
            self.errors.append(f"call {i}: trialmi {' '.join(argv)} exited {code}")
            return
        self.call_s.append(t1 - t0)
        self.work += wl.work_per_call
        self.failed += wl.excluded()
        self.failures += wl.check(i)


def run_calls(wl, seconds: float, tracer: Tracer | None = None) -> tuple[Pass, Pass]:
    """Whole calls of ``wl`` in a closed loop for about ``seconds``, at least
    one: a call starts only if it would end nearer to ``seconds`` than
    stopping now, judged by the mean call so far.

    With a tracer, each call is made twice in a row, untraced and then
    traced, so that both passes meet the same machine state and their
    difference is the tracing overhead.
    """
    plain, traced = Pass(), Pass()
    begin = time.perf_counter()
    while True:
        i = plain.calls
        if i:
            elapsed = time.perf_counter() - begin
            if elapsed + 0.5 * elapsed / i >= seconds:
                return plain, traced
        plain.call(wl, i)
        if tracer is not None:
            tracer.install()
            try:
                traced.call(wl, i)
            finally:
                tracer.uninstall()


def measure_setup() -> float:
    """Median wall time of a fresh interpreter running ``trialmi --help``,
    after one warm-up launch that fills the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import sys, trialmi.cli; sys.exit(trialmi.cli.main(['--help']))"]
    times = []
    for _ in range(SETUP_LAUNCHES + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])


def end_to_end(setup_s: float, done: Pass) -> dict:
    ms = [1e3 * t for t in done.call_s]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "work_per_s": {"value": done.work / sum(done.call_s), "unit": "1/s"},
        "call_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def per_layer(wl, tracer: Tracer, done: Pass, overhead_pct: float) -> tuple[dict, list[str]]:
    """Per-layer metrics, each per replicate, analysis or truth call, and the
    spans this workload never entered."""
    spans = tracer.summary()
    units = len(done.call_s) * wl.ops_per_call
    unused = []

    def span(name: str, key: str) -> float:
        if name not in spans or spans[name]["calls"] == 0:
            unused.append(name)
            return 0.0
        return spans[name][key] / units

    out = {}
    for metric in PER_LAYER:
        head, _, tail = metric.rpartition(".")
        if metric == "imputation.impute_matrix.self_ms":
            value = sum(span(f"imputation.impute_matrix.{m}", "self_ms") for m in checks.METHODS)
        elif metric == "cli.self_ms":
            value = span("cli.main", "self_ms")
        elif tail == "self_ms":
            value = span(head, "self_ms")
        elif metric in ("survival.fit_survival.iterations", "survival.fit_survival.km_fallbacks"):
            value = tracer.counts.get(metric, 0) / units
        else:
            value = span(head, tail)
        out[metric] = {"value": value, "unit": "count" if tail in ("calls", "iterations", "km_fallbacks") else "ms"}
    out["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    return out, sorted(set(unused))


def report_trace(wl, seed: int, tracer: Tracer, plain: Pass, traced: Pass,
                 metrics: dict, unused: list[str]) -> None:
    """Print the per-layer table and write the spans under results/."""
    print(f"{wl.name}: per-layer metrics per {wl.op}, from {traced.calls} traced calls")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"tracing overhead: {metrics['trace.overhead_pct']['value']:.1f}% "
          f"({sum(traced.call_s):.3f} s traced vs {sum(plain.call_s):.3f} s untraced, same calls"
          " made in turn)")
    if tracer.absent:
        print("absent from trialmi (reported as 0):", ", ".join(tracer.absent))
    if unused:
        print("not entered on this workload (reported as 0):", ", ".join(unused))
    stem = RESULTS / f"trace-{wl.name}-seed{seed}"
    np.savez(stem.with_suffix(".npz"), names=np.array(tracer.names),
             name_id=np.array(tracer.name_id, dtype=np.int32),
             parent=np.array(tracer.parent, dtype=np.int32),
             start=np.array(tracer.start), end=np.array(tracer.end))
    stem.with_suffix(".json").write_text(json.dumps(
        {"workload": wl.name, "seed": seed, "spans": tracer.summary(), "metrics": metrics},
        indent=1) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "trialmi" / "cli.py").is_file():
        print(f"error: no trialmi sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    RESULTS.mkdir(exist_ok=True)
    work = RESULTS / f"work-{os.getpid()}"
    work.mkdir()
    try:
        setup_s = None if args.trace else measure_setup()
        wl = WORKLOADS[args.workload](args.seed, work)
        tracer = Tracer() if args.trace else None
        plain, traced = run_calls(wl, args.seconds, tracer)
        if not plain.call_s or (tracer and not traced.call_s):
            print("error: no call completed", *plain.errors[:5], sep="\n", file=sys.stderr)
            return 1
        if tracer is None:
            metrics = end_to_end(setup_s, plain)
        else:
            overhead = 100.0 * (sum(traced.call_s) / sum(plain.call_s) - 1.0)
            metrics, unused = per_layer(wl, tracer, traced, overhead)
            report_trace(wl, args.seed, tracer, plain, traced, metrics, unused)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = plain.failures + traced.failures + (tracer.failures if tracer else [])
    for message in plain.errors[:5] + traced.errors[:5] + failures[:20]:
        print(message, file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": plain.attempted + traced.attempted,
                      "failed": plain.failed + traced.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
