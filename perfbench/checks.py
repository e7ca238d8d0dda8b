"""Output checks for the benchmark's workloads.

Every check compares trialmi's output with a value computed here, apart
from the program (a closed-form mean, a Monte Carlo standard error), or with
a property the methods must have. None compares with a stored copy of an
earlier output. Each function returns a list of failure messages; an empty
list means the outputs passed. Monte Carlo tolerances are 4 standard errors
(Morris, White & Crowther, Stat Med 2019).
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

Z = 4.0
METHODS = ("A", "B", "C", "D")
ESTIMANDS = ("control", "treatment", "difference")


def _expit(v: float) -> float:
    return 1.0 / (1.0 + math.exp(-v))


def read_table(path: Path) -> list[dict[str, str]]:
    """Rows of a trialmi output CSV, skipping its ``# manifest=`` line."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _by_key(rows, *cols: str) -> dict[tuple[str, ...], dict[str, str]]:
    return {tuple(r[c] for c in cols): r for r in rows}


def preset_closed_form(params) -> dict[str, tuple[float, float]]:
    """Treatment-policy endpoint (mean, subject-level variance) per arm of a
    trialmi parameter set, derived from its documented generative model.

    The control arm has a closed form under any discontinuation model,
    because a control-arm discontinuation does not move the mean. The
    treatment arm has one only when discontinuation does not depend on the
    response (alpha1 = 0): then the per-visit discontinuation probability is
    a constant and the linear washout gives the mean shift exactly.
    """
    times = np.asarray(params.grid.times, dtype=float)
    end = times[-1]
    decay = 1.0 - math.exp(-params.kappa * end)
    a, b = params.baseline_beta_a, params.baseline_beta_b
    x_mean = params.baseline_loc + params.baseline_scale * a / (a + b)
    x_var = params.baseline_scale ** 2 * a * b / ((a + b) ** 2 * (a + b + 1.0))
    out = {}
    for arm, name in ((0, "control"), (1, "treatment")):
        slope = params.beta0 + arm * params.beta1
        theta = params.theta1 if arm else params.theta0
        mean = (theta + slope * (x_mean - params.baseline_mean)) * decay
        var = decay ** 2 * (slope ** 2 * x_var + params.sigma_s2) + params.sigma_e2
        shift = theta - params.theta0
        if shift != 0.0:
            if params.alpha1 != 0.0:
                continue
            c = params.c_experimental if arm else params.c_control
            p = [min(max(_expit(params.alpha0) + ck, 0.0), 1.0) for ck in c]
            starts = np.concatenate([[0.0], times[:-1]])
            frac = np.minimum(np.maximum(end - starts, 0.0), params.washout_weeks) / params.washout_weeks
            on = 1.0
            e_f = e_f2 = 0.0
            for pk, fk in zip(p, frac):
                e_f += on * pk * fk
                e_f2 += on * pk * fk * fk
                on *= 1.0 - pk
            mean -= shift * decay * e_f
            var += (shift * decay) ** 2 * (e_f2 - e_f ** 2)
        out[name] = (mean, var)
    return out


def check_truth_csv(path: Path, params, n_datasets: int) -> list[str]:
    """truth.csv against the closed-form means, within 4 Monte Carlo SE, for
    every estimand that has one."""
    failures = []
    rows = _by_key(read_table(path), "estimand")
    form = preset_closed_form(params)
    subjects = n_datasets * params.n_per_arm
    expect = {k: (m, math.sqrt(v / subjects)) for k, (m, v) in form.items()}
    if len(expect) == 2:
        (m0, s0), (m1, s1) = expect["control"], expect["treatment"]
        expect["difference"] = (m1 - m0, math.hypot(s0, s1))
    for estimand, (mean, mcse) in expect.items():
        row = rows.get((estimand,))
        if row is None:
            failures.append(f"truth.csv: no {estimand} row")
            continue
        value = float(row["value"])
        if not abs(value - mean) <= Z * mcse:
            failures.append(f"truth.csv: {estimand} {value:.6g} is {abs(value - mean) / mcse:.1f} "
                            f"MCSE from the closed form {mean:.6g}")
        if int(row["n_datasets"]) != n_datasets:
            failures.append(f"truth.csv: {estimand} n_datasets {row['n_datasets']} != {n_datasets}")
    return failures


def check_metrics(rows: list[dict[str, str]], n_replicates: int) -> list[str]:
    """Properties metrics.csv must have for setting1 at paper scale."""
    failures = []
    table = _by_key(rows, "method", "estimand")
    if len(rows) != len(METHODS) * len(ESTIMANDS):
        failures.append(f"metrics.csv: {len(rows)} rows, expected {len(METHODS) * len(ESTIMANDS)}")
    vals: dict[tuple[str, str], dict[str, float]] = {}
    for method in METHODS:
        for estimand in ESTIMANDS:
            row = table.get((method, estimand))
            if row is None:
                failures.append(f"metrics.csv: no row for {method}/{estimand}")
                continue
            v = {k: float(row[k]) for k in ("BIAS", "ESE", "ASE", "CP")}
            if not all(math.isfinite(x) for x in v.values()):
                failures.append(f"metrics.csv: {method}/{estimand} is not finite: {v}")
            elif v["ESE"] <= 0 or v["ASE"] <= 0:
                failures.append(f"metrics.csv: {method}/{estimand} ESE/ASE not above 0: {v}")
            vals[(method, estimand)] = v
    if failures:
        return failures
    root_r = math.sqrt(n_replicates)
    cp_mcse = math.sqrt(0.95 * 0.05 / n_replicates)
    for estimand in ESTIMANDS:
        c = vals[("C", estimand)]
        if not abs(c["BIAS"]) <= Z * c["ESE"] / root_r:
            failures.append(f"metrics.csv: method C {estimand} BIAS {c['BIAS']:.4g} beyond "
                            f"4 MCSE ({Z * c['ESE'] / root_r:.4g})")
        if not abs(c["CP"] - 0.95) <= Z * cp_mcse:
            failures.append(f"metrics.csv: method C {estimand} CP {c['CP']:.4g} beyond "
                            f"4 MCSE ({Z * cp_mcse:.4g}) of 0.95")
    b, c = vals[("B", "treatment")], vals[("C", "treatment")]
    mcse = math.hypot(b["ESE"], c["ESE"]) / root_r
    if not b["BIAS"] - c["BIAS"] > Z * mcse:
        failures.append(f"metrics.csv: method B treatment BIAS {b['BIAS']:.4g} does not exceed "
                        f"method C's {c['BIAS']:.4g} by 4 MCSE ({Z * mcse:.4g})")
    return failures


def check_simulate_dir(out_dir: Path, params, n_replicates: int, n_truth: int) -> list[str]:
    """All outputs of one ``trialmi simulate`` plan on a preset."""
    failures = check_metrics(read_table(out_dir / "metrics.csv"), n_replicates)
    failures += check_truth_csv(out_dir / "truth.csv", params, n_truth)
    per_arm: dict[str, float] = {}
    for row in read_table(out_dir / "scenarios.csv"):
        per_arm[row["arm"]] = per_arm.get(row["arm"], 0.0) + float(row["mean_count"])
    for arm in ("control", "treatment"):
        if not abs(per_arm.get(arm, 0.0) - params.n_per_arm) <= 1e-6 * params.n_per_arm:
            failures.append(f"scenarios.csv: {arm} counts sum to {per_arm.get(arm)}, "
                            f"not {params.n_per_arm}")
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    if manifest["execution"].get("n_excluded") != 0:
        failures.append(f"manifest.json: n_excluded = {manifest['execution'].get('n_excluded')}")
    if manifest["identity"]["plan"]["n_replicates"] != n_replicates:
        failures.append("manifest.json: n_replicates differs from the plan")
    return failures


def check_estimates(rows: list[dict[str, str]], truth) -> list[str]:
    """estimates.csv of ``trialmi analyze`` against the generator's truth
    (a ``trialgen.Truth``)."""
    failures = []
    table = _by_key(rows, "method", "estimand")
    if len(rows) != len(METHODS) * len(ESTIMANDS):
        failures.append(f"estimates.csv: {len(rows)} rows, expected {len(METHODS) * len(ESTIMANDS)}")
    for method in METHODS:
        est = {}
        for estimand in ESTIMANDS:
            row = table.get((method, estimand))
            if row is None:
                failures.append(f"estimates.csv: no row for {method}/{estimand}")
                continue
            v = {k: float(row[k]) for k in ("estimate", "se", "ci_low", "ci_high")}
            if not all(math.isfinite(x) for x in v.values()) or v["se"] <= 0:
                failures.append(f"estimates.csv: {method}/{estimand} not finite or se <= 0: {v}")
            elif not v["ci_low"] <= v["estimate"] <= v["ci_high"]:
                failures.append(f"estimates.csv: {method}/{estimand} estimate outside its CI: {v}")
            est[estimand] = v
        if len(est) < len(ESTIMANDS):
            continue
        expect = est["treatment"]["estimate"] - est["control"]["estimate"]
        if not abs(est["difference"]["estimate"] - expect) <= 1e-8 * max(1.0, abs(expect)):
            failures.append(f"estimates.csv: {method} difference {est['difference']['estimate']!r}"
                            f" != treatment - control {expect!r}")
        checks = [("control", truth.mean[0])]
        if method == "C":
            checks.append(("difference", truth.difference))
        for estimand, target in checks:
            v = est[estimand]
            if not abs(v["estimate"] - target) <= Z * v["se"]:
                failures.append(f"estimates.csv: {method} {estimand} {v['estimate']:.4g} is more "
                                f"than 4 se from the truth {target:.4g}")
    return failures


def check_imputed(dataset, endpoints: np.ndarray) -> list[str]:
    """At the impute_matrix boundary: every endpoint is finite and every
    observed endpoint passes through unchanged."""
    failures = []
    e = np.asarray(endpoints)
    if not np.all(np.isfinite(e)):
        failures.append(f"impute_matrix: {int((~np.isfinite(e)).sum())} endpoints not finite")
    observed = np.array([not s.missing[-1] for s in dataset.subjects])
    values = np.array([s.outcomes[-1] if o else 0.0 for s, o in zip(dataset.subjects, observed)])
    changed = np.flatnonzero(np.any(e[:, observed] != values[observed], axis=0))
    if changed.size:
        failures.append(f"impute_matrix: {changed.size} observed endpoints changed")
    return failures
