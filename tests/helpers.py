"""Hand-construction helpers for subject records, small datasets and their CSVs."""
from __future__ import annotations

import csv
import importlib.util
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.special import expit

from trialmi._streams import TRUTH_NS, substream
from trialmi.core import (ADMIN_WITHDRAWAL, DEFAULT_GRID, OTHER_WITHDRAWAL, SubjectRecord,
                          TrialDataset, VisitGrid, classify_scenario)
from trialmi.datagen import NEVER, TrueValues, draw_baseline, resolve_params

_COUNTER = [0]


def make_subject(outcomes: Sequence[Optional[float]], *, arm: int = 0, baseline: float = 8.0,
                 disc: Optional[float] = None, withdraw: Optional[float] = None,
                 withdraw_type: Optional[int] = None, subject_id: Optional[str] = None,
                 grid: VisitGrid = DEFAULT_GRID) -> SubjectRecord:
    if subject_id is None:
        _COUNTER[0] += 1
        subject_id = f"T{_COUNTER[0]:05d}"
    outcomes = tuple(outcomes)
    assert len(outcomes) == grid.n_visits
    if withdraw is not None and withdraw_type is None:
        withdraw_type = 1
    return SubjectRecord(id=subject_id, arm=arm, baseline=baseline, outcomes=outcomes,
                         disc_time=disc, withdraw_time=withdraw, withdraw_type=withdraw_type)


def make_dataset(subjects: Sequence[SubjectRecord], grid: VisitGrid = DEFAULT_GRID) -> TrialDataset:
    return TrialDataset(grid=grid, subjects=tuple(subjects))


def completer(value: float, **kw) -> SubjectRecord:
    """A subject observed at every visit with endpoint `value`."""
    base = kw.pop("trajectory", None)
    grid = kw.get("grid", DEFAULT_GRID)
    if base is None:
        base = [value * t / grid.duration for t in grid.times[:-1]] + [value]
    return make_subject(base, **kw)


def write_csv(dataset: TrialDataset, path) -> None:
    """Subject-level CSV in the schema `trialmi analyze` reads."""
    kind = {ADMIN_WITHDRAWAL: "admin", OTHER_WITHDRAWAL: "other", None: ""}

    def cell(v) -> str:
        return "" if v is None else repr(float(v))

    rows = [["id", "arm", "baseline"] + [f"y{t:g}" for t in dataset.grid.times]
            + ["disc_week", "withdraw_week", "withdraw_type"]]
    for s in dataset.subjects:
        rows.append([s.id, s.arm, cell(s.baseline), *map(cell, s.outcomes),
                     cell(s.disc_time), cell(s.withdraw_time), kind[s.withdraw_type]])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def load_trialgen():
    """The benchmark's CSV generator (``perfbench/trialgen.py``), as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "trialgen.py"
    if "trialgen" not in sys.modules:
        spec = importlib.util.spec_from_file_location("trialgen", path)
        sys.modules["trialgen"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["trialgen"])
    return sys.modules["trialgen"]


# ---------------------------------------------------------------------------
# Reference implementations: the straightforward forms of vectorised kernels,
# kept to pin the fast forms bit for bit.


def _reference_endpoint_means(rng, params, n_datasets):
    """Truth kernel that builds every adherent visit value and draws each
    visit's discontinuation uniforms separately."""
    times = np.asarray(params.grid.times)
    n = params.n_per_arm
    k_end = params.grid.n_visits - 1
    decay = 1.0 - np.exp(-params.kappa * times)
    means = {}
    for arm in (0, 1):
        x = draw_baseline(rng, params, size=(n_datasets, n))
        s = rng.normal(0.0, math.sqrt(params.sigma_s2), size=(n_datasets, n))
        eps = rng.normal(0.0, math.sqrt(params.sigma_e2), size=(n_datasets, n, len(times)))
        level = params.theta(arm) + (params.beta0 + arm * params.beta1) * (x - params.baseline_mean) + s
        y_hyp = level[..., None] * decay + eps
        c = params.c_visit(arm)
        t_a = np.full((n_datasets, n), NEVER)
        alive = np.ones((n_datasets, n), dtype=bool)
        y_prev = np.zeros((n_datasets, n))
        for k in range(len(times)):
            prob = np.clip(expit(params.alpha0 + params.alpha1 * y_prev) + c[k], 0.0, 1.0)
            fail = alive & (rng.random((n_datasets, n)) < prob)
            t_a[fail] = times[k - 1] if k else 0.0
            alive &= ~fail
            y_prev = y_hyp[..., k]
        frac = np.minimum(np.maximum(times[k_end] - t_a, 0.0), params.washout_weeks) / params.washout_weeks
        endpoint = y_hyp[..., k_end] - (params.theta(arm) - params.theta0) * frac * decay[k_end]
        means[arm] = endpoint.mean(axis=1)
    return means[0], means[1]


def reference_truth(params, n_datasets: int, seed: int, batch_size: int = 500) -> TrueValues:
    """``datagen.generate_truth`` on the reference kernel."""
    p = resolve_params(params)
    rng = substream(seed, TRUTH_NS)
    sum0 = sum1 = 0.0
    done = 0
    while done < n_datasets:
        b = min(batch_size, n_datasets - done)
        m0, m1 = _reference_endpoint_means(rng, p, b)
        sum0 += float(m0.sum())
        sum1 += float(m1.sum())
        done += b
    mean0, mean1 = sum0 / n_datasets, sum1 / n_datasets
    return TrueValues(mean_control=mean0, mean_treatment=mean1,
                      difference=mean1 - mean0, n_datasets=n_datasets)


def reference_extract(dataset: TrialDataset) -> dict:
    """``imputation._extract``'s arrays, built one subject at a time."""
    grid = dataset.grid
    k = grid.n_visits
    n = len(dataset.subjects)
    out = {"arm": np.empty(n, dtype=int), "x": np.empty(n), "y": np.full((n, k), np.nan),
           "scen": np.empty(n, dtype=int), "withdraw": np.full(n, np.nan),
           "last_obs": np.full(n, -1, dtype=int)}
    for j, subject in enumerate(dataset.subjects):
        out["arm"][j] = subject.arm
        out["x"][j] = subject.baseline
        for idx, val in enumerate(subject.outcomes):
            if val is not None:
                out["y"][j, idx] = val
        out["scen"][j] = classify_scenario(subject, grid)
        if subject.withdraw_time is not None:
            out["withdraw"][j] = subject.withdraw_time
        obs = np.flatnonzero(~np.isnan(out["y"][j, : k - 1]))
        if obs.size:
            out["last_obs"][j] = int(obs[-1])
    return out


def reference_predict(sigma, beta, design, z):
    """``imputation._predict`` as a loop over targets: one draw column each."""
    draws = np.empty(z.shape)
    for j, row in enumerate(design):
        draws[:, j] = beta @ row + sigma * z[:, j]
    return draws


def reference_pool_rubin(estimates, level=0.95, com_df=None):
    """``estimation.pool_rubin`` from a list of pairs, with the quantile from
    ``scipy.stats.t.ppf``. Returns (point, within, between, total, df,
    ci_low, ci_high)."""
    from scipy import stats

    m = len(estimates)
    points = np.array([p for p, _ in estimates], dtype=float)
    variances = np.array([v for _, v in estimates], dtype=float)
    qbar = float(points.mean())
    w = float(variances.mean())
    b = float(points.var(ddof=1))
    t = w + (1.0 + 1.0 / m) * b
    df_old = (m - 1) * (1.0 + w / ((1.0 + 1.0 / m) * b)) ** 2 if b > 0 else math.inf
    if com_df is not None and math.isfinite(com_df):
        gamma = ((1.0 + 1.0 / m) * b / t) if t > 0 else 0.0
        df_obs = com_df * (com_df + 1.0) / (com_df + 3.0) * (1.0 - gamma)
        df = 1.0 / (1.0 / df_old + 1.0 / df_obs) if math.isfinite(df_old) else df_obs
    else:
        df = df_old
    half = float(stats.t.ppf((1.0 + level) / 2.0, df)) * math.sqrt(t) if t > 0 else 0.0
    return qbar, w, b, t, df, qbar - half, qbar + half
