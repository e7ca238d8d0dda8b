"""Hand-construction helpers for subject records, small datasets and their
CSVs, and reference forms of the vectorised rules and kernels."""
from __future__ import annotations

import csv
import dataclasses
import importlib.util
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.special import expit

from trialmi._streams import TRUTH_NS, substream
from trialmi.core import (ADMIN_WITHDRAWAL, DEFAULT_GRID, NO_TYPE, OTHER_WITHDRAWAL, ScenarioLabel,
                          SubjectRecord, TrialDataset, VisitGrid, scenario_counts)
from trialmi.datagen import (TRUTH_SUBJECTS, TrueValues, draw_baseline, generate_trial, generate_truth,
                             resolve_params)
from trialmi.errors import ValidationError
from trialmi.simharness import MetricsRow, analyze_dataset
from trialmi.survival import TIME_FLOOR, SurvivalSample

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
    """The records as a dataset's arrays: None becomes NaN, or NO_TYPE for a
    withdrawal type."""
    assert all(len(s.outcomes) == grid.n_visits for s in subjects)
    # A NaN would read as a missing value or an absent week, so no record may hold one.
    assert not any(v is not None and math.isnan(v)
                   for s in subjects for v in (*s.outcomes, s.disc_time, s.withdraw_time))

    def column(name: str) -> np.ndarray:
        return np.array([getattr(s, name) for s in subjects], dtype=float)
    return TrialDataset(grid=grid, ids=tuple(s.id for s in subjects),
                        arm=np.array([s.arm for s in subjects], dtype=int), baseline=column("baseline"),
                        y=column("outcomes").reshape(len(subjects), grid.n_visits),
                        disc=column("disc_time"), withdraw=column("withdraw_time"),
                        withdraw_type=np.array([NO_TYPE if s.withdraw_type is None else s.withdraw_type
                                                for s in subjects], dtype=int))


def count_calls(monkeypatch, owner, name: str) -> list[int]:
    """A one-item list counting the calls of ``owner.name`` from now on,
    through ``owner``; works for a method such as ``__init__`` too."""
    original, calls = getattr(owner, name), [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counting)
    return calls


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


def reference_first_disc_visit(u, level, eps, decay, arm, params):
    """``datagen._first_disc_visit`` with ``eps`` subject-major (its visit
    axis last), clipped probabilities and an on-treatment mask, visits in
    order."""
    visits = len(decay)
    c = params.c_visit(arm)
    first = np.full(level.shape, visits)
    alive = np.ones(level.shape, dtype=bool)
    for k in range(visits):
        y_prev = level * decay[k - 1] + eps[..., k - 1] if k and params.alpha1 != 0 else 0.0
        prob = np.clip(expit(params.alpha0 + params.alpha1 * y_prev) + c[k], 0.0, 1.0)
        fail = alive & (u[k] < prob)
        first[fail] = k
        alive &= ~fail
    return first


def _reference_endpoint_means(rng, params, n_datasets):
    """``datagen._complete_endpoint_means`` on the same draws and the same
    arithmetic for each dataset's mean, finding its parts apart from it: each
    subject's first discontinuation visit T by ``reference_first_disc_visit``,
    and the multinomial's cell probabilities P(T = k) visit by visit."""
    times = np.asarray(params.grid.times)
    n, visits = params.n_per_arm, len(times)
    decay = 1.0 - np.exp(-params.kappa * times)
    disc_week = np.concatenate([[0.0], times[:-1]])
    frac_at = np.append(np.clip(times[-1] - disc_week, 0.0, params.washout_weeks) / params.washout_weeks, 0.0)
    means = {}
    for arm in (0, 1):
        slope = params.beta0 + arm * params.beta1
        dtheta = params.theta(arm) - params.theta0
        x = draw_baseline(rng, params, size=(n_datasets, n))
        mean = (params.theta(arm) + slope * (x.mean(axis=1) - params.baseline_mean)) * decay[-1]
        if dtheta == 0 or params.alpha1 == 0:
            sd = math.sqrt(decay[-1] ** 2 * params.sigma_s2 + params.sigma_e2)
            mean += sd / math.sqrt(n) * rng.standard_normal(n_datasets)
            if dtheta != 0:
                on, cells = 1.0, []
                for c in params.c_visit(arm):
                    stop = expit(params.alpha0) + c
                    cells.append(on * stop)
                    on *= 1.0 - stop
                counts = rng.multinomial(n, cells + [on], size=n_datasets)
                mean -= dtheta * decay[-1] * (counts @ frac_at) / n
        else:
            s = rng.normal(0.0, math.sqrt(params.sigma_s2), size=(n_datasets, n))
            eps = rng.normal(0.0, math.sqrt(params.sigma_e2), size=(visits - 1, n_datasets, n))
            u = rng.random((visits, n_datasets, n))
            level = params.theta(arm) + slope * (x - params.baseline_mean) + s
            first = reference_first_disc_visit(u, level, np.moveaxis(eps, 0, -1), decay, arm, params)
            mean += (s * decay[-1] - dtheta * decay[-1] * frac_at[first]).mean(axis=1)
            mean += math.sqrt(params.sigma_e2 / n) * rng.standard_normal(n_datasets)
        means[arm] = mean
    return means[0], means[1]


def reference_truth(params, n_datasets: int, seed: int) -> TrueValues:
    """``datagen.generate_truth`` on the reference kernel, in the same batches."""
    p = resolve_params(params)
    rng = substream(seed, TRUTH_NS)
    batch = max(1, TRUTH_SUBJECTS // p.n_per_arm)
    sum0 = sum1 = 0.0
    for done in range(0, n_datasets, batch):
        m0, m1 = _reference_endpoint_means(rng, p, min(batch, n_datasets - done))
        sum0 += float(m0.sum())
        sum1 += float(m1.sum())
    mean0, mean1 = sum0 / n_datasets, sum1 / n_datasets
    return TrueValues(mean_control=mean0, mean_treatment=mean1,
                      difference=mean1 - mean0, n_datasets=n_datasets)


def reference_violations(subject: SubjectRecord, grid: VisitGrid) -> list[str]:
    """Structural violations of one record against its grid (empty = valid),
    checked one field at a time; the dataset check must report the same."""
    out: list[str] = []
    k = grid.n_visits
    d = grid.duration
    if subject.arm not in (0, 1):
        out.append(f"arm must be 0 or 1, got {subject.arm!r}")
    if not math.isfinite(subject.baseline):
        out.append("baseline is not finite")
    if len(subject.outcomes) != k:
        out.append(f"expected {k} visit entries, got {len(subject.outcomes)}")
        return out
    for j, y in enumerate(subject.outcomes):
        if y is not None and not math.isfinite(y):
            out.append(f"visit {j}: outcome is not finite")
    u, v, w_type = subject.disc_time, subject.withdraw_time, subject.withdraw_type
    if w_type is not None and v is None:
        out.append("withdrawal type recorded without a withdrawal week")
    if v is not None and w_type not in (ADMIN_WITHDRAWAL, OTHER_WITHDRAWAL):
        out.append(f"withdrawal week requires type admin/other, got {w_type!r}")
    for name, t in (("disc_time", u), ("withdraw_time", v)):
        if t is not None and not (0 <= t <= d and math.isfinite(t)):
            out.append(f"{name} {t!r} outside [0, {d}]")
    if u is not None and v is not None and u > v:
        out.append("treatment discontinuation recorded after study withdrawal")
    if v is not None:
        for j, t in enumerate(grid.times):
            if t > v and subject.outcomes[j] is not None:
                out.append(f"visit {j} (week {t:g}) observed after withdrawal at week {v:g}")
    return out


def reference_classify(subject: SubjectRecord, grid: VisitGrid) -> ScenarioLabel:
    """The scenario rule as branches on one record; raises ValidationError
    naming the subject on a structurally inconsistent one."""
    problems = reference_violations(subject, grid)
    if problems:
        raise ValidationError(f"subject {subject.id}: " + "; ".join(problems))
    d = grid.duration
    u, v = subject.disc_time, subject.withdraw_time
    disc_before_end = u is not None and u < d
    if subject.outcomes[-1] is not None:
        return ScenarioLabel.S3 if disc_before_end else ScenarioLabel.S1
    if disc_before_end:
        # A discontinuation recorded at the very week of an administrative
        # withdrawal is the withdrawal itself; the real-world one is censored.
        if v is not None and u == v and subject.withdraw_type == ADMIN_WITHDRAWAL:
            return ScenarioLabel.S52
        return ScenarioLabel.S4_51
    if v is not None and v < d:
        if subject.withdraw_type == ADMIN_WITHDRAWAL:
            return ScenarioLabel.S52
        return ScenarioLabel.S4_51
    # No discontinuation and no withdrawal that could have hidden the
    # endpoint (a withdrawal at or after the endpoint week cannot): logistics.
    return ScenarioLabel.S2


def reference_extract(dataset: TrialDataset) -> dict:
    """The dataset's arrays and ``TrialDataset.columns``' arrays, built one
    subject record at a time."""
    grid = dataset.grid
    k = grid.n_visits
    n = len(dataset.subjects)
    out = {"arm": np.empty(n, dtype=int), "baseline": np.empty(n), "y": np.full((n, k), np.nan),
           "disc": np.full(n, np.nan), "withdraw": np.full(n, np.nan),
           "withdraw_type": np.full(n, NO_TYPE, dtype=int),
           "scenario": np.empty(n, dtype=int), "last_obs": np.full(n, -1, dtype=int)}
    for j, subject in enumerate(dataset.subjects):
        out["arm"][j] = subject.arm
        out["baseline"][j] = subject.baseline
        for idx, val in enumerate(subject.outcomes):
            if val is not None:
                out["y"][j, idx] = val
        out["scenario"][j] = reference_classify(subject, grid)
        if subject.disc_time is not None:
            out["disc"][j] = subject.disc_time
        if subject.withdraw_time is not None:
            out["withdraw"][j] = subject.withdraw_time
            out["withdraw_type"][j] = subject.withdraw_type
        obs = np.flatnonzero(~np.isnan(out["y"][j, : k - 1]))
        if obs.size:
            out["last_obs"][j] = int(obs[-1])
    return out


def reference_build_sample(dataset: TrialDataset, arm: int) -> SurvivalSample:
    """``survival.build_sample`` as a loop over the arm's subjects."""
    d = dataset.grid.duration
    times, events = [], []
    for subject in dataset.subjects:
        if subject.arm != arm:
            continue
        label = reference_classify(subject, dataset.grid)
        if label in (ScenarioLabel.S3, ScenarioLabel.S4_51):
            if subject.disc_time is not None:
                t, e = subject.disc_time, True
            else:  # non-administrative withdrawal treated as discontinuation
                t, e = subject.withdraw_time, True
        elif label is ScenarioLabel.S52:
            t, e = subject.withdraw_time, False
        else:
            t, e = d, False
        times.append(max(float(t), TIME_FLOOR))
        events.append(e)
    return SurvivalSample(time=np.array(times), event=np.array(events, dtype=bool))


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


def reference_metrics(plan):
    """``simharness.run_plan``'s rows and scenario summary as a loop over the
    replicates, for a plan in which none fails: each trial generated and
    analysed in turn, then BIAS, ESE, ASE and CP per method and estimand from
    1-D arrays over the replicates, and the mean count per arm and scenario."""
    params = resolve_params(plan.params)
    truth = generate_truth(params, plan.truth_n_datasets, plan.seed)
    target = {"control": truth.mean_control, "treatment": truth.mean_treatment,
              "difference": truth.difference}
    pooled, counts = [], []
    for rep in range(plan.n_replicates):
        data = generate_trial(params, plan.seed, replicate=rep)
        counts.append(scenario_counts(data))
        pooled.append(analyze_dataset(data, dataclasses.replace(plan.imputation, seed=plan.seed),
                                      plan.methods, plan.ci_level, replicate=rep)[0])
    rows = []
    for method in plan.methods:
        for estimand, t in target.items():
            estimates = [by_method[method][estimand] for by_method in pooled]
            points = np.array([p.point for p in estimates])
            ses = np.array([math.sqrt(p.total) for p in estimates])
            covered = np.array([p.ci_low <= t <= p.ci_high for p in estimates])
            rows.append(MetricsRow(method=method, estimand=estimand, bias=float(points.mean()) - t,
                                   ese=float(points.std(ddof=1)), ase=float(ses.mean()),
                                   cp=float(covered.mean())))
    summary = {}
    for arm in (0, 1):
        for label in ScenarioLabel:
            mean = float(np.mean([c[arm][label] for c in counts]))
            summary[(arm, label)] = (mean, 100.0 * mean / params.n_per_arm)
    return tuple(rows), summary
