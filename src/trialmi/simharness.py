"""Replicated simulation runner: generate, impute per method, pool, and
aggregate bias / ESE / ASE / coverage against the internally computed
complete-data truth.

Replicates own derived random streams, so results are bit-identical for a
given master seed regardless of worker count or execution order.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from .core import ScenarioLabel, TrialDataset, scenario_counts
from .datagen import GenParams, TrueValues, generate_trial, generate_truth, resolve_params
from .errors import ConfigError, SimulationError, TrialMIError
from .estimation import PooledEstimate, estimate_matrix, pool_rubin
from .imputation import METHODS, ImputationConfig, impute_matrix

ESTIMANDS = ("control", "treatment", "difference")
_LABELS = tuple(ScenarioLabel)


@dataclass(frozen=True)
class SimPlan:
    """A replicated simulation. ``imputation`` holds the imputation settings;
    each method runs with its own method and the plan's seed in place of the
    ones it carries."""

    params: Union[GenParams, str]
    n_replicates: int
    methods: tuple[str, ...] = METHODS
    imputation: ImputationConfig = ImputationConfig(method=METHODS[0])
    seed: int = 0
    workers: int = 1
    truth_n_datasets: int = 20000
    ci_level: float = 0.95
    max_failure_fraction: float = 0.01

    def __post_init__(self) -> None:
        if self.n_replicates < 1:
            raise ConfigError("n_replicates must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        bad = [m for m in self.methods if m not in METHODS]
        if bad or not self.methods:
            raise ConfigError(f"methods must be a nonempty subset of {METHODS}, got {self.methods}")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("methods must not repeat")
        if not 0 < self.ci_level < 1:
            raise ConfigError(f"ci_level must lie in (0, 1), got {self.ci_level!r}")


@dataclass(frozen=True)
class MetricsRow:
    method: str
    estimand: str
    bias: float
    ese: float
    ase: float
    cp: float


@dataclass(frozen=True)
class MetricsTable:
    rows: tuple[MetricsRow, ...]
    scenario_summary: dict[tuple[int, ScenarioLabel], tuple[float, float]]
    truth: TrueValues
    n_replicates: int
    n_excluded: int
    failures: tuple[str, ...]


def analyze_dataset(dataset: TrialDataset, configs: Sequence[ImputationConfig], level: float,
                    replicate: int = 0) -> dict[str, dict[str, PooledEstimate]]:
    """Impute under each config, estimate every round and pool with Rubin's
    rules: the pooled estimate per method and estimand."""
    arms = np.array([s.arm for s in dataset.subjects])
    n0 = int((arms == 0).sum())
    n1 = int((arms == 1).sum())
    com_df = {"control": n0 - 1, "treatment": n1 - 1, "difference": n0 + n1 - 2}
    out: dict[str, dict[str, PooledEstimate]] = {}
    shared: dict = {}  # noise and donor draws, made once for every config
    for cfg in configs:
        imputed = impute_matrix(dataset, cfg, replicate=replicate, shared=shared)
        est = estimate_matrix(arms, imputed.endpoints)
        out[cfg.method] = {}
        for estimand in ESTIMANDS:
            key = estimand if estimand == "difference" else f"mean_{estimand}"
            vkey = "var_difference" if estimand == "difference" else f"var_{estimand}"
            out[cfg.method][estimand] = pool_rubin(np.column_stack([est[key], est[vkey]]),
                                                   level=level, com_df=com_df[estimand])
    return out


def _run_replicate(args):
    """One replicate; returns (rep, counts, {method: {estimand: 4 floats}}) or,
    when it fails with a TrialMIError, (rep, error message)."""
    params, plan, rep = args
    try:
        dataset = generate_trial(params, plan.seed, replicate=rep)
        counts = scenario_counts(dataset)
        configs = [replace(plan.imputation, method=m, seed=plan.seed) for m in plan.methods]
        pooled = analyze_dataset(dataset, configs, plan.ci_level, replicate=rep)
    except TrialMIError as exc:
        return (rep, f"replicate {rep}: {type(exc).__name__}: {exc}")
    per_method = {method: {estimand: (p.point, math.sqrt(p.total), p.ci_low, p.ci_high)
                           for estimand, p in by_estimand.items()}
                  for method, by_estimand in pooled.items()}
    count_arr = np.array([[counts[arm][label] for label in _LABELS] for arm in (0, 1)], dtype=float)
    return (rep, count_arr, per_method)


def summarize_scenarios(count_arrays: Sequence[np.ndarray], n_per_arm: int
                        ) -> dict[tuple[int, ScenarioLabel], tuple[float, float]]:
    """Mean per-replicate subject counts and percentages per arm and scenario."""
    if not count_arrays:
        raise SimulationError("no replicates to summarize")
    stacked = np.stack(count_arrays)
    means = stacked.mean(axis=0)
    out = {}
    for arm in (0, 1):
        for pos, label in enumerate(_LABELS):
            mean = float(means[arm, pos])
            out[(arm, label)] = (mean, 100.0 * mean / n_per_arm)
    return out


def run_plan(plan: SimPlan) -> MetricsTable:
    """Execute the plan and return the aggregated metrics table."""
    params = resolve_params(plan.params)
    truth = generate_truth(params, plan.truth_n_datasets, plan.seed)
    truth_by_estimand = {"control": truth.mean_control, "treatment": truth.mean_treatment,
                         "difference": truth.difference}

    payloads = [(params, plan, rep) for rep in range(plan.n_replicates)]
    if plan.workers > 1:
        chunk = max(1, plan.n_replicates // (plan.workers * 8))
        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            results = list(pool.map(_run_replicate, payloads, chunksize=chunk))
    else:
        results = [_run_replicate(p) for p in payloads]

    failures = tuple(r[1] for r in results if len(r) == 2)
    ok = [r for r in results if len(r) == 3]
    if len(failures) > plan.max_failure_fraction * plan.n_replicates:
        raise SimulationError(
            f"{len(failures)} of {plan.n_replicates} replicates failed: " + "; ".join(failures[:5]))
    if not ok:
        raise SimulationError("every replicate failed")

    counts = [r[1] for r in ok]
    rows: list[MetricsRow] = []
    for method in plan.methods:
        for estimand in ESTIMANDS:
            vals = np.array([r[2][method][estimand] for r in ok])
            points, ses, lo, hi = vals.T
            target = truth_by_estimand[estimand]
            covered = (lo <= target) & (target <= hi)
            ese = float(points.std(ddof=1)) if points.size > 1 else 0.0
            rows.append(MetricsRow(method=method, estimand=estimand,
                                   bias=float(points.mean()) - target,
                                   ese=ese, ase=float(ses.mean()), cp=float(covered.mean())))

    return MetricsTable(
        rows=tuple(rows),
        scenario_summary=summarize_scenarios(counts, params.n_per_arm),
        truth=truth,
        n_replicates=len(ok),
        n_excluded=len(failures),
        failures=failures,
    )
