"""Replicated simulation runner: generate, impute per method, pool, and
aggregate bias / ESE / ASE / coverage against the internally computed
complete-data truth.

A replicate gives its scenario counts per arm and, per method and estimand,
the pooled point, SE and CI bounds, as arrays; the plan stacks them along a
replicate axis and reduces each metric along it.  Replicates own derived
random streams, so results are bit-identical for a given master seed
regardless of worker count or execution order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from .core import ScenarioLabel, TrialDataset, scenario_counts
from .datagen import GenParams, TrueValues, generate_trial, generate_truth, resolve_params
from .errors import ConfigError, SimulationError, TrialMIError
from .estimation import ESTIMANDS, PooledEstimate, estimate_matrix, pool_rubin
from .imputation import METHODS, Draws, ImputationConfig, impute_matrix

#: Largest share of a plan's replicates that may fail with a typed error and be excluded.
MAX_FAILURE_FRACTION = 0.01


@dataclass(frozen=True)
class SimPlan:
    """A replicated simulation. ``imputation`` holds the imputation settings;
    each method runs with its own method and the plan's seed in place of the
    ones it carries."""

    params: Union[GenParams, str]
    n_replicates: int = 100
    methods: tuple[str, ...] = METHODS
    imputation: ImputationConfig = ImputationConfig(method=METHODS[0])
    seed: int = 0
    workers: int = 1
    truth_n_datasets: int = 20000
    ci_level: float = 0.95

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
        if self.truth_n_datasets < 1:
            raise ConfigError(f"truth_n_datasets must be >= 1, got {self.truth_n_datasets!r}")


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


def analyze_dataset(dataset: TrialDataset, imputation: ImputationConfig, methods: Sequence[str],
                    level: float, replicate: int = 0) -> tuple[dict, dict[str, tuple[str, ...]]]:
    """Impute under each method from one set of draws with the ``imputation`` settings,
    estimate every round and pool with Rubin's rules: per method, the pooled estimate
    per estimand, and the method's sorted fallback events."""
    draws = Draws(dataset, imputation, methods, replicate)
    out: dict[str, dict[str, PooledEstimate]] = {}
    events: dict[str, tuple[str, ...]] = {}
    for method in methods:
        imputed = impute_matrix(dataset, replace(imputation, method=method), replicate=replicate, draws=draws)
        out[method] = {estimand: pool_rubin(pairs, level=level, com_df=df)
                       for estimand, (pairs, df) in estimate_matrix(dataset.arm, imputed.endpoints).items()}
        events[method] = imputed.fallback_events
    return out, events


def _run_replicate(args):
    """One replicate: (rep, counts (2, 5) per arm and scenario, values (methods,
    estimands, 4) of point, SE, CI low and CI high) or, when it fails with a
    TrialMIError, (rep, message). Any other exception propagates with a note."""
    params, plan, rep = args
    try:
        dataset = generate_trial(params, plan.seed, replicate=rep)
        counts = np.array([list(c.values()) for c in scenario_counts(dataset).values()], dtype=float)
        pooled, _ = analyze_dataset(dataset, replace(plan.imputation, seed=plan.seed), plan.methods,
                                    plan.ci_level, replicate=rep)
    except TrialMIError as exc:
        return (rep, f"replicate {rep}: {type(exc).__name__}: {exc}")
    except Exception as exc:
        if hasattr(exc, "add_note"):  # Python 3.11+
            exc.add_note(f"replicate {rep}")
        raise
    values = np.array([[(p.point, math.sqrt(p.total), p.ci_low, p.ci_high) for p in by_estimand.values()]
                       for by_estimand in pooled.values()])
    return (rep, counts, values)


def run_plan(plan: SimPlan) -> MetricsTable:
    """Execute the plan: BIAS, ESE, ASE and CP per method and estimand over the
    replicates that did not fail, and mean counts and percentages per arm and scenario."""
    params = resolve_params(plan.params)
    truth = generate_truth(params, plan.truth_n_datasets, plan.seed)
    target = np.array([truth.mean_control, truth.mean_treatment, truth.difference])

    payloads = [(params, plan, rep) for rep in range(plan.n_replicates)]
    if plan.workers > 1:
        # Imported on first use, as estimation's stdtrit is: loading
        # concurrent.futures.process takes 10-15 ms, which every start would pay.
        from concurrent.futures import ProcessPoolExecutor
        chunk = max(1, plan.n_replicates // (plan.workers * 8))
        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            results = list(pool.map(_run_replicate, payloads, chunksize=chunk))
    else:
        results = [_run_replicate(p) for p in payloads]

    failures = tuple(r[1] for r in results if isinstance(r[1], str))
    ok = [r for r in results if not isinstance(r[1], str)]
    if len(failures) > MAX_FAILURE_FRACTION * plan.n_replicates:
        raise SimulationError(
            f"{len(failures)} of {plan.n_replicates} replicates failed: " + "; ".join(failures[:5]))
    if not ok:
        raise SimulationError("every replicate failed")

    # (methods, estimands, 4, replicates): contiguous rows sum as 1-D arrays do.
    points, ses, lo, hi = np.stack([r[2] for r in ok], axis=-1).transpose(2, 0, 1, 3)
    bias = points.mean(axis=-1) - target
    ese = points.std(axis=-1, ddof=1) if len(ok) > 1 else np.zeros(bias.shape)
    covered = (lo <= target[:, None]) & (target[:, None] <= hi)
    metrics = np.stack([bias, ese, ses.mean(axis=-1), covered.mean(axis=-1)], axis=-1).tolist()
    rows = tuple(MetricsRow(method, estimand, *metrics[i][j])
                 for i, method in enumerate(plan.methods) for j, estimand in enumerate(ESTIMANDS))
    means = np.stack([r[1] for r in ok]).mean(axis=0).tolist()
    summary = {(arm, label): (means[arm][label], 100.0 * means[arm][label] / params.n_per_arm)
               for arm in (0, 1) for label in ScenarioLabel}
    return MetricsTable(rows=rows, scenario_summary=summary, truth=truth, n_replicates=len(ok),
                        n_excluded=len(failures), failures=failures)
