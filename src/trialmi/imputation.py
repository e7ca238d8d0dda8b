"""Multiple imputation of missing endpoints under four strategies.

Subjects with a missing endpoint fall into three groups: still-on-treatment
(imputed from adherent completers under MAR), post-discontinuation (imputed
from retrieved dropouts), and administrative withdrawals, whose
discontinuation status is unknown.  The four methods differ only in how they
treat that last group:

  A  impute from adherent completers,
  B  impute from retrieved dropouts,
  C  draw the censored discontinuation status from a fitted survival model,
     then impute from retrieved dropouts or adherers accordingly,
  D  impute from all non-withdrawn subjects' endpoints, observed and
     imputed within the same round.

All imputations are proper: each round redraws the donor-model residual
variance (scaled inverse chi-square) and coefficients (conditional normal)
from the standard noninformative-prior posterior.  Randomness is addressed by
(seed, replicate, purpose, donor group), so methods agree bit-for-bit
wherever their donor assignments agree.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._streams import (IMPUTE_NS, PUR_GATE, PUR_MAR_PARAMS, PUR_NOISE,
                       PUR_POOL_PARAMS, PUR_RD_PARAMS, substream)
from .core import ScenarioLabel, TrialDataset, classify_scenario
from .errors import ConfigError, ImputationError
from .survival import KINDS, PROPORTIONAL_HAZARDS, build_sample, fit_survival, prob_disc_before_end

METHODS = ("A", "B", "C", "D")

BASELINE_ONLY = "baseline-only"
MONOTONE_SEQUENTIAL = "monotone-sequential"

#: Floor for residual variances so posterior draws stay proper on degenerate pools.
VARIANCE_FLOOR = 1e-8

# Provenance codes per imputed value.
OBSERVED, MAR_ADHERER, RETRIEVED_DROPOUT, POOLED, GATED_ADHERER, GATED_RD = range(6)

_ARM_POOLED = 2  # stream scope code when donor arms are pooled


@dataclass(frozen=True)
class ImputationConfig:
    method: str
    m: int = 100
    seed: int = 0
    survival_kind: str = PROPORTIONAL_HAZARDS
    min_donor_pool: int = 12
    mar_conditioning: str = MONOTONE_SEQUENTIAL
    gate_probability_override: Optional[float] = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if not all(isinstance(v, numbers.Integral) for v in (self.m, self.seed, self.min_donor_pool)):
            raise ConfigError("m, seed and min_donor_pool must be integers")
        if self.m < 2:
            raise ConfigError("m (imputation count) must be >= 2")
        if self.min_donor_pool < 2:
            raise ConfigError("min_donor_pool must be >= 2")
        if self.survival_kind not in KINDS:
            raise ConfigError(f"survival_kind must be one of {KINDS}")
        if self.mar_conditioning not in (BASELINE_ONLY, MONOTONE_SEQUENTIAL):
            raise ConfigError("mar_conditioning must be 'baseline-only' or 'monotone-sequential'")
        if self.gate_probability_override is not None and not 0 <= self.gate_probability_override <= 1:
            raise ConfigError("gate_probability_override must lie in [0, 1]")


@dataclass(frozen=True)
class NormalImputationModel:
    """Least-squares donor fit with the pieces needed for proper-MI draws."""

    beta: np.ndarray                # (p,), or (m, p) for a per-round fit
    cov_factor: np.ndarray          # L with L @ L.T = (W'W)^-1
    sigma2: float | np.ndarray      # floored residual-variance estimate, (m,) per round
    df: int
    n_donors: int


@dataclass(frozen=True)
class ImputationResult:
    """All rounds at once: (m, n) endpoint and provenance-code matrices."""

    endpoints: np.ndarray
    provenance_codes: np.ndarray
    fallback_events: tuple[str, ...] = ()

    @property
    def m(self) -> int:
        return self.endpoints.shape[0]


@dataclass(frozen=True)
class _Arrays:
    n: int
    duration: float
    arm: np.ndarray
    x: np.ndarray
    y: np.ndarray           # (n, K), nan where missing
    scen: np.ndarray        # ScenarioLabel codes
    last_obs: np.ndarray    # last observed pre-endpoint visit index, -1 if none
    withdraw: np.ndarray    # nan where absent


def _extract(dataset: TrialDataset) -> _Arrays:
    grid = dataset.grid
    k = grid.n_visits
    subjects = dataset.subjects
    n = len(subjects)
    # Classifying first validates every record, so the arrays below are well formed.
    scen = np.array([classify_scenario(s, grid) for s in subjects], dtype=int)
    arm = np.array([s.arm for s in subjects], dtype=int)
    x = np.array([s.baseline for s in subjects], dtype=float)
    y = np.array([s.outcomes for s in subjects], dtype=float).reshape(n, k)  # None -> nan
    withdraw = np.array([s.withdraw_time for s in subjects], dtype=float)
    last_obs = np.where(~np.isnan(y[:, :-1]), np.arange(k - 1), -1).max(axis=1, initial=-1)
    return _Arrays(n=n, duration=grid.duration, arm=arm, x=x, y=y, scen=scen,
                   last_obs=last_obs, withdraw=withdraw)


def fit_donor_model(design: np.ndarray, endpoints: np.ndarray, *,
                    min_donor_pool: int = 2) -> NormalImputationModel:
    """Least-squares fit of endpoints on the design matrix, with the posterior
    factors for proper multiple-imputation draws.

    ``endpoints`` is one vector (n,) or one column per round (n, m); the
    latter gives per-round coefficients (m, p) and residual variances (m,)
    that share the design's covariance factor.
    """
    w = np.asarray(design, dtype=float)
    yv = np.asarray(endpoints, dtype=float)
    if w.ndim != 2 or yv.ndim not in (1, 2) or w.shape[0] != yv.shape[0]:
        raise ImputationError("design and endpoint shapes disagree")
    n = w.shape[0]
    if n < min_donor_pool:
        raise ImputationError(f"donor pool of {n} below threshold {min_donor_pool}")
    beta, _, rank, _ = np.linalg.lstsq(w, yv, rcond=None)
    df = n - int(rank)
    if df < 1:
        raise ImputationError(f"donor pool of {n} leaves no residual degrees of freedom")
    resid = yv - w @ beta
    sigma2 = np.maximum(np.vecdot(resid, resid, axis=0) / df, VARIANCE_FLOOR)
    cov = np.linalg.pinv(w.T @ w)
    vals, vecs = np.linalg.eigh((cov + cov.T) / 2.0)
    factor = vecs * np.sqrt(np.clip(vals, 0.0, None))
    return NormalImputationModel(beta=beta.T, cov_factor=factor, sigma2=sigma2, df=df, n_donors=n)


def posterior_draws(model: NormalImputationModel, rng: np.random.Generator, m: int):
    """m proper-MI parameter draws: residual SDs (m,) and coefficients (m, p).

    A per-round model (beta of shape (m, p)) gives round i a draw around its
    own fit.
    """
    chi2 = np.maximum(rng.chisquare(model.df, size=m), 1e-300)
    sigma2 = np.maximum(model.df * model.sigma2 / chi2, VARIANCE_FLOOR)
    sigma = np.sqrt(sigma2)
    u = rng.standard_normal((m, model.beta.shape[-1]))
    beta = model.beta + sigma[:, None] * (u @ model.cov_factor.T)
    return sigma, beta


def _donor_rows(arr: _Arrays, scen: ScenarioLabel, arm: int, visit: int) -> np.ndarray:
    """Indices usable as donors: given scenario and arm, complete on the
    conditioning visit (visit = -1 means baseline-only)."""
    ok = (arr.scen == scen) & (arr.arm == arm) & ~np.isnan(arr.y[:, -1])
    if visit >= 0:
        ok &= ~np.isnan(arr.y[:, visit])
    return np.flatnonzero(ok)


def _build_design(arr: _Arrays, rows: np.ndarray, visit: int, pooled: bool) -> np.ndarray:
    cols = [np.ones(rows.size), arr.x[rows]]
    if visit >= 0:
        cols.append(arr.y[rows, visit])
    if pooled:
        cols.append(arr.arm[rows].astype(float))
    return np.column_stack(cols)


def _value_draws(arr: _Arrays, targets: np.ndarray, donor_scen: ScenarioLabel, purpose: int,
                 per_visit: bool, cfg: ImputationConfig, replicate: int,
                 z: np.ndarray, fallback: set[str], fits: dict) -> np.ndarray:
    """Posterior-predictive endpoint draws, (m, n) with the target columns filled.

    Targets are grouped by (arm, conditioning visit). Each (arm, visit) donor
    model is fit and drawn once; a short donor pool borrows the other arm,
    with an arm covariate, and that pooled fit serves both arms. ``fits``
    holds the parameter draws by stream key, for every method to reuse.
    """
    draws = np.full(z.shape, np.nan)
    visits = arr.last_obs[targets] if per_visit else np.full(targets.size, -1)
    for arm, visit in sorted(set(zip(arr.arm[targets].tolist(), visits.tolist()))):
        group = targets[(arr.arm[targets] == arm) & (visits == visit)]
        donors = _donor_rows(arr, donor_scen, arm, visit)
        pooled = donors.size < cfg.min_donor_pool
        if pooled:
            donors = np.concatenate([_donor_rows(arr, donor_scen, 0, visit),
                                     _donor_rows(arr, donor_scen, 1, visit)])
            label = "adherent" if donor_scen is ScenarioLabel.S1 else "retrieved-dropout"
            fallback.add(f"{label} donors pooled across arms"
                         + (f" (conditioning visit {visit})" if visit >= 0 else ""))
        scope = _ARM_POOLED if pooled else arm
        key = (cfg.seed, cfg.m, cfg.min_donor_pool, purpose, scope, visit)
        if key not in fits:
            try:
                model = fit_donor_model(_build_design(arr, donors, visit, pooled),
                                        arr.y[donors, -1], min_donor_pool=cfg.min_donor_pool)
            except ImputationError as exc:
                raise ImputationError(f"donor pool exhausted even after pooling arms: {exc}") from exc
            rng = substream(cfg.seed, IMPUTE_NS, replicate, purpose, scope, visit + 1)
            fits[key] = posterior_draws(model, rng, cfg.m)
        draws[:, group] = _predict(*fits[key], _build_design(arr, group, visit, pooled), z[:, group])
    return draws


def _predict(sigma: np.ndarray, beta: np.ndarray, design: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(m, g) draws beta_i . design_j + sigma_i z_ij. The stacked product runs
    one matrix-vector product per target, as ``beta @ row`` does, so every
    draw is bit-identical to a per-target loop (``beta @ design.T`` is not)."""
    return (beta @ design[:, :, None])[..., 0].T + sigma[:, None] * z


def _gate_probabilities(dataset: TrialDataset, arr: _Arrays, s52_idx: np.ndarray,
                        cfg: ImputationConfig, fallback: set[str]) -> np.ndarray:
    if cfg.gate_probability_override is not None:
        return np.full(s52_idx.size, float(cfg.gate_probability_override))
    out = np.zeros(s52_idx.size)
    for arm in np.unique(arr.arm[s52_idx]).tolist():
        sample = build_sample(dataset, arm)
        if not sample.event.any():
            # With no observed discontinuation the product-limit curve is
            # S = 1, so every gate probability in the arm is 0.
            fallback.add(f"no observed discontinuation in arm {arm}: gate probability 0")
            continue
        model = fit_survival(sample, cfg.survival_kind)
        if model.separation_fallback:
            fallback.add(f"monotone partial likelihood in arm {arm}: product-limit gate")
        for pos in np.flatnonzero(arr.arm[s52_idx] == arm):
            j = s52_idx[pos]
            out[pos] = prob_disc_before_end(model, float(arr.withdraw[j]), arr.duration, [arr.x[j]])
    return out


def _pooled_donor_values(arr: _Arrays, targets: np.ndarray, out: np.ndarray,
                         cfg: ImputationConfig, replicate: int,
                         z: np.ndarray, fallback: set[str]) -> np.ndarray:
    """Method D: per round, refit endpoint-on-baseline using every non-withdrawn
    subject's (observed or just-imputed) endpoint, then draw for the withdrawn.
    Returns (m, n) draws with the target columns filled."""
    draws = np.full(out.shape, np.nan)
    for arm in (0, 1):
        group = targets[arr.arm[targets] == arm]
        if not group.size:
            continue
        donors = np.flatnonzero((arr.scen != ScenarioLabel.S52) & (arr.arm == arm))
        pooled = donors.size < cfg.min_donor_pool
        if pooled:
            donors = np.flatnonzero(arr.scen != ScenarioLabel.S52)
            fallback.add("endpoint donors pooled across arms")
        try:
            model = fit_donor_model(_build_design(arr, donors, -1, pooled), out[:, donors].T,
                                    min_donor_pool=cfg.min_donor_pool)
        except ImputationError as exc:
            raise ImputationError(f"no usable endpoint donors for pooled imputation: {exc}") from exc
        rng = substream(cfg.seed, IMPUTE_NS, replicate, PUR_POOL_PARAMS, _ARM_POOLED if pooled else arm)
        draws[:, group] = _predict(*posterior_draws(model, rng, cfg.m),
                                   _build_design(arr, group, -1, pooled), z[:, group])
    return draws


def impute_matrix(dataset: TrialDataset, cfg: ImputationConfig, *, replicate: int = 0,
                  shared: Optional[dict] = None) -> ImputationResult:
    """All m imputation rounds as matrices; observed endpoints pass through.

    Calls on one dataset and replicate may pass one ``shared`` dict, so that
    the noise and the donor draws, keyed by stream, are made once for all.
    """
    arr = _extract(dataset)
    m, n = cfg.m, arr.n
    shared = {} if shared is None else shared
    z = shared.get((cfg.seed, m))
    if z is None:
        z = substream(cfg.seed, IMPUTE_NS, replicate, PUR_NOISE).standard_normal((m, n))
        shared[(cfg.seed, m)] = z
        z.flags.writeable = False
    out = np.repeat(arr.y[None, :, -1], m, axis=0)
    prov = np.zeros((m, n), dtype=np.int8)
    fallback: set[str] = set()

    s2, s4, s52 = (np.flatnonzero(arr.scen == label)
                   for label in (ScenarioLabel.S2, ScenarioLabel.S4_51, ScenarioLabel.S52))
    # Withdrawn (S5.2) subjects take adherer draws under A, retrieved-dropout
    # draws under B and either one, by their gate, under C. Under D they are
    # drawn last, from a refit on everyone else's completed endpoints.
    mar_targets = np.concatenate([s2, s52]) if cfg.method in ("A", "C") else s2
    rd_targets = np.concatenate([s4, s52]) if cfg.method in ("B", "C") else s4
    per_visit = cfg.mar_conditioning == MONOTONE_SEQUENTIAL
    mar = _value_draws(arr, mar_targets, ScenarioLabel.S1, PUR_MAR_PARAMS, per_visit, cfg, replicate,
                       z, fallback, shared)
    rd = _value_draws(arr, rd_targets, ScenarioLabel.S3, PUR_RD_PARAMS, False, cfg, replicate,
                      z, fallback, shared)
    out[:, s2], prov[:, s2] = mar[:, s2], MAR_ADHERER
    out[:, s4], prov[:, s4] = rd[:, s4], RETRIEVED_DROPOUT

    if cfg.method == "A":
        out[:, s52], prov[:, s52] = mar[:, s52], MAR_ADHERER
    elif cfg.method == "B":
        out[:, s52], prov[:, s52] = rd[:, s52], RETRIEVED_DROPOUT
    elif s52.size and cfg.method == "C":
        p_hat = _gate_probabilities(dataset, arr, s52, cfg, fallback)
        gates = substream(cfg.seed, IMPUTE_NS, replicate, PUR_GATE).random((m, n))[:, s52] < p_hat
        out[:, s52] = np.where(gates, rd[:, s52], mar[:, s52])
        prov[:, s52] = np.where(gates, GATED_RD, GATED_ADHERER)
    elif s52.size and cfg.method == "D":
        pooled = _pooled_donor_values(arr, s52, out, cfg, replicate, z, fallback)
        out[:, s52], prov[:, s52] = pooled[:, s52], POOLED

    if np.isnan(out).any():
        raise ImputationError("imputation left missing endpoints behind")
    return ImputationResult(endpoints=out, provenance_codes=prov,
                            fallback_events=tuple(sorted(fallback)))
