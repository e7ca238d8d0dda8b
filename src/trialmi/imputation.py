"""Multiple imputation of missing endpoints under four strategies.

Subjects with a missing endpoint fall into three groups: still-on-treatment
(imputed from adherent completers under MAR), post-discontinuation (imputed
from retrieved dropouts), and administrative withdrawals, whose
discontinuation status is unknown.  The four methods differ only in how they
treat that last group:

  A  impute from adherent completers,
  B  impute from retrieved dropouts,
  C  draw the censored discontinuation status from the arm's product-limit
     probability of discontinuing between the withdrawal week and the study
     end, then impute from retrieved dropouts or adherers accordingly,
  D  impute from all non-withdrawn subjects' endpoints, observed and
     imputed within the same round.

All imputations are proper: each round redraws the donor-model residual
variance (scaled inverse chi-square) and coefficients (conditional normal)
from the standard noninformative-prior posterior.  One routine,
``Draws._value_draws``, fits, pools and draws every donor model, D's per-round
refit included.  Randomness is addressed by (seed, replicate, purpose, donor
group), so methods agree bit-for-bit wherever their donor assignments agree,
and only what is read is drawn: the shared noise over the t subjects with a
missing endpoint (m, t) and C's gate uniforms over the withdrawn (m, s52).
An analysis makes its ``Draws`` once and each method only selects from them
(``impute_matrix``), by the dataset's cached scenario codes
(``TrialDataset.columns``); its result is the endpoint matrix, since those
codes and C's gates already say which draw filled each value.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._streams import (IMPUTE_NS, PUR_GATE, PUR_MAR_PARAMS, PUR_NOISE,
                       PUR_POOL_PARAMS, PUR_RD_PARAMS, substream)
from .core import ScenarioLabel, TrialDataset
from .core import classify_scenario  # noqa: F401 - re-exported
from .errors import ConfigError, ImputationError
from .survival import build_sample, fit_survival, prob_disc_before_end

METHODS = ("A", "B", "C", "D")

BASELINE_ONLY = "baseline-only"
MONOTONE_SEQUENTIAL = "monotone-sequential"

#: Floor for residual variances so posterior draws stay proper on degenerate pools.
VARIANCE_FLOOR = 1e-8

_ARM_POOLED = 2  # stream scope code when donor arms are pooled
#: Per donor-fit purpose: its donors' name in pooling events, and the methods it imputes S5.2 for.
_DONOR_KIND = {PUR_MAR_PARAMS: "adherent", PUR_RD_PARAMS: "retrieved-dropout", PUR_POOL_PARAMS: "endpoint"}
_S52_READERS = {PUR_MAR_PARAMS: "AC", PUR_RD_PARAMS: "BC", PUR_POOL_PARAMS: "D"}


@dataclass(frozen=True)
class ImputationConfig:
    method: str
    m: int = 100
    seed: int = 0
    min_donor_pool: int = 12
    mar_conditioning: str = MONOTONE_SEQUENTIAL

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if not all(isinstance(v, numbers.Integral) for v in (self.m, self.seed, self.min_donor_pool)):
            raise ConfigError("m, seed and min_donor_pool must be integers")
        if self.m < 2:
            raise ConfigError("m (imputation count) must be >= 2")
        if self.min_donor_pool < 2:
            raise ConfigError("min_donor_pool must be >= 2")
        if self.mar_conditioning not in (BASELINE_ONLY, MONOTONE_SEQUENTIAL):
            raise ConfigError("mar_conditioning must be 'baseline-only' or 'monotone-sequential'")


@dataclass(frozen=True)
class NormalImputationModel:
    """Least-squares donor fit with the pieces needed for proper-MI draws."""

    beta: np.ndarray                # (p,), or (m, p) for a per-round fit
    cov_factor: np.ndarray          # L with L @ L.T = (W'W)^+
    sigma2: float | np.ndarray      # floored residual-variance estimate, (m,) per round
    df: int


@dataclass(frozen=True)
class ImputationResult:
    """All rounds at once: the (m, n) endpoint matrix and the method's fallback events."""

    endpoints: np.ndarray
    fallback_events: tuple[str, ...] = ()


def fit_donor_model(design: np.ndarray, endpoints: np.ndarray, *,
                    min_donor_pool: int = 2) -> NormalImputationModel:
    """Least-squares fit of endpoints on the design matrix W, with the posterior
    factors for proper multiple-imputation draws, from W'W = V diag(lambda) V':
    eigenvalues above a relative threshold set the rank, and L = V lambda^-1/2
    (zero on the dropped ones) gives L L' = (W'W)^+ and beta = L L' W'y.

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
    vals, vecs = np.linalg.eigh(w.T @ w)
    keep = vals > vals[-1] * max(w.shape) * np.finfo(float).eps
    df = n - int(keep.sum())
    if df < 1:
        raise ImputationError(f"donor pool of {n} leaves no residual degrees of freedom")
    factor = vecs * np.divide(1.0, np.sqrt(np.abs(vals)), out=np.zeros(vals.size), where=keep)
    beta = (factor @ (factor.T @ (w.T @ yv))).T
    resid = beta @ w.T  # negated residuals, (m, n) per round, built in one array
    resid -= yv.T
    sigma2 = np.maximum(np.vecdot(resid, resid) / df, VARIANCE_FLOOR)
    return NormalImputationModel(beta=beta, cov_factor=factor, sigma2=sigma2, df=df)


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


def _build_design(data: TrialDataset, rows: np.ndarray, visit: int, pooled: bool) -> np.ndarray:
    design = [np.ones(rows.size), data.baseline[rows]]
    if visit >= 0:
        design.append(data.y[rows, visit])
    if pooled:
        design.append(data.arm[rows].astype(float))
    return np.column_stack(design)


def _predict(sigma: np.ndarray, beta: np.ndarray, design: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(m, g) draws beta_i . design_j + sigma_i z_ij. The stacked product runs
    one matrix-vector product per target, as ``beta @ row`` does, so every
    draw is bit-identical to a per-target loop (``beta @ design.T`` is not)."""
    return (beta @ design[:, :, None])[..., 0].T + sigma[:, None] * z


def _gate_probabilities(dataset: TrialDataset, s52_idx: np.ndarray, fallback: set[str]) -> np.ndarray:
    arms, duration = dataset.arm[s52_idx], dataset.grid.duration
    out = np.zeros(s52_idx.size)
    for arm in np.unique(arms).tolist():
        sample = build_sample(dataset, arm)
        if not sample.event.any():
            # With no observed discontinuation the product-limit curve is
            # S = 1, so every gate probability in the arm is 0.
            fallback.add(f"no observed discontinuation in arm {arm}: gate probability 0")
            continue
        in_arm = arms == arm
        out[in_arm] = prob_disc_before_end(fit_survival(sample), dataset.withdraw[s52_idx[in_arm]], duration)
    return out


class Draws:
    """One analysis' draws, made once for the requested ``methods`` where one
    of them reads them (``cfg.method`` is not read). Noise column ``z[:, k]``
    is subject ``targets[k]``'s: S2, S4 and S5.2 in subject order. ``filled``
    (m, n) holds the observed endpoints and the S2 and S4 draws. The withdrawn
    (``s52``) have adherer draws ``mar52`` if A or C is requested,
    retrieved-dropout draws ``rd52`` if B or C is, C's ``gates`` (m, s52;
    True: retrieved-dropout draw) if C is, and D's ``pool52`` if D is, from a
    per-round refit on the other subjects' ``filled`` endpoints; each is else
    empty (``gates`` None).
    ``fallback`` holds each method's events. Draws are keyed by stream, so
    each method selects what it would draw alone."""

    def __init__(self, dataset: TrialDataset, cfg: ImputationConfig, methods: Sequence[str],
                 replicate: int = 0) -> None:
        scenario = dataset.columns.scenario
        m, endpoint = cfg.m, dataset.y[:, -1]
        self.targets = np.flatnonzero(np.isnan(endpoint))
        self.z = substream(cfg.seed, IMPUTE_NS, replicate, PUR_NOISE).standard_normal((m, self.targets.size))
        s2, s4, self.s52 = (np.flatnonzero(scenario == label)
                            for label in (ScenarioLabel.S2, ScenarioLabel.S4_51, ScenarioLabel.S52))
        self.fallback: dict[str, set[str]] = {method: set() for method in methods}
        # A pooled fit stacks its donors in their set's order, which sets the
        # fit's rounding: completers arm by arm for A-C, subject order for D.
        by_arm = np.argsort(dataset.arm, kind="stable")
        adherers, retrieved = (by_arm[(scenario[by_arm] == label) & ~np.isnan(endpoint[by_arm])]
                               for label in (ScenarioLabel.S1, ScenarioLabel.S3))
        self.filled = np.repeat(endpoint[None], m, axis=0)
        self.filled[:, s2], self.mar52 = self._value_draws(dataset, s2, adherers, endpoint,
                                                           PUR_MAR_PARAMS, cfg, replicate)
        self.filled[:, s4], self.rd52 = self._value_draws(dataset, s4, retrieved, endpoint,
                                                          PUR_RD_PARAMS, cfg, replicate)
        self.gates = None
        if "C" in methods:
            p_hat = _gate_probabilities(dataset, self.s52, self.fallback["C"])
            uniforms = substream(cfg.seed, IMPUTE_NS, replicate, PUR_GATE).random((m, self.s52.size))
            self.gates = uniforms < p_hat
        # Last, so that a failing C gate is reported before a failing D fit.
        others = np.flatnonzero(scenario != ScenarioLabel.S52)
        _, self.pool52 = self._value_draws(dataset, np.empty(0, dtype=int), others, self.filled.T,
                                           PUR_POOL_PARAMS, cfg, replicate)

    def _value_draws(self, data: TrialDataset, own: np.ndarray, donors: np.ndarray,
                     endpoints: np.ndarray, purpose: int, cfg: ImputationConfig,
                     replicate: int) -> tuple[np.ndarray, np.ndarray]:
        """Posterior-predictive draws from the ``donors`` fitted to their
        ``endpoints`` rows ((n,), or (n, m) for one fit per round): (m,
        own.size) for the donor set's own S2 or S4 targets and (m, s52.size)
        for the withdrawn, empty unless a requested method imputes those from
        it. Targets are grouped by (arm, conditioning visit). Each (scope,
        visit) donor model is fit and drawn once; a short donor pool borrows
        the other arm, with an arm covariate, and that pooled fit serves both
        arms. A method gets the pooling events of the groups it reads."""
        s52_users = [x for x in self.fallback if x in _S52_READERS[purpose]]
        targets = np.concatenate([own, self.s52]) if s52_users else own
        draws = np.empty((cfg.m, targets.size))
        arms = data.arm[targets]
        per_visit = purpose == PUR_MAR_PARAMS and cfg.mar_conditioning == MONOTONE_SEQUENTIAL
        visits = data.columns.last_obs[targets] if per_visit else np.full(targets.size, -1)
        fits = {}
        for arm, visit in sorted(set(zip(arms.tolist(), visits.tolist()))):
            in_group = (arms == arm) & (visits == visit)
            group = targets[in_group]
            usable = donors[~np.isnan(data.y[donors, visit])] if visit >= 0 else donors
            rows = usable[data.arm[usable] == arm]
            # Short: below the threshold, or no more donors than design columns
            # (intercept, baseline, conditioning visit), which leaves no residual df.
            pooled = rows.size < cfg.min_donor_pool or rows.size <= 2 + (visit >= 0)
            at_visit = f" (conditioning visit {visit})" if visit >= 0 else ""
            if pooled:
                rows = usable
                event = f"{_DONOR_KIND[purpose]} donors pooled across arms{at_visit}"
                for method in self.fallback if in_group[:own.size].any() else s52_users:
                    self.fallback[method].add(event)
            key = (_ARM_POOLED if pooled else arm, visit)
            if key not in fits:
                try:
                    model = fit_donor_model(_build_design(data, rows, visit, pooled), endpoints[rows],
                                            min_donor_pool=cfg.min_donor_pool)
                except ImputationError as exc:
                    raise ImputationError("donor pool exhausted even after pooling arms: "
                                          f"{_DONOR_KIND[purpose]} donors{at_visit}: {exc}") from exc
                # D's stream keys carry no visit.
                rng = substream(cfg.seed, IMPUTE_NS, replicate, purpose,
                                *(key[:1] if purpose == PUR_POOL_PARAMS else (key[0], visit + 1)))
                fits[key] = posterior_draws(model, rng, cfg.m)
            draws[:, in_group] = _predict(*fits[key], _build_design(data, group, visit, pooled),
                                          self.z[:, np.searchsorted(self.targets, group)])
        return draws[:, :own.size], draws[:, own.size:]


def impute_matrix(dataset: TrialDataset, cfg: ImputationConfig, *, replicate: int = 0,
                  draws: Optional[Draws] = None) -> ImputationResult:
    """All m imputation rounds of ``cfg.method`` as matrices, selected from
    ``draws`` (made for this method alone when None); observed endpoints
    pass through."""
    if draws is None:
        draws = Draws(dataset, cfg, (cfg.method,), replicate)
    method, s52 = cfg.method, draws.s52
    out = draws.filled.copy()
    # Withdrawn (S5.2) subjects take adherer draws under A, retrieved-dropout
    # draws under B, either one, by their gate, under C and the refit's under D.
    if method == "C":
        out[:, s52] = np.where(draws.gates, draws.rd52, draws.mar52)
    else:
        out[:, s52] = {"A": draws.mar52, "B": draws.rd52, "D": draws.pool52}[method]
    if np.isnan(out).any():
        raise ImputationError("imputation left missing endpoints behind")
    return ImputationResult(endpoints=out, fallback_events=tuple(sorted(draws.fallback[method])))
