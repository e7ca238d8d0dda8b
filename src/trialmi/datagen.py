"""Trial generation: adherent trajectories, treatment discontinuation,
administrative study withdrawal, endpoint masking, and the complete-data
truth oracle.

The outcome is change from baseline (HbA1c-like, negative = improvement).
The adherent trajectory follows an exponential-decay mean curve; after a
treatment discontinuation the active-arm effect washes out linearly over a
fixed window while the control mean is unchanged.  Administrative study
withdrawal is an independent constant-hazard event that masks every visit
after it.

One simulation kernel serves trials and truth.  Both draw each arm as arrays
(baselines, subject effects, visit noise, then per-visit discontinuation
uniforms) and take the first discontinuation visit from ``_first_disc_visit``.
``generate_trial`` then draws withdrawals and endpoint missingness for the
arm and builds the subject records; the truth oracle forms only the
complete-data endpoint, batch by batch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.special import expit

from ._streams import TRIAL_NS, TRUTH_NS, substream
from .core import ADMIN_WITHDRAWAL, DEFAULT_GRID, SubjectRecord, TrialDataset, VisitGrid
from .errors import ConfigError

NEVER = math.inf
#: Datasets per truth-kernel call. It sets the truth's draw order, and so every
#: truth value; changing it is a random-stream layout change.
TRUTH_BATCH = 500


@dataclass(frozen=True)
class GenParams:
    """Constants of the generative model.

    theta0/theta1 are the ultimate (long-run) changes per arm; beta0/beta1 the
    baseline-interaction slopes; kappa the decay rate per week.  alpha0/alpha1
    drive the response-dependent part of per-visit treatment discontinuation,
    c_control/c_experimental the additive per-visit parts.  withdrawal_hazard
    is the constant administrative-withdrawal rate per week.
    """

    n_per_arm: int = 200
    grid: VisitGrid = DEFAULT_GRID
    theta0: float = 0.0
    theta1: float = -1.8
    beta0: float = -0.1
    beta1: float = 0.2
    baseline_beta_a: float = 1.5
    baseline_beta_b: float = 2.0
    baseline_loc: float = 7.0
    baseline_scale: float = 3.0
    mu_x: Optional[float] = None  # None: Beta mean of the baseline distribution
    kappa: float = 0.06
    sigma_s2: float = 1.0
    sigma_e2: float = 0.5
    alpha0: float = -3.5
    alpha1: float = 1.5
    c_control: tuple[float, ...] = (0.2, 0.2, 0.2, 0.2)
    c_experimental: tuple[float, ...] = (0.06, 0.06, 0.03, 0.02)
    withdrawal_hazard: float = 0.002
    washout_weeks: float = 24.0
    p_miss_completer: float = 0.05
    p_miss_retained_dropout: float = 0.8

    @property
    def baseline_mean(self) -> float:
        if self.mu_x is not None:
            return self.mu_x
        a, b = self.baseline_beta_a, self.baseline_beta_b
        return self.baseline_loc + self.baseline_scale * a / (a + b)

    def theta(self, arm: int) -> float:
        return self.theta1 if arm else self.theta0

    def c_visit(self, arm: int) -> tuple[float, ...]:
        return self.c_experimental if arm else self.c_control

    def validate(self) -> None:
        if self.n_per_arm < 1:
            raise ConfigError("n_per_arm must be >= 1")
        if self.baseline_beta_a <= 0 or self.baseline_beta_b <= 0:
            raise ConfigError("baseline Beta parameters must be positive")
        if self.baseline_scale < 0:
            raise ConfigError("baseline_scale must be >= 0")
        if self.kappa <= 0:
            raise ConfigError("kappa must be positive")
        if self.sigma_s2 < 0 or self.sigma_e2 < 0:
            raise ConfigError("variance components must be >= 0")
        if self.withdrawal_hazard < 0:
            raise ConfigError("withdrawal_hazard must be >= 0")
        if self.washout_weeks <= 0:
            raise ConfigError("washout_weeks must be positive")
        for p, name in ((self.p_miss_completer, "p_miss_completer"),
                        (self.p_miss_retained_dropout, "p_miss_retained_dropout")):
            if not 0 <= p <= 1:
                raise ConfigError(f"{name} must lie in [0, 1]")
        k = self.grid.n_visits
        for arm, c in ((0, self.c_control), (1, self.c_experimental)):
            if len(c) != k:
                raise ConfigError(f"arm {arm}: need {k} per-visit dropout constants, got {len(c)}")
            if any(not 0 <= cj < 1 for cj in c):
                raise ConfigError(f"arm {arm}: per-visit dropout constants must lie in [0, 1)")
            # Anchor check at zero change from baseline, where every subject
            # starts; extreme simulated responses are clipped at draw time.
            base = float(expit(self.alpha0))
            if any(base + cj > 1 for cj in c):
                raise ConfigError(f"arm {arm}: expit(alpha0) + c exceeds 1 at the zero-change anchor")


def setting_preset(name: str) -> GenParams:
    """Named parameter presets for the two studied regimes."""
    presets = {
        # Response-dependent discontinuation, rare administrative withdrawal.
        "setting1": GenParams(alpha0=-3.5, alpha1=1.5, withdrawal_hazard=0.002),
        # Response-independent discontinuation, more administrative withdrawal.
        "setting2": GenParams(alpha0=-3.5, alpha1=0.0, withdrawal_hazard=0.005),
    }
    try:
        return presets[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(presets)}") from None


def resolve_params(params: Union[GenParams, str]) -> GenParams:
    out = setting_preset(params) if isinstance(params, str) else params
    out.validate()
    return out


@dataclass(frozen=True)
class TrueValues:
    """Complete-data target values: per-arm endpoint means and their difference."""

    mean_control: float
    mean_treatment: float
    difference: float
    n_datasets: int


def draw_baseline(rng: np.random.Generator, params: GenParams, size=None):
    """Baseline outcome level from the location-scaled Beta distribution."""
    if params.baseline_beta_a <= 0 or params.baseline_beta_b <= 0:
        raise ConfigError("baseline Beta parameters must be positive")
    b = rng.beta(params.baseline_beta_a, params.baseline_beta_b, size=size)
    return params.baseline_loc + params.baseline_scale * b


def _first_disc_visit(u: np.ndarray, level: np.ndarray, eps: np.ndarray, decay: np.ndarray,
                      arm: int, params: GenParams) -> np.ndarray:
    """Index of each subject's first treatment-discontinuation visit; K means never.

    At visit k a subject still on treatment stops, right after the previous
    visit week (week 0 for k = 0), when ``u[k] < expit(alpha0 + alpha1 y) +
    c_k``, where y = level * decay[k-1] + eps[..., k-1] is the previous
    adherent change (0 at k = 0). Heavy-tailed responses can push the sum past
    1; it is clipped to [0, 1]. With alpha1 = 0 the probability is one scalar
    per visit. ``level`` has one value per subject, ``eps`` one per subject
    and visit, and ``u`` leads with the visit axis.
    """
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


def generate_trial(params: Union[GenParams, str], seed: int, *, replicate: int = 0) -> TrialDataset:
    """One fully generated trial, deterministic in (seed, replicate).

    Each arm, control first, is drawn as arrays in one pass. The trial's
    random-stream layout is, per arm of n subjects and K visits: baselines
    (n), subject effects (n), visit noise (n, K), discontinuation uniforms
    (K, n), withdrawal exponentials (n, only when withdrawal_hazard > 0), then
    endpoint-missingness uniforms (n). The masking rules:

    - every visit after a withdrawal inside the study is missing;
    - the discontinuation week is recorded only when it precedes both the
      withdrawal and the study end;
    - a subject who is not withdrawn loses the endpoint with probability
      ``p_miss_retained_dropout`` after a discontinuation (it sets how many
      retrieved dropouts remain) and ``p_miss_completer`` otherwise.

    Subjects are numbered S0001, S0002, ... across both arms.
    """
    p = resolve_params(params)
    rng = substream(seed, TRIAL_NS, replicate)
    times = np.asarray(p.grid.times)
    n, visits, d = p.n_per_arm, len(times), p.grid.duration
    decay = 1.0 - np.exp(-p.kappa * times)
    # Discontinuation week by first-discontinuation visit; index K is never.
    disc_week = np.concatenate([[0.0], times[:-1], [NEVER]])
    subjects = []
    for arm in (0, 1):
        x = draw_baseline(rng, p, size=n)
        s = rng.normal(0.0, math.sqrt(p.sigma_s2), size=n)
        eps = rng.normal(0.0, math.sqrt(p.sigma_e2), size=(n, visits))
        u = rng.random((visits, n))
        w = (rng.exponential(1.0 / p.withdrawal_hazard, size=n) if p.withdrawal_hazard > 0
             else np.full(n, NEVER))
        u_miss = rng.random(n)
        level = p.theta(arm) + (p.beta0 + arm * p.beta1) * (x - p.baseline_mean) + s
        y = level[:, None] * decay + eps
        t_a = disc_week[_first_disc_visit(u, level, eps, decay, arm, p)]
        if arm:
            # After discontinuation the effect washes out linearly over
            # washout_weeks toward the control level; the noise is kept.
            frac = np.clip(times - t_a[:, None], 0.0, p.washout_weeks) / p.washout_weeks
            y -= (p.theta(arm) - p.theta0) * frac * decay
        v = np.where(w < d, w, NEVER)
        missing = times > v[:, None]
        p_miss = np.where(t_a < d, p.p_miss_retained_dropout, p.p_miss_completer)
        missing[:, -1] |= (v == NEVER) & (u_miss < p_miss)
        recorded = np.where(t_a < np.minimum(v, d), t_a, NEVER)
        for j, (xj, yj, uj, vj) in enumerate(zip(x.tolist(), np.where(missing, None, y).tolist(),
                                                 recorded.tolist(), v.tolist())):
            withdrawn = vj != NEVER
            subjects.append(SubjectRecord(
                id=f"S{arm * n + j + 1:04d}", arm=arm, baseline=xj, outcomes=tuple(yj),
                disc_time=None if uj == NEVER else uj,
                withdraw_time=vj if withdrawn else None,
                withdraw_type=ADMIN_WITHDRAWAL if withdrawn else None))
    return TrialDataset(grid=p.grid, subjects=tuple(subjects))


def _complete_endpoint_means(rng: np.random.Generator, params: GenParams, n_datasets: int,
                             buffers: tuple[np.ndarray, np.ndarray, np.ndarray]):
    """Vectorized complete-data endpoint means, one pair per dataset.

    Simulates trajectories and discontinuations for every subject but imposes
    no withdrawal or missingness; used only by the truth oracle.  The draw
    order is the truth's random-stream layout: per arm, baselines (b, n),
    subject effects (b, n), visit noise (b, n, K), then the discontinuation
    uniforms (K, b, n).  Only the endpoint is formed; an arm whose effect
    equals the control's has no washout shift, so its uniforms are skipped.
    The effects, noise and uniforms go into ``buffers``, flat arrays of at
    least b n, b n K and K b n values that the caller reuses across batches.
    """
    times = np.asarray(params.grid.times)
    n, visits = params.n_per_arm, len(times)
    decay = 1.0 - np.exp(-params.kappa * times)
    # Washout fraction at the endpoint by first-discontinuation visit; index K is never.
    disc_week = np.concatenate([[0.0], times[:-1]])
    frac_at = np.append(np.minimum(np.maximum(times[-1] - disc_week, 0.0), params.washout_weeks)
                        / params.washout_weeks, 0.0)
    s_buf, eps_buf, u_buf = (buf[:size * n_datasets * n]
                             for buf, size in zip(buffers, (1, visits, visits)))
    means = {}
    for arm in (0, 1):
        x = draw_baseline(rng, params, size=(n_datasets, n))
        # normal(0, sd) draws sd * z from the same standard normals.
        s = rng.standard_normal(out=s_buf.reshape(n_datasets, n))
        s *= math.sqrt(params.sigma_s2)
        eps = rng.standard_normal(out=eps_buf.reshape(n_datasets, n, visits))
        eps *= math.sqrt(params.sigma_e2)
        level = params.theta(arm) + (params.beta0 + arm * params.beta1) * (x - params.baseline_mean) + s
        endpoint = level * decay[-1] + eps[..., -1]
        dtheta = params.theta(arm) - params.theta0
        if dtheta == 0:
            # Each uniform double takes one step of the PCG64 stream.
            rng.bit_generator.advance(u_buf.size)
        else:
            u = rng.random(out=u_buf.reshape(visits, n_datasets, n))
            frac = frac_at[_first_disc_visit(u, level, eps, decay, arm, params)]
            endpoint = endpoint - dtheta * frac * decay[-1]
        means[arm] = endpoint.mean(axis=1)
    return means[0], means[1]


def generate_truth(params: Union[GenParams, str], n_datasets: int, seed: int) -> TrueValues:
    """Average complete-data estimates over ``n_datasets`` simulated trials."""
    p = resolve_params(params)
    if n_datasets < 1:
        raise ConfigError("n_datasets must be >= 1")
    rng = substream(seed, TRUTH_NS)
    size = min(TRUTH_BATCH, n_datasets) * p.n_per_arm
    buffers = (np.empty(size), np.empty(size * p.grid.n_visits), np.empty(size * p.grid.n_visits))
    sum0 = sum1 = 0.0
    done = 0
    while done < n_datasets:
        b = min(TRUTH_BATCH, n_datasets - done)
        m0, m1 = _complete_endpoint_means(rng, p, b, buffers)
        sum0 += float(m0.sum())
        sum1 += float(m1.sum())
        done += b
    mean0 = sum0 / n_datasets
    mean1 = sum1 / n_datasets
    return TrueValues(mean_control=mean0, mean_treatment=mean1,
                      difference=mean1 - mean0, n_datasets=n_datasets)
