"""Trial generation: adherent trajectories, treatment discontinuation,
administrative study withdrawal, endpoint masking, and the complete-data
truth oracle.

The outcome is change from baseline (HbA1c-like, negative = improvement).
The adherent trajectory follows an exponential-decay mean curve; after a
treatment discontinuation the active-arm effect washes out linearly over a
fixed window while the control mean is unchanged.  Administrative study
withdrawal is an independent constant-hazard event that masks every visit
after it.
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


def adherent_trajectory(rng: np.random.Generator, x: float, arm: int, params: GenParams):
    """Subject effect and per-visit changes under full adherence.

    Returns ``(s, y_hyp)`` where ``y_hyp[k]`` is the change at visit k:
    (theta_arm + (beta0 + arm*beta1)(x - mean) + s) * (1 - exp(-kappa t_k))
    plus independent within-subject noise.
    """
    times = np.asarray(params.grid.times)
    s = rng.normal(0.0, math.sqrt(params.sigma_s2))
    eps = rng.normal(0.0, math.sqrt(params.sigma_e2), size=times.shape)
    level = params.theta(arm) + (params.beta0 + arm * params.beta1) * (x - params.baseline_mean) + s
    return s, level * (1.0 - np.exp(-params.kappa * times)) + eps


def disc_probability(y_prev: float, visit_index: int, arm: int, params: GenParams) -> float:
    """Per-visit discontinuation probability given the previous adherent change.

    Heavy-tailed responses can push the sum past 1; it is clipped to [0, 1]
    (the additive constant already guarantees the anchor check in validate).
    """
    p = float(expit(params.alpha0 + params.alpha1 * y_prev)) + params.c_visit(arm)[visit_index]
    return min(max(p, 0.0), 1.0)


def simulate_disc_time(rng: np.random.Generator, y_hyp: np.ndarray, arm: int, params: GenParams) -> float:
    """Week of treatment discontinuation, or NEVER.

    At each visit k the subject stops right after the previous time point
    with probability expit(alpha0 + alpha1 * y_{k-1}) + c_k (y_0 = 0), so the
    possible discontinuation weeks are 0 and all grid times but the last.
    """
    times = params.grid.times
    y_prev = 0.0
    for k in range(len(times)):
        if rng.random() < disc_probability(y_prev, k, arm, params):
            return times[k - 1] if k else 0.0
        y_prev = float(y_hyp[k])
    return NEVER


def treatment_policy_trajectory(y_hyp: np.ndarray, arm: int, disc_time: float, params: GenParams) -> np.ndarray:
    """Observable trajectory: adherent values plus the post-discontinuation washout.

    The realized noise is shared with the adherent trajectory; only the mean
    shifts, linearly over ``washout_weeks`` toward the control ultimate level.
    Control-arm trajectories are unchanged.
    """
    y_hyp = np.asarray(y_hyp, dtype=float)
    if arm == 0 or not math.isfinite(disc_time):
        return y_hyp.copy()
    times = np.asarray(params.grid.times)
    frac = np.minimum(np.maximum(times - disc_time, 0.0), params.washout_weeks) / params.washout_weeks
    shift = -(params.theta(arm) - params.theta0) * frac * (1.0 - np.exp(-params.kappa * times))
    return y_hyp + shift


def simulate_withdrawal(rng: np.random.Generator, params: GenParams) -> float:
    """Week of administrative study withdrawal within the study, or NEVER."""
    if params.withdrawal_hazard <= 0:
        return NEVER
    w = rng.exponential(1.0 / params.withdrawal_hazard)
    return w if w < params.grid.duration else NEVER


def assemble_subject(subject_id: str, x: float, arm: int, y_tp: np.ndarray,
                     disc_time: float, withdrawal: float,
                     rng: np.random.Generator, params: GenParams) -> SubjectRecord:
    """Apply masking rules and record what the trial would actually observe.

    Visits after the withdrawal week are masked.  Subjects who stay to the end
    lose the endpoint with probability ``p_miss_retained_dropout`` if they
    discontinued treatment (controls how many retrieved dropouts remain) and
    ``p_miss_completer`` otherwise.  The discontinuation week is recorded only
    when it precedes both withdrawal and study end.
    """
    grid = params.grid
    d = grid.duration
    v = withdrawal if withdrawal < d else None
    u = disc_time if disc_time < min(withdrawal, d) else None
    missing = [v is not None and t > v for t in grid.times]
    if v is None:
        p = params.p_miss_retained_dropout if disc_time < d else params.p_miss_completer
        if rng.random() < p:
            missing[-1] = True
    return SubjectRecord(
        id=subject_id,
        arm=arm,
        baseline=float(x),
        outcomes=tuple(None if m else float(y_tp[k]) for k, m in enumerate(missing)),
        disc_time=u,
        withdraw_time=v,
        withdraw_type=ADMIN_WITHDRAWAL if v is not None else None,
    )


def generate_trial(params: Union[GenParams, str], seed: int, *, replicate: int = 0) -> TrialDataset:
    """One fully generated trial, deterministic in (seed, replicate)."""
    p = resolve_params(params)
    rng = substream(seed, TRIAL_NS, replicate)
    subjects = []
    total = 2 * p.n_per_arm
    for j in range(total):
        arm = 0 if j < p.n_per_arm else 1
        x = float(draw_baseline(rng, p))
        _, y_hyp = adherent_trajectory(rng, x, arm, p)
        t_a = simulate_disc_time(rng, y_hyp, arm, p)
        y_tp = treatment_policy_trajectory(y_hyp, arm, t_a, p)
        v = simulate_withdrawal(rng, p)
        subjects.append(assemble_subject(f"S{j + 1:04d}", x, arm, y_tp, t_a, v, rng, p))
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
    # Washout fraction at the endpoint for a discontinuation at visit k.
    disc_week = np.concatenate([[0.0], times[:-1]])
    frac_at = np.minimum(np.maximum(times[-1] - disc_week, 0.0), params.washout_weeks) / params.washout_weeks
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
            c = params.c_visit(arm)
            frac = np.zeros((n_datasets, n))
            alive = np.ones((n_datasets, n), dtype=bool)
            for k in range(visits):
                y_prev = level * decay[k - 1] + eps[..., k - 1] if k and params.alpha1 != 0 else 0.0
                prob = np.clip(expit(params.alpha0 + params.alpha1 * y_prev) + c[k], 0.0, 1.0)
                fail = alive & (u[k] < prob)
                frac[fail] = frac_at[k]
                alive &= ~fail
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
