"""Trial generation: adherent trajectories, treatment discontinuation,
administrative study withdrawal, endpoint masking, and the complete-data
truth oracle.

The outcome is change from baseline (HbA1c-like, negative = improvement).
The adherent trajectory follows an exponential-decay mean curve; after a
treatment discontinuation the active-arm effect washes out linearly over a
fixed window while the control mean is unchanged.  Administrative study
withdrawal is an independent constant-hazard event that masks every visit
after it.

One discontinuation kernel, ``_first_disc_visit``, and one baseline sampler,
``draw_baseline``, serve trials and truth; where b is whole and b <= 4 it
draws Beta(a, b) exactly as exp(-sum_j E_j / (a + j)), stream E0, E1 for (1.5, 2).
``generate_trial`` draws each arm as arrays (baselines, subject effects,
visit noise, then per-visit discontinuation uniforms), masks withdrawals and
endpoint missingness in those arrays, and keeps them as the dataset.  The
truth oracle forms only complete-data endpoint means. It draws per subject
only what has no closed-form law for its dataset average: the Beta baselines
and, in a response-dependent arm with a shifted effect, the subject effects,
visit noise and uniforms that ``_first_disc_visit`` reads. Every other part is
drawn once per dataset with the law of its average: a normal for the mean
noise, and a multinomial count of subjects by first discontinuation visit.
The truth's batches share one workspace: each per-subject array is drawn and
computed in place, in memory the first batch paged in, so no batch allocates,
frees and faults back in its own arrays (about 9 MB for setting1's 500 x 200).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ._streams import TRIAL_NS, TRUTH_NS, substream
from .core import ADMIN_WITHDRAWAL, DEFAULT_GRID, NO_TYPE, TrialDataset, VisitGrid
from .errors import ConfigError

NEVER = math.inf
#: Subjects per arm in one truth-kernel call. It sets the truth's draw order,
#: and so every truth value; changing it is a random-stream layout change.
TRUTH_SUBJECTS = 100_000


def _expit(x, out=None):
    """1 / (1 + exp(-x)), into ``out`` if given; numpy's, as importing scipy.special takes ~0.3 s."""
    e = np.exp(np.negative(x, out=out), out=out)
    return np.reciprocal(np.add(e, 1.0, out=out), out=out)


@dataclass(frozen=True)
class GenParams:
    """Constants of the generative model.

    theta0/theta1 are the ultimate (long-run) changes per arm; beta0/beta1 the
    baseline-interaction slopes; kappa the decay rate per week.  alpha0/alpha1
    drive the response-dependent part of per-visit treatment discontinuation,
    c_control/c_experimental the additive per-visit parts.  withdrawal_hazard
    is the constant administrative-withdrawal rate per week.  Construction
    checks the values and raises ConfigError for an invalid one.
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

    def __post_init__(self) -> None:
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
            # starts; past 1, an extreme simulated response is a certain stop.
            base = float(_expit(self.alpha0))
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
    return setting_preset(params) if isinstance(params, str) else params


@dataclass(frozen=True)
class TrueValues:
    """Complete-data target values: per-arm endpoint means and their difference."""

    mean_control: float
    mean_treatment: float
    difference: float
    n_datasets: int


def draw_baseline(rng: np.random.Generator, params: GenParams, size=None, out=None):
    """Baseline outcome levels (an array of ``size``, or written into the
    C-contiguous float array ``out``) from the location-scaled Beta(a, b) law:
    ``rng.beta`` unless b is whole and b <= 4. Then it is exactly
    prod_{j<b} Beta(a + j, 1) = exp(-sum_j E_j / (a + j)) (Devroye 1986, IX.4), each
    standard exponential E_j drawn over the whole array in turn (E0, E1 for (1.5, 2))
    in blocks, the stream of one draw, so that only the output array is alive."""
    a, b = params.baseline_beta_a, params.baseline_beta_b
    x = np.empty(size) if out is None else out
    if b % 1 or b > 4:
        np.multiply(rng.beta(a, b, size=x.shape), params.baseline_scale, out=x)
        x += params.baseline_loc
        return x
    x.fill(0.0)
    flat, t = x.reshape(-1), np.empty(8192)  # one block of a term: it bounds the scratch memory, not the stream
    for j in range(int(b)):
        for lo in range(0, flat.size, t.size):
            term = rng.standard_exponential(out=t[:flat.size - lo])
            flat[lo:lo + term.size] += np.divide(term, a + j, out=term)
    np.exp(np.negative(x, out=x), out=x)
    x *= params.baseline_scale
    x += params.baseline_loc
    return x


def _first_disc_visit(u: np.ndarray, level: np.ndarray, eps: np.ndarray, decay: np.ndarray,
                      arm: int, params: GenParams, *, first: Optional[np.ndarray] = None,
                      prob: Optional[np.ndarray] = None, mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Index of each subject's first treatment-discontinuation visit; K means never.

    At visit k a subject still on treatment stops, right after the previous
    visit week (week 0 for k = 0), when ``u[k] < expit(alpha0 + alpha1 y) +
    c_k``, where y = level * decay[k-1] + eps[k-1] is the previous adherent
    change (0 at k = 0). A sum past 1 is a certain stop, since u < 1. With
    alpha1 = 0 the probability is one scalar per visit. ``level`` has one
    value per subject; ``u`` and ``eps`` lead with the visit axis. The
    endpoint noise eps[K-1] is never read, so ``eps`` may stop before it.
    ``first`` (the result, integers), ``prob`` (floats) and ``mask`` (bools),
    each shaped like ``level``, are written in place when given.
    """
    c = params.c_visit(arm)
    first = np.empty(level.shape, np.intp) if first is None else first
    prob = np.empty(level.shape) if prob is None else prob
    mask = np.empty(level.shape, bool) if mask is None else mask
    first.fill(len(decay))
    # A visit's stop test ignores earlier stops, so going last to first the earliest wins.
    for k in reversed(range(len(decay))):
        if k and params.alpha1 != 0:
            np.multiply(level, decay[k - 1], out=prob)
            prob += eps[k - 1]
            prob *= params.alpha1
            prob += params.alpha0
            _expit(prob, out=prob)
            prob += c[k]
            np.less(u[k], prob, out=mask)
        else:
            np.less(u[k], _expit(params.alpha0) + c[k], out=mask)
        np.copyto(first, k, where=mask)
    return first


@functools.cache
def _subject_ids(count: int) -> tuple[str, ...]:
    """S0001, S0002, ...: one immutable tuple per count, shared by every trial of that size."""
    return tuple(f"S{j:04d}" for j in range(1, count + 1))


def generate_trial(params: Union[GenParams, str], seed: int, *, replicate: int = 0) -> TrialDataset:
    """One fully generated trial, deterministic in (seed, replicate).

    Each arm, control first, is drawn as arrays in one pass. The trial's
    random-stream layout is, per arm of n subjects and K visits: baselines
    (E0, E1, n each, for the presets), subject effects (n), visit noise (n, K),
    discontinuation uniforms (K, n), withdrawal exponentials (n, only when
    withdrawal_hazard > 0), then endpoint-missingness uniforms (n). The masking rules:

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
    parts = []
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
        t_a = disc_week[_first_disc_visit(u, level, eps.T, decay, arm, p)]
        if arm:
            # After discontinuation the effect washes out linearly over
            # washout_weeks toward the control level; the noise is kept.
            frac = np.clip(times - t_a[:, None], 0.0, p.washout_weeks) / p.washout_weeks
            y -= (p.theta(arm) - p.theta0) * frac * decay
        v = np.where(w < d, w, np.nan)  # NaN: not withdrawn
        missing = times > v[:, None]
        p_miss = np.where(t_a < d, p.p_miss_retained_dropout, p.p_miss_completer)
        missing[:, -1] |= np.isnan(v) & (u_miss < p_miss)
        y[missing] = np.nan
        parts.append((x, y, np.where(t_a < np.fmin(v, d), t_a, np.nan), v))
    x, y, disc, withdraw = map(np.concatenate, zip(*parts))
    return TrialDataset(grid=p.grid, ids=_subject_ids(2 * n),
                        arm=np.repeat([0, 1], n), baseline=x, y=y, disc=disc, withdraw=withdraw,
                        withdraw_type=np.where(np.isnan(withdraw), NO_TYPE, ADMIN_WITHDRAWAL))


def _take(work: dict, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """The leading values of the flat array ``work[name]`` as a C-contiguous
    array of ``shape``, making that array when it is missing or too small. A
    truth call's batches share one ``work``, the largest batch first, so every
    batch after the first writes into memory already paged in."""
    size = math.prod(shape)
    if name not in work or work[name].size < size:
        work[name] = np.empty(size, dtype)
    return work[name][:size].reshape(shape)


def _complete_endpoint_means(rng: np.random.Generator, params: GenParams, n_datasets: int,
                             work: Optional[dict] = None):
    """Complete-data endpoint means of b = ``n_datasets`` datasets, one array per arm.

    Used only by the truth oracle; no withdrawal or missingness. A draw that
    enters the mean only through its per-dataset average is replaced by one
    draw of that average with the same law. Per-subject arrays are drawn and
    computed in place in ``work``'s arrays (see ``_take``). Each arm, control
    first, draws (the truth's stream layout):

    - baselines per subject: E0, E1, (b, n) each, for the presets;
    - when discontinuation does not move the mean (dtheta = 0) or does not
      depend on the response (alpha1 = 0): one normal (b) for the mean of
      subject effect and endpoint noise, N(0, (d_K^2 sigma_s2 + sigma_e2) / n),
      and, if dtheta != 0, one multinomial (b, K + 1) count of subjects by
      first-discontinuation visit T = 0..K-1, never (K) last;
    - otherwise subject effects (b, n), noise at visits 0..K-2 (K - 1, b, n)
      and uniforms (K, b, n) for ``_first_disc_visit``, which reads no
      endpoint noise, then one normal (b) for the endpoint noise's mean,
      N(0, sigma_e2 / n).
    """
    work = {} if work is None else work
    times = np.asarray(params.grid.times)
    n, visits = params.n_per_arm, len(times)
    shape = (n_datasets, n)
    decay = 1.0 - np.exp(-params.kappa * times)
    # Washout fraction at the endpoint by first-discontinuation visit; index K is never.
    disc_week = np.concatenate([[0.0], times[:-1]])
    frac_at = np.append(np.clip(times[-1] - disc_week, 0.0, params.washout_weeks) / params.washout_weeks, 0.0)
    means = {}
    for arm in (0, 1):
        slope = params.beta0 + arm * params.beta1
        x = draw_baseline(rng, params, out=_take(work, "x", shape))
        mean = (params.theta(arm) + slope * (x.mean(axis=1) - params.baseline_mean)) * decay[-1]
        dtheta = params.theta(arm) - params.theta0
        if dtheta == 0 or params.alpha1 == 0:
            sd = math.sqrt(decay[-1] ** 2 * params.sigma_s2 + params.sigma_e2)
            mean += sd / math.sqrt(n) * rng.standard_normal(n_datasets)
            if dtheta != 0:
                # P(T = k) = P(on before k) * stop_k, with P(T = K) = P(on after K - 1) last.
                stop = _expit(params.alpha0) + np.asarray(params.c_visit(arm))
                on = np.cumprod(1.0 - stop)
                cells = np.append(stop * np.append(1.0, on[:-1]), on[-1])
                counts = rng.multinomial(n, cells, size=n_datasets)
                mean -= dtheta * decay[-1] * (counts @ frac_at) / n
        else:
            # normal(0, sd) is sd * standard_normal, value for value.
            s = rng.standard_normal(out=_take(work, "s", shape))
            s *= math.sqrt(params.sigma_s2)
            eps = rng.standard_normal(out=_take(work, "eps", (visits - 1,) + shape))
            eps *= math.sqrt(params.sigma_e2)
            u = rng.random(out=_take(work, "u", (visits,) + shape))
            # level = theta + slope * (x - mean baseline) + s, over x's spent values.
            level = np.subtract(x, params.baseline_mean, out=x)
            level *= slope
            level += params.theta(arm)
            level += s
            first = _first_disc_visit(u, level, eps, decay, arm, params,
                                      first=_take(work, "first", shape, np.intp),
                                      prob=_take(work, "prob", shape), mask=_take(work, "mask", shape, bool))
            # (s d_K - dtheta d_K frac) averaged per dataset, over s and the spent prob; first
            # lies in 0..K, and "clip" writes out directly where "raise" would buffer it.
            frac = np.take(frac_at, first, out=_take(work, "prob", shape), mode="clip")
            frac *= dtheta * decay[-1]
            s *= decay[-1]
            s -= frac
            mean += s.mean(axis=1)
            mean += math.sqrt(params.sigma_e2 / n) * rng.standard_normal(n_datasets)
        means[arm] = mean
    return means[0], means[1]


def generate_truth(params: Union[GenParams, str], n_datasets: int, seed: int) -> TrueValues:
    """Average complete-data estimates over ``n_datasets`` simulated trials, drawn
    ``TRUTH_SUBJECTS // n_per_arm`` (at least one) at a time so memory stays
    bounded, every batch in one workspace."""
    p = resolve_params(params)
    if n_datasets < 1:
        raise ConfigError("n_datasets must be >= 1")
    rng = substream(seed, TRUTH_NS)
    batch, work = max(1, TRUTH_SUBJECTS // p.n_per_arm), {}
    sum0 = sum1 = 0.0
    for done in range(0, n_datasets, batch):
        m0, m1 = _complete_endpoint_means(rng, p, min(batch, n_datasets - done), work)
        sum0 += float(m0.sum())
        sum1 += float(m1.sum())
    mean0, mean1 = sum0 / n_datasets, sum1 / n_datasets
    return TrueValues(mean_control=mean0, mean_treatment=mean1,
                      difference=mean1 - mean0, n_datasets=n_datasets)
