"""Complete-data estimation and Rubin's-rule pooling.

The analysis model is the unadjusted per-arm endpoint mean; the treatment
effect is their difference.  Pooled intervals use the total variance
W + (1 + 1/m) B with Barnard-Rubin small-sample degrees of freedom when a
complete-data df is supplied (classic Rubin df otherwise).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import stdtrit

from .errors import EstimationError


@dataclass(frozen=True)
class PooledEstimate:
    point: float
    within: float
    between: float
    total: float
    df: float
    level: float
    ci_low: float
    ci_high: float
    m: int


def estimate_matrix(arms: np.ndarray, endpoints: np.ndarray) -> dict[str, np.ndarray]:
    """Per-round arm means, difference and their sampling variances, as (m,) arrays."""
    arms = np.asarray(arms)
    e = np.asarray(endpoints, dtype=float)
    out: dict[str, np.ndarray] = {}
    for arm, name in ((0, "control"), (1, "treatment")):
        cols = e[:, arms == arm]
        n = cols.shape[1]
        if n < 2:
            raise EstimationError(f"need at least 2 subjects in the {name} arm for a variance")
        out[f"mean_{name}"] = cols.mean(axis=1)
        out[f"var_{name}"] = cols.var(axis=1, ddof=1) / n
    out["difference"] = out["mean_treatment"] - out["mean_control"]
    out["var_difference"] = out["var_control"] + out["var_treatment"]
    return out


def pool_rubin(estimates: Sequence[tuple[float, float]] | np.ndarray, level: float = 0.95,
               com_df: Optional[float] = None) -> PooledEstimate:
    """Combine (point, variance) pairs from m imputation rounds, as pairs or one (m, 2) array.

    com_df is the complete-data degrees of freedom; None uses the classic
    large-sample Rubin df.
    """
    est = np.asarray(estimates, dtype=float)
    m = len(est)
    if m < 2:
        raise EstimationError("Rubin pooling needs at least 2 imputations")
    if est.shape != (m, 2):
        raise EstimationError("pooling inputs must be (point, variance) pairs")
    if not 0 < level < 1:
        raise EstimationError("confidence level must lie in (0, 1)")
    points, variances = est[:, 0], est[:, 1]
    if not np.all(np.isfinite(est)):
        raise EstimationError("pooling inputs must be finite")
    qbar = float(points.mean())
    w = float(variances.mean())
    b = float(points.var(ddof=1))
    t = w + (1.0 + 1.0 / m) * b

    if b > 0:
        df_old = (m - 1) * (1.0 + w / ((1.0 + 1.0 / m) * b)) ** 2
    else:
        df_old = math.inf
    if com_df is not None and math.isfinite(com_df):
        gamma = ((1.0 + 1.0 / m) * b / t) if t > 0 else 0.0
        df_obs = com_df * (com_df + 1.0) / (com_df + 3.0) * (1.0 - gamma)
        if df_obs <= 0:
            raise EstimationError("zero within-imputation variance leaves no observed-data df")
        df = 1.0 / (1.0 / df_old + 1.0 / df_obs) if math.isfinite(df_old) else df_obs
    else:
        df = df_old

    # stdtrit is the t quantile that scipy.stats.t.ppf evaluates; importing
    # scipy.stats for it alone would add most of a second to every start.
    half = float(stdtrit(df, (1.0 + level) / 2.0)) * math.sqrt(t) if t > 0 else 0.0
    return PooledEstimate(point=qbar, within=w, between=b, total=t, df=df, level=level,
                          ci_low=qbar - half, ci_high=qbar + half, m=m)
