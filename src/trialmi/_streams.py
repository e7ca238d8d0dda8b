"""Deterministic random-stream derivation.

Every stochastic step draws from a generator keyed by the master seed plus a
structural address (namespace, replicate, purpose, ...).  Streams for distinct
keys are statistically independent, so results never depend on execution
order, worker count, or which other components consumed randomness.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError

# Top-level namespaces under one master seed.
TRUTH_NS = 0     # complete-data truth oracle
TRIAL_NS = 1     # trial generation, one stream per replicate
IMPUTE_NS = 2    # imputation draws, keyed further by replicate and purpose

# Purposes within IMPUTE_NS.
PUR_MAR_PARAMS = 0
PUR_RD_PARAMS = 1
PUR_POOL_PARAMS = 2
PUR_NOISE = 3
PUR_GATE = 4


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator addressed by ``key`` under ``seed``; disjoint across keys.
    A negative seed is a ConfigError."""
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
