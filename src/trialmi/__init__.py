"""Simulation and multiple imputation for longitudinal trials whose
administrative study withdrawals censor treatment discontinuations."""

__version__ = "0.1.0"

from .core import (DEFAULT_GRID, ScenarioLabel, SubjectRecord, TrialDataset,
                   VisitGrid, classify_scenario, scenario_counts, validate_dataset)
from .datagen import (GenParams, TrueValues, generate_trial, generate_truth,
                      setting_preset)
from .estimation import PooledEstimate, estimate_matrix, pool_rubin
from .imputation import METHODS, ImputationConfig, ImputationResult, impute_matrix
from .simharness import MetricsTable, SimPlan, run_plan, summarize_scenarios
from .survival import (SurvivalModel, SurvivalSample, build_sample,
                       conditional_survival, fit_survival, prob_disc_before_end)

__all__ = [
    "__version__",
    "DEFAULT_GRID", "ScenarioLabel", "SubjectRecord", "TrialDataset", "VisitGrid",
    "classify_scenario", "scenario_counts", "validate_dataset",
    "GenParams", "TrueValues", "generate_trial", "generate_truth", "setting_preset",
    "PooledEstimate", "estimate_matrix", "pool_rubin",
    "METHODS", "ImputationConfig", "ImputationResult", "impute_matrix",
    "MetricsTable", "SimPlan", "run_plan", "summarize_scenarios",
    "SurvivalModel", "SurvivalSample", "build_sample", "conditional_survival",
    "fit_survival", "prob_disc_before_end",
]
