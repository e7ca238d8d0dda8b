"""The trialmi names that the benchmark in ``perfbench/`` reads.

The benchmark traces the functions listed in ``perfbench/tracing.py``'s
``TARGETS`` and reads a few more names directly. Its own suite runs apart
from these tests, so a removed or renamed name is caught here. The list is
read with ``ast.literal_eval``, without importing the benchmark.

The benchmark checks truth values against its own closed forms; the
tier-1 truth oracle must agree with them wherever they exist.
"""
import ast
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path
from typing import get_type_hints

import pytest

from trialmi import core, imputation
from trialmi.core import VisitGrid
from trialmi.datagen import setting_preset
from trialmi.survival import SurvivalModel

from .analytic_oracle import exact_truth

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def traced_targets():
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACING}")


def test_every_traced_function_exists():
    targets = traced_targets()
    assert targets
    missing = [f"{module}.{attr}" for module, attr, _ in targets
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_other_names_the_benchmark_reads():
    assert callable(core.scenario_counts)
    assert {core.ADMIN_WITHDRAWAL, core.OTHER_WITHDRAWAL} == {0, 1}
    # The tracer's self-test reads the re-export, and wraps it with core's.
    assert imputation.classify_scenario is core.classify_scenario
    assert {"iterations", "separation_fallback"} <= {f.name for f in dataclasses.fields(SurvivalModel)}
    subject = core.SubjectRecord(id="P1", arm=0, baseline=8.0, outcomes=(0.1, None))
    assert subject.outcomes == (0.1, None) and subject.missing == (False, True)
    # The tracer names each impute_matrix span by the method of its second
    # argument, passed by position or as ``cfg``.
    cfg = list(inspect.signature(imputation.impute_matrix).parameters.values())[1]
    assert (cfg.name, cfg.kind) == ("cfg", inspect.Parameter.POSITIONAL_OR_KEYWORD)
    assert get_type_hints(imputation.impute_matrix)["cfg"] is imputation.ImputationConfig
    assert "method" in {f.name for f in dataclasses.fields(imputation.ImputationConfig)}


def load_checks():
    """The benchmark's output checks (``perfbench/checks.py``), as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("params", [
    setting_preset("setting1"),
    setting_preset("setting2"),
    dataclasses.replace(setting_preset("setting1"), theta1=0.0),
    dataclasses.replace(setting_preset("setting2"), grid=VisitGrid((48.0,)), c_control=(0.2,),
                        c_experimental=(0.06,)),
    dataclasses.replace(setting_preset("setting2"), theta0=-0.4, beta1=-0.3, baseline_beta_a=0.7,
                        sigma_s2=0.3, washout_weeks=40.0, c_experimental=(0.0, 0.3, 0.1, 0.9)),
], ids=["setting1", "setting2", "equal-effects", "one-visit", "other-law"])
def test_closed_forms_equal_the_exact_truth(params):
    closed = load_checks().preset_closed_form(params)
    exact = exact_truth(params)
    assert closed and set(closed) <= set(exact)
    for name, (mean, var) in closed.items():
        assert abs(exact[name][0] - mean) <= 1e-12 and abs(exact[name][1] - var) <= 1e-12
