"""The trialmi names that the benchmark in ``perfbench/`` reads.

The benchmark traces the functions listed in ``perfbench/tracing.py``'s
``TARGETS`` and reads a few more names directly. Its own suite runs apart
from these tests, so a removed or renamed name is caught here. The list is
read with ``ast.literal_eval``, without importing the benchmark.
"""
import ast
import dataclasses
import importlib
from pathlib import Path

from trialmi import core, imputation
from trialmi.survival import SurvivalModel

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
