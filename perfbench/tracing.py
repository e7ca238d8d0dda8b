"""Span tracing at trialmi's public layer boundaries, from outside the program.

``Tracer.install`` replaces each traced public function with a wrapper that
records a span (name, start, end, parent). The wrapper goes into every
``trialmi`` module namespace that holds the function, so calls made through
names imported with ``from .x import f`` are traced too. Spans are kept in
flat arrays while the run goes on; self time (a span minus its child spans)
is worked out once, at the end.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

from checks import check_imputed

#: (module, public function, span name). impute_matrix spans are named per
#: method, as ``imputation.impute_matrix.<method>``.
TARGETS = (
    ("trialmi.cli", "main", "cli.main"),
    ("trialmi.cli", "read_dataset_csv", "cli.read_dataset_csv"),
    ("trialmi.simharness", "run_plan", "simharness.run_plan"),
    ("trialmi.datagen", "generate_trial", "datagen.generate_trial"),
    ("trialmi.datagen", "generate_truth", "datagen.generate_truth"),
    ("trialmi.core", "validate_dataset", "core.validate_dataset"),
    ("trialmi.core", "classify_scenario", "core.classify_scenario"),
    ("trialmi.imputation", "impute_matrix", "imputation.impute_matrix"),
    ("trialmi.imputation", "fit_donor_model", "imputation.fit_donor_model"),
    ("trialmi.imputation", "posterior_draws", "imputation.posterior_draws"),
    ("trialmi.survival", "build_sample", "survival.build_sample"),
    ("trialmi.survival", "fit_survival", "survival.fit_survival"),
    ("trialmi.survival", "prob_disc_before_end", "survival.prob_disc_before_end"),
    ("trialmi.estimation", "estimate_matrix", "estimation.estimate_matrix"),
    ("trialmi.estimation", "pool_rubin", "estimation.pool_rubin"),
    ("trialmi._streams", "substream", "streams.substream"),
)
#: Span of the benchmark's own reading of a traced call's result.
HOOK_SPAN = "perfbench.after_call"


class Tracer:
    """Records spans and the counts read from traced calls' results."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.failures: list[str] = []
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, span: str, after=None, name_of=None):
        """``fn`` inside a span. ``after(args, result)`` reads the result in
        a span of its own, so that the benchmark's work there is kept out of
        the self time of the caller's span."""
        fixed, hook_id = self._id(span), self._id(HOOK_SPAN)
        stack, start, end = self._stack, self.start, self.end
        name_id, parent, clock = self.name_id, self.parent, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(fixed if name_of is None else self._id(name_of(args, kwargs)))
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                hook = len(start)
                name_id.append(hook_id)
                parent.append(stack[-1] if stack else -1)
                end.append(0.0)
                start.append(clock())
                after(args, result)
                end[hook] = clock()
            return result
        return traced

    def _after_fit_survival(self, args, model) -> None:
        self.counts["survival.fit_survival.iterations"] = (
            self.counts.get("survival.fit_survival.iterations", 0) + int(model.iterations))
        self.counts["survival.fit_survival.km_fallbacks"] = (
            self.counts.get("survival.fit_survival.km_fallbacks", 0) + bool(model.separation_fallback))

    def _after_impute(self, args, result) -> None:
        self.failures.extend(check_imputed(args[0], result.endpoints))

    def install(self) -> None:
        """Wrap every target in every loaded trialmi module that holds it."""
        if not self._patches:
            self._find_patches()
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _find_patches(self) -> None:
        import trialmi.cli  # noqa: F401 - loads every traced module

        def method_of(args, kwargs):
            cfg = args[1] if len(args) > 1 else kwargs["cfg"]
            return f"imputation.impute_matrix.{cfg.method}"

        hooks = {"survival.fit_survival": {"after": self._after_fit_survival},
                 "imputation.impute_matrix": {"after": self._after_impute, "name_of": method_of}}
        modules = [m for n, m in sys.modules.items() if n == "trialmi" or n.startswith("trialmi.")]
        for module_name, attr, span in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if not callable(original):
                self.absent.append(span)
                continue
            wrapper = self._wrap(original, span, **hooks.get(span, {}))
            self._patches += [(module, attr, original, wrapper) for module in modules
                              if getattr(module, attr, None) is original]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms and self ms (total minus child spans)."""
        ids = np.array(self.name_id, dtype=np.intp)
        parent = np.array(self.parent, dtype=np.intp)
        dur = (np.array(self.end) - np.array(self.start)) * 1e3
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        self_ms = np.bincount(ids, weights=dur - child, minlength=k)
        return {name: {"calls": int(calls[i]), "ms": float(total[i]), "self_ms": float(self_ms[i])}
                for i, name in enumerate(self.names)}
