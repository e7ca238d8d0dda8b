"""Command-line front end: simulation runs, truth computation, and analysis
of ingested trial datasets.

Subcommands
-----------
simulate   run a replicated simulation plan, write metrics/scenarios/truth CSVs
analyze    apply the imputation methods to a dataset CSV, write pooled estimates
truth      compute the complete-data truth values only

Dataset CSV (one row per subject, each column named once): ``id, arm, baseline,
y<week>..., disc_week, withdraw_week, withdraw_type``; the ``y<week>`` columns
declare the visit grid (e.g. y12,y24,y36,y48). Blank lines are skipped. A line
that starts with ``#`` is a comment only before the header: after it, every line
is a subject row, read or rejected, so an id may start with ``#``. An empty cell
is the only missing value: a cell that is not a number, reads as NaN, or is not
an arm (0/1) or a withdraw_type (admin/other) is an error naming its file line.
Validation then reports range and consistency rules per subject, such as a
finite baseline, weeks within the study and a withdraw_type with each
withdraw_week.

Config file (``--config``, JSON): sections and the commands that use them;
flags override the file, and a key a command does not use is an error.
  gen         any GenParams field (simulate, truth)
  imputation  m, min_donor_pool, mar_conditioning (simulate, analyze)
  plan        seed (all), preset and truth_n_datasets (simulate, truth),
              methods and ci_level (simulate, analyze), n_replicates, workers
Each value takes its dataclass field's type, so a string such as "5" for a
number, or a null where the field cannot be None, is an error. Each flag sets
the key its help shows: --m-imputations sets imputation.m and the others plan
keys (--reps n_replicates, --truth-datasets and --n-datasets
truth_n_datasets, --level ci_level). A plan setting left unset takes
SimPlan's default, or for workers $TRIALMI_WORKERS when that is set.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .core import (ADMIN_WITHDRAWAL, NO_TYPE, OTHER_WITHDRAWAL, TrialDataset, VisitGrid,
                   validate_dataset)
from .datagen import GenParams, generate_truth, setting_preset
from .errors import ConfigError, TrialMIError, ValidationError
from .imputation import METHODS, ImputationConfig
from .imputation import impute_matrix  # noqa: F401 - re-exported
from .simharness import SimPlan, analyze_dataset, run_plan

WORKERS_ENV = "TRIALMI_WORKERS"

#: Config keys per section, each with the type its value takes; a flag's dest is its key.
_SETTINGS = {"gen": get_type_hints(GenParams),
             "imputation": {k: t for k, t in get_type_hints(ImputationConfig).items()
                            if k not in ("method", "seed")},
             "plan": {"preset": str, **{k: t for k, t in get_type_hints(SimPlan).items()
                                        if k not in ("params", "imputation")}}}
#: Config sections and keys each command does not use, and so rejects.
_UNUSED = {"simulate": set(),
           "analyze": {"gen", "plan.preset", "plan.n_replicates", "plan.workers", "plan.truth_n_datasets"},
           "truth": {"imputation", "plan.methods", "plan.n_replicates", "plan.workers", "plan.ci_level"}}


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # input errors exit with code 1
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="trialmi", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    every, gen, imputation = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    every.add_argument("--config", type=Path, help="JSON config file")
    every.add_argument("--seed", type=int, help="master seed")
    every.add_argument("--out", type=Path, default=Path("."), help="output directory")
    gen.add_argument("--preset", choices=["setting1", "setting2"], help="parameter preset")
    imputation.add_argument("--methods", type=str, help="comma-separated subset of A,B,C,D")
    imputation.add_argument("--m-imputations", dest="m", type=int, help="imputations per method")
    imputation.add_argument("--level", dest="ci_level", type=float, help="confidence level")

    sim = sub.add_parser("simulate", parents=[every, gen, imputation],
                         help="run a replicated simulation plan")
    sim.add_argument("--reps", dest="n_replicates", type=int, help="number of replicates")
    sim.add_argument("--workers", type=int, help=f"worker processes (default ${WORKERS_ENV} or 1)")
    sim.add_argument("--truth-datasets", dest="truth_n_datasets", type=int,
                     help="datasets for the truth oracle")
    ana = sub.add_parser("analyze", parents=[every, imputation], help="apply the methods to a dataset CSV")
    ana.add_argument("dataset", type=Path, help="subject-level CSV")
    tru = sub.add_parser("truth", parents=[every, gen], help="compute complete-data truth values")
    tru.add_argument("--n-datasets", dest="truth_n_datasets", type=int, help="number of complete datasets")
    return parser


# ---------------------------------------------------------------------------
# configuration


def _load_config(path: Optional[Path], command: str) -> dict:
    if path is None:
        return {}
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    for section, body in doc.items():
        if section not in _SETTINGS:
            raise ConfigError(f"{path}: unknown section {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"{path}: section {section!r} must be an object")
        if section in _UNUSED[command]:
            raise ConfigError(f"{path}: {command} does not use section {section!r}")
        for key in body:
            if key not in _SETTINGS[section]:
                raise ConfigError(f"{path}: unknown key {section}.{key}")
            if f"{section}.{key}" in _UNUSED[command]:
                raise ConfigError(f"{path}: {command} does not use {section}.{key}")
    return doc


def _typed(kind, value, name: str):
    """A config setting as its dataclass field's type ``kind``: a list becomes
    a tuple of numbers (a VisitGrid for a grid), cast per element; a string
    setting, or the methods (parsed as the flag is), passes as it is, for its
    dataclass to check; a ConfigError names the setting."""
    if str in (kind, *get_args(kind)):
        return value
    if kind is VisitGrid or get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
        items = tuple(_cast(v, float, f"{name}[{i}]") for i, v in enumerate(value))
        return VisitGrid(times=items) if kind is VisitGrid else items
    if value is None and type(None) in get_args(kind):
        return None
    return _cast(value, int if kind is int else float, name)


def _cast(value, kind: type, name: str):
    """``value`` as an int or a finite float, or a ConfigError that names the
    setting. A JSON true or false, a string, NaN or Infinity is not a number here."""
    try:
        if isinstance(value, (bool, str)):
            raise TypeError
        out = kind(value)
        if (kind is int and out != float(value)) or not math.isfinite(out):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}") from None
    return out


def _parse_methods(value) -> tuple[str, ...]:
    """The methods a flag's string or a config value names: a string is split
    at commas; a config list names one method per entry."""
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
    else:
        parts = value if isinstance(value, list) else []
    methods = tuple(str(m).strip().upper() for m in parts)
    if not methods or any(m not in METHODS for m in methods):
        raise ConfigError(f"methods must be a nonempty subset of {','.join(METHODS)}; got {value!r}")
    if len(set(methods)) != len(methods):
        raise ConfigError(f"methods must not repeat; got {value!r}")
    return methods


def _settings(args) -> tuple[SimPlan, str]:
    """The command's plan and preset name: each config section's values cast
    to their fields' types, the flags on top, $TRIALMI_WORKERS under an unset
    worker count, and the preset's GenParams, ImputationConfig's and
    SimPlan's defaults beneath."""
    config, values = _load_config(args.config, args.command), {}
    for section, kinds in _SETTINGS.items():
        values[section] = {k: _typed(kinds[k], v, f"{section}.{k}")
                           for k, v in config.get(section, {}).items()}
        values[section].update((k, v) for k, v in vars(args).items() if k in kinds and v is not None)
    gen, imputation, plan = values.values()
    env = os.environ.get(WORKERS_ENV)
    if args.command == "simulate" and env and "workers" not in plan:
        try:
            plan["workers"] = int(env)  # the variable is text, unlike a JSON setting
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    if "methods" in plan:
        plan["methods"] = _parse_methods(plan["methods"])
    preset = plan.pop("preset", "setting1")
    return SimPlan(params=dataclasses.replace(setting_preset(preset), **gen),
                   imputation=ImputationConfig(method=METHODS[0], **imputation), **plan), preset


# ---------------------------------------------------------------------------
# output files


def _params_dict(params: GenParams) -> dict:
    out = dataclasses.asdict(params)
    out["grid"] = list(params.grid.times)
    return out


def _manifest_id(identity: dict) -> str:
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_manifest(out_dir: Path, identity: dict, execution: dict) -> str:
    out_dir.mkdir(parents=True, exist_ok=True)
    mid = _manifest_id(identity)
    doc = {"manifest_id": mid, "package": "trialmi", "version": __version__,
           "identity": identity, "execution": execution}
    (out_dir / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                           encoding="utf-8")
    return mid


def _write_csv(path: Path, manifest_id: str, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# manifest={manifest_id}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_truth_csv(out_dir: Path, manifest_id: str, truth) -> None:
    rows = [["control", _fmt(truth.mean_control), truth.n_datasets],
            ["treatment", _fmt(truth.mean_treatment), truth.n_datasets],
            ["difference", _fmt(truth.difference), truth.n_datasets]]
    _write_csv(out_dir / "truth.csv", manifest_id, ["estimand", "value", "n_datasets"], rows)


# ---------------------------------------------------------------------------
# dataset CSV ingestion


def _float(text: str) -> Optional[float]:
    """``float(text)``, or None where the text is not a number."""
    try:
        return float(text)
    except ValueError:
        return None


def read_dataset_csv(path: Path) -> TrialDataset:
    """Parse a subject-level UTF-8 CSV into a dataset's arrays, an empty
    cell as NaN (or ``NO_TYPE``). A ValidationError names the file line of
    each fault an array cannot hold, or says the file holds no subject row;
    the dataset's rules are ``validate_dataset``'s."""
    try:
        raw = Path(path).read_bytes()
        reader = csv.reader(io.StringIO(raw.decode("utf-8"), newline=""))
        rows = [(reader.line_num, r) for r in reader if r]
    except OSError as exc:
        raise ValidationError(f"cannot read dataset {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # named by its line, counted as the csv reader counts
        raise ValidationError(f"{path}: line {len((raw[:exc.start] + b'x').splitlines())}: "
                              f"not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from exc
    # Comments end at the header: every later row is a subject row, whatever its first cell.
    start = next((i for i, (_, r) in enumerate(rows) if not r[0].startswith("#")), len(rows))
    if start == len(rows):
        raise ValidationError(f"{path}: empty file")
    (line, header), body = rows[start], rows[start + 1:]
    header = [h.strip() for h in header]
    required = ("id", "arm", "baseline", "disc_week", "withdraw_week", "withdraw_type")
    faults = [f"missing column {name!r}" for name in required if name not in header]
    faults += [f"repeated column {name!r}" for i, name in enumerate(header) if name in header[:i]]
    weeks = {name: _float(name[1:]) for name in header if name.startswith("y")}
    visits = [name for name, week in weeks.items() if week is not None]
    try:
        grid = VisitGrid(times=tuple(weeks[name] for name in visits))
    except ValidationError as exc:
        faults.append(str(exc) if visits else "no visit columns (y<week>) found in header")
    if faults:
        raise ValidationError(f"{path}: line {line}: " + "; ".join(faults))
    if wrong := [f"line {n}: expected {len(header)} fields, got {len(r)}"
                 for n, r in body if len(r) != len(header)]:
        raise ValidationError("\n".join(wrong))
    if not body:
        raise ValidationError(f"{path}: no subject rows")
    lines, cells = zip(*body)
    columns = {name: [c.strip() for c in texts] for name, texts in zip(header, zip(*cells))}
    problems: list[tuple[int, str]] = []  # (file line, message) per cell an array cannot hold

    def numbers(name: str) -> Optional[np.ndarray]:
        texts = columns[name]
        try:
            values = np.array([float(t) if t else math.nan for t in texts])
            if np.isnan(values).sum() == texts.count(""):  # only an empty cell is missing
                return values
        except ValueError:
            pass
        for n, subject, t in zip(lines, columns["id"], texts):
            if t and (value := _float(t)) is None:
                problems.append((n, f"line {n}: {name} {t!r} is not a number"))
            elif t and math.isnan(value):
                problems.append((n, f"subject {subject}: line {n}: {name} {t!r} is NaN, not an empty cell"))

    def codes(name: str, words: dict[str, int], expected: str) -> Optional[np.ndarray]:
        try:
            return np.array([words[t.lower()] for t in columns[name]])
        except KeyError:
            problems.extend((n, f"line {n}: {name} must be {expected}, got {t!r}")
                            for n, t in zip(lines, columns[name]) if t.lower() not in words)

    arm = codes("arm", {"0": 0, "1": 1}, "0 or 1")
    baseline, y = numbers("baseline"), [numbers(name) for name in visits]
    disc, withdraw = numbers("disc_week"), numbers("withdraw_week")
    kind = codes("withdraw_type", {"admin": ADMIN_WITHDRAWAL, "other": OTHER_WITHDRAWAL, "": NO_TYPE},
                 "admin/other/empty")
    if problems:
        raise ValidationError("\n".join(msg for _, msg in sorted(problems, key=lambda p: p[0])))
    return TrialDataset(grid, tuple(columns["id"]), arm, baseline, np.column_stack(y), disc, withdraw, kind)


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args) -> int:
    plan, preset = _settings(args)
    table = run_plan(plan)

    identity = {"command": "simulate", "preset": preset, "params": _params_dict(plan.params),
                "plan": {"n_replicates": plan.n_replicates, "methods": list(plan.methods),
                         "seed": plan.seed, "truth_n_datasets": plan.truth_n_datasets,
                         "ci_level": plan.ci_level,
                         "imputation": {k: getattr(plan.imputation, k) for k in _SETTINGS["imputation"]}}}
    mid = _write_manifest(args.out, identity, {"workers": plan.workers,
                                              "n_excluded": table.n_excluded})
    _write_csv(args.out / "metrics.csv", mid, ["method", "estimand", "BIAS", "ESE", "ASE", "CP"],
               [[r.method, r.estimand, _fmt(r.bias), _fmt(r.ese), _fmt(r.ase), _fmt(r.cp)]
                for r in table.rows])
    arm_name = {0: "control", 1: "treatment"}
    _write_csv(args.out / "scenarios.csv", mid, ["arm", "scenario", "mean_count", "mean_pct"],
               [[arm_name[arm], label.name, _fmt(cnt), _fmt(pct)]
                for (arm, label), (cnt, pct) in table.scenario_summary.items()])
    _write_truth_csv(args.out, mid, table.truth)
    print(f"wrote metrics.csv, scenarios.csv, truth.csv, manifest.json to {args.out}"
          f" ({table.n_replicates} replicates, {table.n_excluded} excluded)")
    return 0


def cmd_truth(args) -> int:
    plan, preset = _settings(args)
    truth = generate_truth(plan.params, plan.truth_n_datasets, plan.seed)
    identity = {"command": "truth", "preset": preset, "params": _params_dict(plan.params),
                "seed": plan.seed, "n_datasets": plan.truth_n_datasets}
    mid = _write_manifest(args.out, identity, {})
    _write_truth_csv(args.out, mid, truth)
    print(f"wrote truth.csv to {args.out}")
    return 0


def cmd_analyze(args) -> int:
    plan, _ = _settings(args)
    dataset = read_dataset_csv(args.dataset)
    violations = validate_dataset(dataset)
    if violations:
        for v in violations:
            print(f"error: subject {v.subject_id}: {v.message}", file=sys.stderr)
        return 1
    pooled, events = analyze_dataset(dataset, dataclasses.replace(plan.imputation, seed=plan.seed),
                                     plan.methods, plan.ci_level)
    rows = [[method, estimand, _fmt(p.point), _fmt(math.sqrt(p.total)), _fmt(p.ci_low), _fmt(p.ci_high)]
            for method, by_estimand in pooled.items() for estimand, p in by_estimand.items()]

    identity = {"command": "analyze",
                "dataset_sha256": hashlib.sha256(args.dataset.read_bytes()).hexdigest(),
                "methods": list(plan.methods), "seed": plan.seed, "ci_level": plan.ci_level,
                "imputation": {k: getattr(plan.imputation, k) for k in _SETTINGS["imputation"]}}
    mid = _write_manifest(args.out, identity, {"fallback_events": events})
    _write_csv(args.out / "estimates.csv", mid,
               ["method", "estimand", "estimate", "se", "ci_low", "ci_high"], rows)
    print(f"wrote estimates.csv to {args.out}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    handlers = {"simulate": cmd_simulate, "analyze": cmd_analyze, "truth": cmd_truth}
    try:
        return handlers[args.command](args)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrialMIError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
