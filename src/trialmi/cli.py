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
Numeric settings are JSON numbers; a string such as "5" is an error.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
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

_PLAN_KEYS = {"preset", "n_replicates", "methods", "seed", "workers",
              "truth_n_datasets", "ci_level"}
_IMPUTATION_TYPES = get_type_hints(ImputationConfig)
_IMPUTATION_KEYS = set(_IMPUTATION_TYPES) - {"method", "seed"}
_GEN_TYPES = get_type_hints(GenParams)
_GEN_KEYS = set(_GEN_TYPES)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trialmi", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, help="JSON config file")
        p.add_argument("--preset", choices=["setting1", "setting2"], help="parameter preset")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")

    sim = sub.add_parser("simulate", help="run a replicated simulation plan")
    common(sim)
    sim.add_argument("--reps", type=int, help="number of replicates")
    sim.add_argument("--methods", type=str, help="comma-separated subset of A,B,C,D")
    sim.add_argument("--m-imputations", type=int, help="imputations per replicate")
    sim.add_argument("--workers", type=int, help=f"worker processes (default ${WORKERS_ENV} or 1)")
    sim.add_argument("--truth-datasets", type=int, help="datasets for the truth oracle")
    sim.add_argument("--level", type=float, help="confidence level")

    ana = sub.add_parser("analyze", help="apply the methods to a dataset CSV")
    ana.add_argument("dataset", type=Path, help="subject-level CSV")
    ana.add_argument("--methods", type=str, help="comma-separated subset of A,B,C,D")
    ana.add_argument("--m-imputations", type=int, help="imputations per method")
    ana.add_argument("--seed", type=int, help="master seed")
    ana.add_argument("--level", type=float, help="confidence level")
    ana.add_argument("--config", type=Path, help="JSON config file (plan and imputation sections)")
    ana.add_argument("--out", type=Path, default=Path("."))

    tru = sub.add_parser("truth", help="compute complete-data truth values")
    common(tru)
    tru.add_argument("--n-datasets", type=int, help="number of complete datasets")
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
    allowed = {"gen": _GEN_KEYS, "imputation": _IMPUTATION_KEYS, "plan": _PLAN_KEYS}
    for section, body in doc.items():
        if section not in allowed:
            raise ConfigError(f"{path}: unknown section {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"{path}: section {section!r} must be an object")
        if section in _UNUSED[command]:
            raise ConfigError(f"{path}: {command} does not use section {section!r}")
        for key in body:
            if key not in allowed[section]:
                raise ConfigError(f"{path}: unknown key {section}.{key}")
            if f"{section}.{key}" in _UNUSED[command]:
                raise ConfigError(f"{path}: {command} does not use {section}.{key}")
    return doc


def _typed(kind, value, name: str):
    """A config setting as its dataclass field's type ``kind``: a list becomes
    a tuple of numbers (a VisitGrid for a grid), cast per element; a string
    setting passes as it is, for its dataclass to check; a ConfigError names
    the setting."""
    if kind is str:
        return value
    if kind is VisitGrid or get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
        items = tuple(_cast(v, float, f"{name}[{i}]") for i, v in enumerate(value))
        return VisitGrid(times=items) if kind is VisitGrid else items
    if value is None and type(None) in get_args(kind):
        return None
    return _cast(value, int if kind is int else float, name)


def _resolve_gen_params(config: dict, preset_flag: Optional[str]) -> tuple[GenParams, str]:
    preset = preset_flag or config.get("plan", {}).get("preset") or "setting1"
    params = setting_preset(preset)
    overrides = {key: _typed(_GEN_TYPES[key], value, f"gen.{key}")
                 for key, value in config.get("gen", {}).items()}
    if overrides:
        params = dataclasses.replace(params, **overrides)
    return params, preset


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


def _pick(args_value, config: dict, section: str, key: str, default, kind: type):
    """The flag's value, else the config's cast to ``kind``, else the default."""
    if args_value is not None:
        return args_value
    value = config.get(section, {}).get(key)
    return default if value is None else _cast(value, kind, f"{section}.{key}")


def _workers(args, config: dict) -> int:
    workers = _pick(getattr(args, "workers", None), config, "plan", "workers", None, int)
    if workers is not None:
        return workers
    env = os.environ.get(WORKERS_ENV)
    try:
        return int(env) if env else 1  # the variable is text, unlike a JSON setting
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None


def _imputation_config(config: dict, m_flag: Optional[int]) -> ImputationConfig:
    """The imputation settings: --m-imputations, else the config's imputation
    section, else the ImputationConfig defaults. Method and seed are set per
    run."""
    values = {k: _typed(_IMPUTATION_TYPES[k], v, f"imputation.{k}")
              for k, v in config.get("imputation", {}).items() if v is not None}
    if m_flag is not None:
        values["m"] = m_flag
    return ImputationConfig(method=METHODS[0], **values)


def _imputation_identity(cfg: ImputationConfig) -> dict:
    """Every imputation setting, for the manifest identity."""
    return {k: v for k, v in dataclasses.asdict(cfg).items() if k in _IMPUTATION_KEYS}


def _parse_methods(text: Optional[str], config: dict) -> tuple[str, ...]:
    """--methods, else plan.methods, else every method. A string is split at
    commas, as the flag is; a config list names one method per entry."""
    value = text if text is not None else config.get("plan", {}).get("methods")
    if value is None:
        return METHODS
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
    config = _load_config(args.config, args.command)
    params, preset = _resolve_gen_params(config, args.preset)
    methods = _parse_methods(args.methods, config)
    plan = SimPlan(
        params=params,
        n_replicates=_pick(args.reps, config, "plan", "n_replicates", 100, int),
        methods=methods,
        imputation=_imputation_config(config, args.m_imputations),
        seed=_pick(args.seed, config, "plan", "seed", 0, int),
        workers=_workers(args, config),
        truth_n_datasets=_pick(args.truth_datasets, config, "plan", "truth_n_datasets", 20000, int),
        ci_level=_pick(args.level, config, "plan", "ci_level", 0.95, float),
    )
    table = run_plan(plan)

    identity = {"command": "simulate", "preset": preset, "params": _params_dict(params),
                "plan": {"n_replicates": plan.n_replicates, "methods": list(plan.methods),
                         "seed": plan.seed, "truth_n_datasets": plan.truth_n_datasets,
                         "ci_level": plan.ci_level,
                         "imputation": _imputation_identity(plan.imputation)}}
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
    config = _load_config(args.config, args.command)
    params, preset = _resolve_gen_params(config, args.preset)
    seed = _pick(args.seed, config, "plan", "seed", 0, int)
    n_datasets = _pick(args.n_datasets, config, "plan", "truth_n_datasets", 20000, int)
    truth = generate_truth(params, n_datasets, seed)
    identity = {"command": "truth", "preset": preset, "params": _params_dict(params),
                "seed": seed, "n_datasets": n_datasets}
    mid = _write_manifest(args.out, identity, {})
    _write_truth_csv(args.out, mid, truth)
    print(f"wrote truth.csv to {args.out}")
    return 0


def cmd_analyze(args) -> int:
    config = _load_config(args.config, args.command)
    methods = _parse_methods(args.methods, config)
    seed = _pick(args.seed, config, "plan", "seed", 0, int)
    level = _pick(args.level, config, "plan", "ci_level", 0.95, float)
    if not 0 < level < 1:
        raise ConfigError(f"ci_level must lie in (0, 1), got {level!r}")
    imputation = _imputation_config(config, args.m_imputations)
    dataset = read_dataset_csv(args.dataset)
    violations = validate_dataset(dataset)
    if violations:
        for v in violations:
            print(f"error: subject {v.subject_id}: {v.message}", file=sys.stderr)
        return 1
    pooled, events = analyze_dataset(dataset, dataclasses.replace(imputation, seed=seed), methods, level)
    rows = [[method, estimand, _fmt(p.point), _fmt(math.sqrt(p.total)), _fmt(p.ci_low), _fmt(p.ci_high)]
            for method, by_estimand in pooled.items() for estimand, p in by_estimand.items()]

    identity = {"command": "analyze",
                "dataset_sha256": hashlib.sha256(args.dataset.read_bytes()).hexdigest(),
                "methods": list(methods), "seed": seed, "ci_level": level,
                "imputation": _imputation_identity(imputation)}
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
