"""Command-line front end.

Subcommands map onto the experiment families: ``run`` (one leakage
experiment), ``verify`` (invariant suite), ``bounds`` (scalar formulas),
``model`` (emit matrices), ``sweep`` (gamma scaling).  All randomness
flows from the config seed through labeled sub-streams, so outputs are
deterministic functions of (config, seed).

``main`` reads a config once, through ``build_instance``, and every
subcommand reads the config as read that it returns.  One reader,
``_section``, reads each section: it declares the section's keys with a kind
and a default and rejects any other key, so a misspelled key exits 2.  A
model's ``params`` are the fields, types and defaults of its spec
(``ChainSpec``, ``HarmonicChainSpec``, ``TransmonSpec``).

Exit codes follow one rule: 0 success; 2 for a ``ValueError``, which is
bad input (config, time grid, matrices, partition or bound arguments); 3
for a ``LeakageError`` or LAPACK's ``LinAlgError``, a computation on valid
input that cannot go on; 4 for a bound violation or a failed invariant.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import bounds as bounds_mod
from .bloch_solver import SERIES_TOL_DEFAULT, ProblemInstance, solve_bloch_series
from .dynamics import gamma_scaling_sweep, run_leakage_experiment
from .errors import LeakageError
from .models import (
    ChainSpec,
    HarmonicChainSpec,
    TransmonSpec,
    build_chain,
    build_harmonic_chain,
    transmon_leakage_bound,
)
from .operator_core import OperatorMatrix, herm_eig
from .spectral_partition import partition_by_intervals, partition_by_threshold
from .verification import check_instance, run_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_VIOLATION = 4


def _load_config(path: str):
    """The JSON value in ``path``; ``build_instance`` checks that it is an object."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc


# kinds: a type, a tuple of the allowed values, a shape such as "[lo, hi]" for a
# list of number pairs, each number read as the float field the shape names, a
# section, or a one-section list for a list of sections
_MATRIX = {"dim": (int, MISSING), "entries": ("[re, im]", MISSING)}
_CUSTOM = {"h0": (_MATRIX, MISSING), "v": (_MATRIX, MISSING)}
_MODELS = {"chain": ChainSpec, "harmonic": HarmonicChainSpec, "transmon": TransmonSpec,
           "custom": _CUSTOM}
_PARTITION = {"threshold": (float, None), "intervals": ("[lo, hi]", None)}
_T_GRID = {"t_max": (float, 200.0), "n_points": (int, 2001)}
_TOLERANCES = {"series_tol": (float, SERIES_TOL_DEFAULT)}
_OUTPUT = {"path": (str, MISSING), "format": (("json", "csv"), "json"),
           "kind": (("leakage",), "leakage")}
_TOP = {"model": (tuple(_MODELS), MISSING), "params": (dict, {}), "seed": (int, 0),
        "gamma": (float, 1.0), "partition": (_PARTITION, {"threshold": 0.5}),
        "t_grid": (_T_GRID, {}), "tolerances": (_TOLERANCES, {}),
        "outputs": ([_OUTPUT], []), "verify_instances": (int, 100)}


def _value(val, key: str, kind, where: str):
    """``val`` of ``key`` in section ``where`` read as a ``kind``: an int takes
    only a JSON integer, a float a finite JSON number, and neither a boolean."""
    inner = key if where == "config" else f"{where}.{key}"
    if isinstance(kind, dict):
        return _section(val, inner, kind)
    if isinstance(kind, list):
        return [_section(v, f"{inner}[{i}]", kind[0])
                for i, v in enumerate(_value(val, key, list, where))]
    if isinstance(kind, tuple):
        if val in kind:
            return val
        raise ValueError(f"'{key}' in {where} must be one of {kind}, got {val!r}")
    if isinstance(kind, str):
        if isinstance(val, list) and all(
                isinstance(pair, list) and len(pair) == 2 and all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
                for pair in val):
            names = kind.strip("[]").split(", ")
            return [[_value(v, name, float, f"{inner}[{i}]") for name, v in zip(names, pair)]
                    for i, pair in enumerate(val)]
        raise ValueError(f"'{key}' in {where} must be a list of {kind} number pairs, "
                         f"got {val!r}")
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        try:
            val = float(val)
        except OverflowError:
            raise ValueError(f"'{key}' in {where} must be finite, got an integer "
                             "beyond the float range") from None
    if isinstance(val, bool) or not isinstance(val, kind):
        raise ValueError(f"'{key}' in {where} must be {kind.__name__}, got {val!r}")
    if kind is float and not math.isfinite(val):
        raise ValueError(f"'{key}' in {where} must be finite, got {val!r}")
    return val


def _section(obj, where: str, schema: dict) -> dict:
    """Every key of ``schema`` read from the config section ``where``, which
    must be an object that holds no key ``schema`` does not declare; a key it
    omits takes its default, read as a given value would be."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object, got {obj!r}")
    for key in obj:
        if key not in schema:
            raise ValueError(f"unknown key '{key}' in {where}, which takes "
                             f"{', '.join(schema)}")
    read = {}
    for key, (kind, default) in schema.items():
        if key in obj:
            read[key] = _value(obj[key], key, kind, where)
        elif default is MISSING:
            raise ValueError(f"missing '{key}' in {where}")
        else:
            read[key] = default if default is None else _value(default, key, kind, where)
    return read


def _params(params, spec) -> dict:
    """Model ``params`` read by a section schema, or by the fields, annotated
    types and defaults of a model spec; the chain's ``seed`` is the config's own."""
    if not isinstance(spec, dict):
        types = get_type_hints(spec)
        spec = {f.name: (types[f.name], f.default) for f in fields(spec) if f.name != "seed"}
    return _section(params, "params", spec)


def _matrix(m: dict, where: str) -> OperatorMatrix:
    """The ``custom`` matrix ``m``: ``dim**2`` row-major ``[re, im]`` pairs,
    float64 when every imaginary part is 0 and complex128 otherwise."""
    n, pairs = m["dim"], m["entries"]
    if n < 1:
        raise ValueError(f"'dim' in {where} must be positive, got {n}")
    if len(pairs) != n * n:
        raise ValueError(f"'entries' in {where} must hold dim**2 = {n * n} [re, im] pairs, "
                         f"got {len(pairs)}")
    z = np.array(pairs, dtype=float).view(complex).reshape(n, n)
    return OperatorMatrix(z if z.imag.any() else z.real)


def build_instance(cfg: dict):
    """The model's ``ProblemInstance`` (None for the formula-only transmon) and
    the config as read: every section with its defaults filled in, ``params``
    as the model's spec reads them.

    Every section is read here, also those only some subcommands use, so no
    subcommand runs on a config that holds a key nothing reads.
    """
    config = _section(cfg, "config", _TOP)
    model, rule = config["model"], config["partition"]
    if rule["threshold"] is not None and rule["intervals"] is not None:
        raise ValueError("partition takes 'threshold' or 'intervals', not both")
    config["params"] = params = _params(config["params"], _MODELS[model])
    intervals = rule["intervals"]
    if model == "transmon":
        TransmonSpec(**params)  # checks the values
        return None, config
    if model == "chain":
        h0, v = build_chain(ChainSpec(**params, seed=config["seed"]))
    elif model == "harmonic":
        h0, v, bands = build_harmonic_chain(HarmonicChainSpec(**params))
        intervals = bands if intervals is None else intervals
    else:
        h0, v = (_matrix(m, f"params.{key}") for key, m in params.items())

    eig = herm_eig(h0)
    if rule["threshold"] is not None:
        part = partition_by_threshold(eig, rule["threshold"])
    elif intervals is not None:
        part = partition_by_intervals(eig, intervals)
    else:
        raise ValueError("partition must give 'threshold' or 'intervals'")
    return ProblemInstance(h0, v, config["gamma"], part), config


def _time_grid(t_grid: dict) -> np.ndarray:
    if t_grid["n_points"] < 1:
        raise ValueError(f"t_grid needs n_points >= 1, got {t_grid['n_points']}")
    return np.linspace(0.0, t_grid["t_max"], t_grid["n_points"])


def _output_specs(outputs: list, out_dir: Path) -> list:
    """``(path, format)`` of each ``outputs`` entry, checked before any
    leakage is computed: a ``path`` that resolves to a file under ``out_dir`` other
    than ``summary.json`` and every other entry's file, and that is neither
    a directory nor below an existing file."""
    root = out_dir.resolve()
    taken = {(root / "summary.json").resolve(): "the summary"}
    checked = []
    for i, spec in enumerate(outputs):
        where, path = f"outputs[{i}]", spec["path"]
        target = (root / path).resolve()
        if Path(path).is_absolute() or root not in target.parents:
            raise ValueError(f"{where} 'path' {path!r} must name a file under --out")
        if target.is_dir() or any(p.exists() and not p.is_dir() for p in target.parents):
            raise ValueError(f"{where} 'path' {path!r} is a directory or lies below a file")
        if target in taken:
            raise ValueError(f"{where} 'path' {path!r} is the file of {taken[target]}")
        taken[target] = where
        checked.append((path, spec["format"]))
    return checked


def _write_outputs(specs: list, out_dir: Path, report):
    for name, fmt in specs:
        path = out_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if fmt == "csv":
            path.write_text(report.to_csv())
        else:
            path.write_text(json.dumps(report.to_json(), indent=2))


def _finite_json(report) -> dict:
    """``report.to_json()``, refused with a ``ValueError`` that names its first
    field that is not finite, since JSON cannot carry it."""
    entries = report.to_json()
    for key, val in entries.items():
        if val is not None and not math.isfinite(val):
            raise ValueError(f"bound report field '{key}' is not finite: {val}")
    return entries


def cmd_run(args, inst, config) -> int:
    if inst is None and config["outputs"]:
        raise ValueError("'outputs' needs a matrix model; the transmon has no series to write")
    out_dir = Path(args.out or ".")
    no_dir = f"--out {str(out_dir)!r} cannot be made a directory"
    if any(p.exists() and not p.is_dir() for p in (out_dir, *out_dir.parents)):
        raise ValueError(f"{no_dir}: a file lies at or above it")
    outputs = _output_specs(config["outputs"], out_dir)
    summary: dict = {"config": config}
    exit_code = EXIT_OK
    report = None
    if inst is None:
        summary["transmon_leakage_bound"] = transmon_leakage_bound(**config["params"])
        summary["bounds"] = None
    else:
        series_tol = config["tolerances"]["series_tol"]
        report = run_leakage_experiment(inst, _time_grid(config["t_grid"]), series_tol=series_tol)
        invariants = None
        if report.bounds.d_sw_bound is not None:
            invariants = [r.to_json() for r in check_instance(inst, series_tol=series_tol)]
            if any(not r["passed"] for r in invariants):
                exit_code = EXIT_VIOLATION
        sol = None
        if report.bounds.epsilon is not None:
            sol = solve_bloch_series(inst, tol=series_tol)
        summary.update(
            {
                "bounds": _finite_json(report.bounds),
                "max_leakage": report.max_leakage,
                "series_order": None if sol is None else sol.order,
                "violations": [list(v) for v in report.violations],
                "invariants": invariants,
            }
        )
        if report.violations:
            exit_code = EXIT_VIOLATION
    # made once the run is computed and its bounds are found finite, so a run that
    # exits 2 or 3 leaves no directory
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"{no_dir}: {exc.strerror}") from None
    if report is not None:
        _write_outputs(outputs, out_dir, report)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2))
    return exit_code


def cmd_verify(args, inst, config) -> int:
    extras = [] if inst is None else [inst]
    n_instances = config["verify_instances"]
    if n_instances < 0 or n_instances + len(extras) == 0:
        raise ValueError(f"'verify_instances' = {n_instances} with {len(extras)} model "
                         "instance(s) gives no suite to run")
    suite = run_suite(n_instances=n_instances, seed=config["seed"], extra_instances=extras,
                      series_tol=config["tolerances"]["series_tol"])
    for name, worst in sorted(suite.worst_by_name().items()):
        status = "PASS" if worst.passed else "FAIL"
        print(f"{status} {name}: measured {worst.measured:.3e} allowed {worst.allowed:.3e}")
    print(f"{'PASS' if suite.all_passed else 'FAIL'} invariant suite "
          f"({suite.n_instances} instances)")
    return EXIT_OK if suite.all_passed else EXIT_VIOLATION


def cmd_bounds(args) -> int:
    if args.x is not None:
        report = bounds_mod.bound_report(args.x, 1.0, 1.0)
    elif None not in (args.v_norm, args.gamma, args.eta):
        report = bounds_mod.bound_report(args.v_norm, args.gamma, args.eta)
    else:
        raise ValueError("give either --x or all of --v-norm/--gamma/--eta")
    print(json.dumps(_finite_json(report), indent=2))
    return EXIT_OK


def cmd_model(args, inst, config) -> int:
    targets = {"h0": inst.h0, "v": inst.v, "partition": inst.partition}
    out = {}
    for w in (w.strip() for w in args.emit.split(",")):
        if w not in targets:
            raise ValueError(f"unknown emit target '{w}'")
        out[w] = targets[w].to_json()
    print(json.dumps(out))
    return EXIT_OK


def cmd_sweep(args, inst, config) -> int:
    gammas = [float(g) for g in args.gamma_list.split(",")]
    result = gamma_scaling_sweep(inst, gammas, _time_grid(config["t_grid"]))
    print(json.dumps(result.to_json(), indent=2))
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leakage",
        description="Eternal leakage bounds for gapped perturbed Hamiltonians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a leakage experiment from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="evaluate the scalar bound formulas")
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--v-norm", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)

    p = sub.add_parser("model", help="emit model matrices as JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--emit", default="h0,v")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("sweep", help="gamma scaling sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--gamma-list", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.command == "bounds":
            return cmd_bounds(args)
        cfg = _load_config(args.config)
        inst, config = build_instance(cfg)
        if inst is None and args.command in ("model", "sweep"):
            raise ValueError(f"{args.command} needs a matrix model, not the transmon")
        return args.func(args, inst, config)
    except (LeakageError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, but LAPACK not converging is no input error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
