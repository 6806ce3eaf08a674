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
model's ``params`` are the parameters, types and defaults of its spec's
constructor (``ChainSpec``, ``HarmonicChainSpec``, ``TransmonSpec``).

Exit codes follow one rule: 0 success; 2 for a ``ValueError``, which is
bad input (config, time grid, matrices, partition or bound arguments); 3
for a ``LeakageError`` or LAPACK's ``LinAlgError``, a computation on valid
input that cannot go on; 4 for a bound violation or a failed invariant.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from inspect import Parameter, signature
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .bloch_solver import ProblemInstance, solve_bloch_series
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
# section, or a one-section list for a list of sections; a MISSING default: required
MISSING = Parameter.empty
_MATRIX = {"dim": (int, MISSING), "entries": ("[re, im]", MISSING)}
_CUSTOM = {"h0": (_MATRIX, MISSING), "v": (_MATRIX, MISSING)}
_MODELS = {"chain": ChainSpec, "harmonic": HarmonicChainSpec, "transmon": TransmonSpec,
           "custom": _CUSTOM}
_PARTITION = {"threshold": (float, None), "intervals": ("[lo, hi]", None)}
_T_GRID = {"t_max": (float, 200.0), "n_points": (int, 2001)}
_OUTPUT = {"path": (str, MISSING), "format": (("json", "csv"), "json"),
           "kind": (("leakage",), "leakage")}
_TOP = {"model": (tuple(_MODELS), MISSING), "params": (dict, {}), "seed": (int, 0),
        "gamma": (float, 1.0), "partition": (_PARTITION, {"threshold": 0.5}),
        "t_grid": (_T_GRID, {}), "outputs": ([_OUTPUT], []), "verify_instances": (int, 100)}


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
    """Model ``params`` read by a section schema, or by the constructor parameters,
    annotated types and defaults of a model spec; the chain's ``seed`` is the config's."""
    if not isinstance(spec, dict):
        spec = {p.name: (p.annotation, p.default)
                for p in signature(spec, eval_str=True).parameters.values() if p.name != "seed"}
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
    if model == "harmonic" and "partition" not in cfg:   # its own bands, as an explicit {}
        rule["threshold"] = None
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


def _run_files(outputs: list, out_dir: Path) -> list:
    """``(resolved path, format)`` of every file a run writes, the ``outputs`` entries and
    then ``summary.json`` with format None, checked before any leakage is computed: each
    resolves to a file under ``out_dir`` that no other entry names, that is not an existing
    directory, that lies below no existing file and no other file of the run, and that the
    process can write (``W_OK`` on it if it exists, else ``W_OK | X_OK`` on the nearest
    existing directory above it; ``X_OK`` on a plain file fails even for root)."""
    root = out_dir.resolve()
    files = [(f"outputs[{i}] 'path' {spec['path']!r}", spec["path"], spec["format"])
             for i, spec in enumerate(outputs)]
    files.append((f"summary.json under --out {str(out_dir)!r}", "summary.json", None))
    taken = {}
    for where, path, _ in files:
        target = (root / path).resolve()
        if Path(path).is_absolute() or root not in target.parents:
            raise ValueError(f"{where} must name a file under --out")
        if target.is_dir() or any(p.exists() and not p.is_dir() for p in target.parents):
            raise ValueError(f"{where} is a directory or lies below a file")
        if not (os.access(target, os.W_OK) if target.exists() else os.access(
                next(p for p in target.parents if p.exists()), os.W_OK | os.X_OK)):
            raise ValueError(f"{where} cannot be written")
        for other, name in taken.items():
            if target == other or other in target.parents or target in other.parents:
                raise ValueError(f"{where} and {name} are one file, or one lies below the other")
        taken[target] = where
    return [(target, fmt) for target, (_, _, fmt) in zip(taken, files)]


def cmd_run(args, inst, config) -> int:
    if inst is None and config["outputs"]:
        raise ValueError("'outputs' needs a matrix model; the transmon has no series to write")
    out_dir = Path(args.out or ".")
    files = _run_files(config["outputs"], out_dir)
    summary: dict = {"config": config}
    if inst is None:
        summary["transmon_leakage_bound"] = transmon_leakage_bound(**config["params"])
        summary["bounds"] = None
        failed = False
    else:
        report = run_leakage_experiment(inst, _time_grid(config["t_grid"]))
        records = None if report.bounds.d_sw_bound is None else check_instance(inst)
        sol = None if report.bounds.epsilon is None else solve_bloch_series(inst)
        summary.update(
            {
                "bounds": report.bounds.to_json(),
                "max_leakage": report.max_leakage,
                "series_order": None if sol is None else sol.order,
                "violations": [list(v) for v in report.violations],
                "invariants": None if records is None else [r.to_json() for r in records],
            }
        )
        failed = bool(report.violations) or not all(r.passed for r in records or ())
    # made after the run, so that one that exits 2 or 3 leaves no directory behind
    for path, fmt in files:  # a transmon run, with no report, writes only the summary
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"{str(path)!r} cannot be written: {exc.strerror}") from None
        path.write_text(report.to_csv() if fmt == "csv" else
                        json.dumps(summary if fmt is None else report.to_json(), indent=2))
    return EXIT_VIOLATION if failed else EXIT_OK


def cmd_verify(args, inst, config) -> int:
    """Checks the model first, so a refused one costs no random draw; its records print last."""
    n_instances = config["verify_instances"]
    if n_instances < 0:
        raise ValueError(f"'verify_instances' must be nonnegative, got {n_instances}")
    model = tuple(check_instance(inst))
    results = run_suite(n_instances, config["seed"]) + model
    worst = {}   # per name, the first record of largest measured - allowed
    for r in results:
        cur = worst.get(r.name)
        if cur is None or r.measured - r.allowed > cur.measured - cur.allowed:
            worst[r.name] = r
    for name, r in sorted(worst.items()):
        print(f"{'PASS' if r.passed else 'FAIL'} {name}: measured {r.measured:.3e} "
              f"allowed {r.allowed:.3e}")
    passed = all(r.passed for r in results)
    print(f"{'PASS' if passed else 'FAIL'} invariant suite ({n_instances + 1} instances)")
    return EXIT_OK if passed else EXIT_VIOLATION


def cmd_bounds(args) -> int:
    triple = (args.v_norm, args.gamma, args.eta)
    if args.x is not None and triple == (None, None, None):
        report = bounds_mod.bound_report(args.x, 1.0, 1.0)
    elif args.x is None and None not in triple:
        report = bounds_mod.bound_report(*triple)
    else:
        raise ValueError("give either --x or all of --v-norm/--gamma/--eta")
    print(json.dumps(report.to_json(), indent=2))
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
        if inst is None and args.command != "run":
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
