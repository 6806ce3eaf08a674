"""Command-line front end.

Subcommands map onto the experiment families: ``run`` (one leakage
experiment), ``verify`` (invariant suite), ``bounds`` (scalar formulas),
``model`` (emit matrices), ``sweep`` (gamma scaling).  All randomness
flows from the config seed through labeled sub-streams, so outputs are
deterministic functions of (config, seed).

Exit codes: 0 success, 2 invalid input (config, time grid, matrices,
partition or bound arguments), 3 convergence or numerical failure
(LAPACK's included), 4 bound violation or failed invariant.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .bloch_solver import ProblemInstance, solve_bloch_series
from .dynamics import gamma_scaling_sweep, run_leakage_experiment
from .errors import ConfigInvalid, InvalidInput, LeakageError
from .models import (
    ChainSpec,
    HarmonicChainSpec,
    TransmonSpec,
    build_chain,
    build_harmonic_chain,
)
from .operator_core import OperatorMatrix, herm_eig
from .spectral_partition import partition_by_intervals, partition_by_threshold
from .verification import check_instance, run_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_VIOLATION = 4
OUTPUT_FORMATS = ("json", "csv")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}", operation="run") from exc
    if not isinstance(cfg, dict) or "model" not in cfg:
        raise ConfigInvalid("config must be an object with a 'model' field", operation="run")
    return cfg


def _require(cfg: dict, key: str, kind, where: str):
    """``cfg[key]`` as a ``kind``: an int field takes only a JSON integer, a
    float field a finite integer or float, and neither takes a boolean."""
    if key not in cfg:
        raise ConfigInvalid(f"missing '{key}' in {where}", operation="run")
    val = cfg[key]
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if isinstance(val, bool) or not isinstance(val, kind):
        raise ConfigInvalid(f"'{key}' in {where} must be {kind.__name__}, got {val!r}",
                            operation="run")
    if kind is float and not np.isfinite(val):
        raise ConfigInvalid(f"'{key}' in {where} must be finite, got {val!r}",
                            operation="run")
    return val


def _optional(cfg: dict, key: str, kind, where: str, default):
    return _require(cfg, key, kind, where) if key in cfg else default


def _number_pairs(cfg: dict, key: str, where: str, shape: str) -> list:
    """``cfg[key]`` as a list of two-element lists of JSON numbers."""
    pairs = _require(cfg, key, list, where)
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2 and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)):
            raise ConfigInvalid(f"'{key}' in {where} must be a list of {shape} number "
                                f"pairs, got {pair!r}", operation="run")
    return pairs


def _matrix(params: dict, key: str) -> OperatorMatrix:
    """``params[key]`` in the matrix encoding of ``OperatorMatrix.to_json``:
    a positive integer ``dim`` and ``entries`` as ``[re, im]`` pairs."""
    where = f"params.{key}"
    obj = _require(params, key, dict, "params")
    dim = _require(obj, "dim", int, where)
    if dim < 1:
        raise ConfigInvalid(f"'dim' in {where} must be positive, got {dim}", operation="run")
    _number_pairs(obj, "entries", where, "[re, im]")
    return OperatorMatrix.from_json(obj)


def build_instance(cfg: dict):
    """Model matrices + partition from a config; None for formula-only models."""
    model = cfg["model"]
    params = _optional(cfg, "params", dict, "config", {})
    seed = _optional(cfg, "seed", int, "config", 0)
    gamma = _optional(cfg, "gamma", float, "config", 1.0)
    if model == "transmon":
        return None, TransmonSpec(
            ej_over_ec=_require(params, "ej_over_ec", float, "params"),
            transparency_d=_require(params, "transparency_d", float, "params"),
        )
    if model == "chain":
        spec = ChainSpec(
            n_cells=_require(params, "n_cells", int, "params"),
            g1=_optional(params, "g1", float, "params", 1.0),
            g2=_optional(params, "g2", float, "params", 1.5),
            g3=_optional(params, "g3", float, "params", 2.0),
            disorder_strength=_optional(params, "disorder_strength", float, "params", 0.01),
            seed=seed,
        )
        h0, v = build_chain(spec)
        hint_intervals = None
    elif model == "harmonic":
        spec = HarmonicChainSpec(
            n_sites=_require(params, "n_sites", int, "params"),
            omega=_optional(params, "omega", float, "params", 10.0),
            g=_optional(params, "g", float, "params", 1.0),
            fock_cutoff=_optional(params, "fock_cutoff", int, "params", 3),
            v0=_optional(params, "v0", float, "params", 0.0),
        )
        h0, v, hint_intervals = build_harmonic_chain(spec)
    elif model == "custom":
        h0, v = _matrix(params, "h0"), _matrix(params, "v")
        hint_intervals = None
    else:
        raise ConfigInvalid(f"unknown model '{model}'", operation="run")

    part_cfg = _optional(cfg, "partition", dict, "config", {"threshold": 0.5})
    eig = herm_eig(h0)
    if "threshold" in part_cfg:
        part = partition_by_threshold(eig, _require(part_cfg, "threshold", float, "partition"))
    elif "intervals" in part_cfg:
        part = partition_by_intervals(
            eig, _number_pairs(part_cfg, "intervals", "partition", "[lo, hi]"))
    elif hint_intervals is not None:
        part = partition_by_intervals(eig, hint_intervals)
    else:
        raise ConfigInvalid("partition must give 'threshold' or 'intervals'", operation="run")
    return ProblemInstance(h0, v, gamma, part), None


def _time_grid(cfg: dict) -> np.ndarray:
    tg = _optional(cfg, "t_grid", dict, "config", {})
    t_max = _optional(tg, "t_max", float, "t_grid", 200.0)
    n_points = _optional(tg, "n_points", int, "t_grid", 2001)
    if n_points < 1:
        raise ConfigInvalid(f"t_grid needs n_points >= 1, got {n_points}", operation="run")
    return np.linspace(0.0, t_max, n_points)


def _series_tol(cfg: dict) -> float:
    tolerances = _optional(cfg, "tolerances", dict, "config", {})
    return _optional(tolerances, "series_tol", float, "tolerances", 1e-12)


def _output_specs(cfg: dict, out_dir: Path) -> list:
    """``(path, format)`` of each ``outputs`` entry, checked before any
    computation: a non-empty relative string ``path`` that resolves to a
    file under ``out_dir`` other than ``summary.json`` and every other
    entry's file, and a ``format`` (default ``"json"``) from
    ``OUTPUT_FORMATS``."""
    root = out_dir.resolve()
    taken = {(root / "summary.json").resolve(): "the summary"}
    checked = []
    for i, spec in enumerate(_optional(cfg, "outputs", list, "config", [])):
        where = f"outputs[{i}]"
        if not isinstance(spec, dict):
            raise ConfigInvalid(f"{where} must be an object, got {spec!r}", operation="run")
        path = _require(spec, "path", str, where)
        fmt = _optional(spec, "format", str, where, "json")
        if not path or fmt not in OUTPUT_FORMATS:
            raise ConfigInvalid(f"{where} needs a non-empty 'path' and a 'format' in "
                                f"{OUTPUT_FORMATS}, got {spec!r}", operation="run")
        target = (root / path).resolve()
        if Path(path).is_absolute() or root not in target.parents:
            raise ConfigInvalid(f"{where} 'path' {path!r} must name a file under --out",
                                operation="run")
        if target in taken:
            raise ConfigInvalid(f"{where} 'path' {path!r} is the file of {taken[target]}",
                                operation="run")
        taken[target] = where
        checked.append((path, fmt))
    return checked


def _write_outputs(specs: list, out_dir: Path, report):
    for name, fmt in specs:
        path = out_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if fmt == "csv":
            path.write_text(report.to_csv())
        else:
            path.write_text(json.dumps(report.to_json(), indent=2))


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = _output_specs(cfg, out_dir)
    inst, transmon = build_instance(cfg)
    series_tol = _series_tol(cfg)

    summary: dict = {"config": cfg}
    exit_code = EXIT_OK
    if transmon is not None:
        bound = bounds_mod.transmon_leakage_bound(
            transmon.ej_over_ec, transmon.transparency_d
        )
        summary["transmon_leakage_bound"] = bound
        summary["bounds"] = None
    else:
        report = run_leakage_experiment(
            inst, _time_grid(cfg), series_tol=series_tol
        )
        invariants = None
        if inst.gamma > report.bounds.gamma_threshold_sw:
            invariants = [r.to_json() for r in check_instance(inst, series_tol=series_tol)]
            if any(not r["passed"] for r in invariants):
                exit_code = EXIT_VIOLATION
        sol = None
        if inst.gamma > report.bounds.gamma_threshold_bloch:
            sol = solve_bloch_series(inst, tol=series_tol)
        summary.update(
            {
                "bounds": report.bounds.to_json(),
                "max_leakage": report.max_leakage,
                "series_order": None if sol is None else sol.order,
                "delta": None if sol is None else sol.delta_bound,
                "violations": [list(v) for v in report.violations],
                "invariants": invariants,
            }
        )
        if report.violations:
            exit_code = EXIT_VIOLATION
        _write_outputs(outputs, out_dir, report)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2))
    return exit_code


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    inst, transmon = build_instance(cfg)
    extras = [] if inst is None else [inst]
    n_instances = _optional(cfg, "verify_instances", int, "config", 100)
    if n_instances < 0 or n_instances + len(extras) == 0:
        raise ConfigInvalid(f"'verify_instances' = {n_instances} with {len(extras)} model "
                            "instance(s) gives no suite to run", operation="verify")
    suite = run_suite(
        n_instances=n_instances,
        seed=_optional(cfg, "seed", int, "config", 0),
        extra_instances=extras,
        series_tol=_series_tol(cfg),
    )
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
        raise ConfigInvalid(
            "give either --x or all of --v-norm/--gamma/--eta", operation="bounds"
        )
    print(json.dumps(report.to_json(), indent=2))
    return EXIT_OK


def cmd_model(args) -> int:
    cfg = _load_config(args.config)
    inst, transmon = build_instance(cfg)
    if inst is None:
        raise ConfigInvalid("transmon model has no matrices to emit", operation="model")
    wanted = [w.strip() for w in args.emit.split(",")]
    out = {}
    for w in wanted:
        if w == "h0":
            out["h0"] = inst.h0.to_json()
        elif w == "v":
            out["v"] = inst.v.to_json()
        elif w == "partition":
            out["partition"] = inst.partition.to_json()
        else:
            raise ConfigInvalid(f"unknown emit target '{w}'", operation="model")
    print(json.dumps(out))
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    inst, transmon = build_instance(cfg)
    if inst is None:
        raise ConfigInvalid("sweep needs a matrix model", operation="sweep")
    gammas = [float(g) for g in args.gamma_list.split(",")]
    result = gamma_scaling_sweep(inst, gammas, _time_grid(cfg))
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
    p.add_argument("--seed", type=int, default=None)
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
    p.set_defaults(func=cmd_bounds)

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
        return args.func(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (LeakageError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, but LAPACK not converging is no input error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
