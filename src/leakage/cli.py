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
    if key not in cfg:
        raise ConfigInvalid(f"missing '{key}' in {where}", operation="run")
    val = cfg[key]
    if kind is float and isinstance(val, int):
        val = float(val)
    if not isinstance(val, kind):
        raise ConfigInvalid(f"'{key}' in {where} must be {kind.__name__}", operation="run")
    return val


def build_instance(cfg: dict):
    """Model matrices + partition from a config; None for formula-only models."""
    model = cfg["model"]
    params = cfg.get("params", {})
    seed = int(cfg.get("seed", 0))
    gamma = float(cfg.get("gamma", 1.0))
    if model == "transmon":
        return None, TransmonSpec(
            ej_over_ec=float(_require(params, "ej_over_ec", (int, float), "params")),
            transparency_d=float(_require(params, "transparency_d", (int, float), "params")),
        )
    if model == "chain":
        spec = ChainSpec(
            n_cells=int(_require(params, "n_cells", int, "params")),
            g1=float(params.get("g1", 1.0)),
            g2=float(params.get("g2", 1.5)),
            g3=float(params.get("g3", 2.0)),
            disorder_strength=float(params.get("disorder_strength", 0.01)),
            seed=seed,
        )
        h0, v = build_chain(spec)
        hint_intervals = None
    elif model == "harmonic":
        spec = HarmonicChainSpec(
            n_sites=int(_require(params, "n_sites", int, "params")),
            omega=float(params.get("omega", 10.0)),
            g=float(params.get("g", 1.0)),
            fock_cutoff=int(params.get("fock_cutoff", 3)),
            v0=float(params.get("v0", 0.0)),
        )
        h0, v, hint_intervals = build_harmonic_chain(spec)
    elif model == "custom":
        h0 = OperatorMatrix.from_json(_require(params, "h0", dict, "params"), hermitian_hint=True)
        v = OperatorMatrix.from_json(_require(params, "v", dict, "params"), hermitian_hint=True)
        hint_intervals = None
    else:
        raise ConfigInvalid(f"unknown model '{model}'", operation="run")

    part_cfg = cfg.get("partition", {"threshold": 0.5})
    eig = herm_eig(h0)
    if "threshold" in part_cfg:
        part = partition_by_threshold(eig, float(part_cfg["threshold"]))
    elif "intervals" in part_cfg:
        part = partition_by_intervals(eig, part_cfg["intervals"])
    elif hint_intervals is not None:
        part = partition_by_intervals(eig, hint_intervals)
    else:
        raise ConfigInvalid("partition must give 'threshold' or 'intervals'", operation="run")
    return ProblemInstance(h0, v, gamma, part), None


def _time_grid(cfg: dict) -> np.ndarray:
    tg = cfg.get("t_grid", {})
    t_max = float(tg.get("t_max", 200.0))
    n_points = int(tg.get("n_points", 2001))
    if not np.isfinite(t_max) or n_points < 1:
        raise ConfigInvalid(f"t_grid needs a finite t_max and n_points >= 1, got "
                            f"t_max={t_max}, n_points={n_points}", operation="run")
    return np.linspace(0.0, t_max, n_points)


def _series_tol(cfg: dict) -> float:
    return float(cfg.get("tolerances", {}).get("series_tol", 1e-12))


def _write_outputs(cfg: dict, out_dir: Path, report):
    for spec in cfg.get("outputs", []):
        path = out_dir / spec["path"]
        fmt = spec.get("format", "json")
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
        _write_outputs(cfg, out_dir, report)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2))
    return exit_code


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    inst, transmon = build_instance(cfg)
    extras = [] if inst is None else [inst]
    n_instances = int(cfg.get("verify_instances", 100))
    if n_instances < 0 or n_instances + len(extras) == 0:
        raise ConfigInvalid(f"'verify_instances' = {n_instances} with {len(extras)} model "
                            "instance(s) gives no suite to run", operation="verify")
    suite = run_suite(
        n_instances=n_instances,
        seed=int(cfg.get("seed", 0)),
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
