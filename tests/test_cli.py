import dataclasses
import json

import numpy as np
import pytest

from leakage import OperatorMatrix, bounds, cli, dynamics
from leakage.models import ChainSpec, HarmonicChainSpec, build_chain, build_harmonic_chain
from leakage.cli import main
from leakage.errors import LeakageError
from leakage.verification import InvariantResult

CHAIN_CFG = {
    "model": "chain",
    "params": {"n_cells": 4, "disorder_strength": 0.01},
    "gamma": 1.0,
    "partition": {"threshold": 0.5},
    "t_grid": {"t_max": 20.0, "n_points": 41},
    "seed": 0,
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_bounds_by_x(capsys):
    assert main(["bounds", "--x", str(0.01 / 1.15)]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["epsilon"] == pytest.approx(0.059565087217458258, rel=1e-12, abs=0.0)
    assert blob["delta"] == pytest.approx(0.028921196803706114, rel=1e-12, abs=0.0)


def test_bounds_by_triple(capsys):
    assert main(["bounds", "--v-norm", "0.01", "--gamma", "1", "--eta", "1.15"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["x"] == pytest.approx(0.01 / 1.15, rel=1e-14, abs=0.0)


def test_bounds_argument_errors(capsys):
    assert main(["bounds"]) == 2
    assert main(["bounds", "--v-norm", "0.01", "--gamma", "1"]) == 2
    assert main(["bounds", "--v-norm", "0.01", "--gamma", "-1", "--eta", "1"]) == 2


def test_run_chain(tmp_path, capsys):
    cfg = dict(CHAIN_CFG)
    cfg["outputs"] = [
        {"kind": "leakage", "path": "series.csv", "format": "csv"},
        {"kind": "leakage", "path": "series.json", "format": "json"},
    ]
    code = main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["max_leakage"] <= summary["bounds"]["epsilon"]
    assert summary["violations"] == []
    assert summary["series_order"] >= 1
    assert all(r["passed"] for r in summary["invariants"])
    assert (tmp_path / "series.csv").read_text().startswith("t,k,leakage")
    series = json.loads((tmp_path / "series.json").read_text())
    assert len(series["times"]) == 41


def test_run_distance_violation_exit_code(tmp_path, monkeypatch):
    # a d_SW above its bound alone makes the run fail with exit 4
    real = bounds.bound_report
    monkeypatch.setattr(bounds, "bound_report", lambda *a: dataclasses.replace(
        real(*a), d_sw_bound=1e-6))
    code = main(["run", "--config", write_cfg(tmp_path, CHAIN_CFG), "--out", str(tmp_path)])
    assert code == 4
    violations = json.loads((tmp_path / "summary.json").read_text())["violations"]
    assert violations and all(kind == "d_sw" and k is None for kind, k, _ in violations)


def test_run_seed_from_config(tmp_path):
    cfg = dict(CHAIN_CFG, seed=3)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(out_a)])
    main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(out_b)])
    a = json.loads((out_a / "summary.json").read_text())
    b = json.loads((out_b / "summary.json").read_text())
    assert a["max_leakage"] == b["max_leakage"]
    assert a["config"]["seed"] == 3


def test_run_transmon(tmp_path):
    cfg = {
        "model": "transmon",
        "params": {"ej_over_ec": 90, "transparency_d": 1e-3},
    }
    code = main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["transmon_leakage_bound"] == pytest.approx(
        0.002876133406953723, rel=1e-12, abs=0.0
    )


def test_run_config_errors(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["run", "--config", write_cfg(tmp_path, {"model": "nope"})]) == 2
    assert main(["run", "--config", write_cfg(tmp_path, {"gamma": 1.0})]) == 2
    cfg = dict(CHAIN_CFG)
    cfg["params"] = {}
    assert main(["run", "--config", write_cfg(tmp_path, cfg)]) == 2


@pytest.mark.parametrize("cfg, err", [
    ([CHAIN_CFG], "config must be an object"),
    ({**CHAIN_CFG, "model": "nope"},
     "'model' in config must be one of ('chain', 'harmonic', 'transmon', 'custom')"),
], ids=["list", "unknown-model"])
def test_top_level_schema_refuses_a_list_and_an_unknown_model(tmp_path, capsys, cfg, err):
    # the config section's own reader makes both checks, before anything is computed
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert err in capsys.readouterr().err
    assert not out.exists()


def test_chain_partition_without_a_rule_exits_2(tmp_path, capsys):
    # the chain has no bands of its own to fall back on
    cfg = {**CHAIN_CFG, "partition": {}}
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    assert "partition must give 'threshold' or 'intervals'" in capsys.readouterr().err


def test_failed_invariant_exits_4_and_is_recorded(tmp_path, monkeypatch):
    failed = InvariantResult("fabricated", False, 1.0, 0.5)
    monkeypatch.setattr(cli, "check_instance", lambda inst, series_tol: [failed])
    assert main(["run", "--config", write_cfg(tmp_path, CHAIN_CFG), "--out", str(tmp_path)]) == 4
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["invariants"] == [failed.to_json()]
    assert summary["violations"] == []


def test_run_convergence_failure_exit_code(tmp_path):
    # two-level custom model just inside the threshold: the Catalan tail
    # never clears the tolerance within the order cap
    h0 = OperatorMatrix(np.diag([0.0, 1.0]))
    v = OperatorMatrix(0.07 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    cfg = {
        "model": "custom",
        "params": {"h0": h0.to_json(), "v": v.to_json()},
        "gamma": 1.0,
        "partition": {"threshold": 0.5},
        "t_grid": {"t_max": 1.0, "n_points": 3},
    }
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 3


def test_run_non_hermitian_custom_exit_code(tmp_path):
    bad = {"dim": 2, "entries": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    v = OperatorMatrix(np.zeros((2, 2)))
    cfg = {
        "model": "custom",
        "params": {"h0": bad, "v": v.to_json()},
        "partition": {"threshold": 0.5},
    }
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("cfg", [
    {**CHAIN_CFG, "partition": {"threshold": 50.0}},                       # no gap
    {**CHAIN_CFG, "partition": {"intervals": [[-5, 1], [0, 5]]}},          # intervals overlap
    {**CHAIN_CFG, "partition": {"intervals": [[-100, -99], [99, 100]]}},   # uncovered eigenvalue
    {"model": "transmon", "params": {"ej_over_ec": 1.0, "transparency_d": 1e-3}},  # bandgap <= 0
])
def test_run_input_error_exit_code(tmp_path, cfg):
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("t_grid", [
    {"t_max": 20.0, "n_points": 0},
    {"t_max": 20.0, "n_points": -3},
    {"t_max": float("nan"), "n_points": 41},
    {"t_max": float("inf"), "n_points": 41},
], ids=["no-points", "negative-points", "nan-t-max", "inf-t-max"])
def test_bad_time_grid_is_config_invalid(tmp_path, capsys, t_grid, command):
    argv = {"run": ["--out", str(tmp_path / "new")], "sweep": ["--gamma-list", "10,30,100,300"]}
    cfg = write_cfg(tmp_path, {**CHAIN_CFG, "t_grid": t_grid})
    assert main([command, "--config", cfg, *argv[command]]) == 2
    assert "t_grid" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_lapack_failure_exits_3(tmp_path, monkeypatch, capsys):
    # numpy's LinAlgError subclasses ValueError, yet it is no input error
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    assert main(["run", "--config", write_cfg(tmp_path, CHAIN_CFG), "--out", str(tmp_path)]) == 3
    assert "SVD did not converge" in capsys.readouterr().err


def _singular_block_gram(*args):
    raise LeakageError("fabricated")


@pytest.mark.parametrize("argv, sw_transform, code, err", [
    (["bounds", "--v-norm", "-0.01", "--gamma", "1", "--eta", "1"], None, 2, "v_norm"),
    (["bounds", "--x", "-1"], None, 2, "v_norm"),
    (["sweep", "--config", "{cfg}", "--gamma-list", "10,30,100"], None, 2,
     "only 3 usable sweep points"),
    (["sweep", "--config", "{cfg}", "--gamma-list", "10,10,10,10"], None, 2,
     "gamma 10.0 appears more than once"),
    (["run", "--config", "{cfg}", "--out", "{cfg}"], None, 2, "--out"),      # an existing file
    (["run", "--config", "{cfg}", "--out", "{cfg}/sub"], None, 2, "--out"),  # below a file
    (["run", "--config", "{cfg}", "--out", "{out}/new"], _singular_block_gram, 3,
     "fabricated"),                                                        # leaves no --out
    (["run", "--config", "{typo}", "--out", "{out}/new/a/b"], None, 2,
     "unknown key 'disorder_strenght'"),                                   # leaves no --out
    (["run", "--config", "{transmon}", "--out", "{out}/new"], None, 2, "bandgap"),
    (["run", "--config", "{series}", "--out", "{out}/new"], None, 2, "'outputs'"),
], ids=["negative-v-norm", "negative-x", "three-gammas", "repeated-gamma", "out-is-a-file",
        "out-below-a-file", "singular-block-gram", "misspelled-key-new-out",
        "transmon-bandgap-new-out", "transmon-outputs-new-out"])
def test_exit_codes_by_failure_kind(
        tmp_path, monkeypatch, capsys, argv, sw_transform, code, err):
    # 4 is left for a bound violation or a failed invariant
    if sw_transform is not None:
        monkeypatch.setattr(dynamics, "sw_transform", sw_transform)
    cfg = write_cfg(tmp_path, CHAIN_CFG)
    typo = write_cfg(tmp_path, {**CHAIN_CFG, "params": {"n_cells": 4, "disorder_strenght": 0.01}},
                     "typo.json")
    # E_J / E_C = 1 lies outside the transmon bandgap formula's domain
    transmon = write_cfg(tmp_path, {"model": "transmon",
                                    "params": {"ej_over_ec": 1.0, "transparency_d": 1e-3}},
                         "transmon.json")
    # the formula-only transmon has no series to write
    series = write_cfg(tmp_path, {**TRANSMON_CFG, "outputs": [{"path": "series.csv"}]},
                       "series.json")
    argv = [arg.format(cfg=cfg, typo=typo, transmon=transmon, series=series, out=tmp_path)
            for arg in argv]
    assert main(argv) == code
    assert err in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_model_emit(tmp_path, capsys):
    code = main(["model", "--config", write_cfg(tmp_path, CHAIN_CFG),
                 "--emit", "h0,v,partition"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["h0"]["dim"] == 12
    assert blob["partition"]["gap"] > 0.5
    assert main(["model", "--config", write_cfg(tmp_path, CHAIN_CFG),
                 "--emit", "garbage"]) == 2
    transmon = {"model": "transmon", "params": {"ej_over_ec": 90, "transparency_d": 1e-3}}
    assert main(["model", "--config", write_cfg(tmp_path, transmon)]) == 2


def test_verify(tmp_path, capsys):
    cfg = dict(CHAIN_CFG)
    cfg["verify_instances"] = 3
    code = main(["verify", "--config", write_cfg(tmp_path, cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS invariant suite (4 instances)" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("cfg", [
    {**CHAIN_CFG, "verify_instances": -5},
    {"model": "transmon", "params": {"ej_over_ec": 90, "transparency_d": 1e-3},
     "verify_instances": 0},
], ids=["negative", "empty"])
def test_verify_rejects_meaningless_instance_count(tmp_path, capsys, cfg):
    assert main(["verify", "--config", write_cfg(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert "verify_instances" in captured.err
    assert "PASS" not in captured.out


def test_verify_reads_series_tol(tmp_path):
    # no Bloch series reaches a Catalan tail below 1e-300 within the order cap
    cfg = {**CHAIN_CFG, "verify_instances": 1, "tolerances": {"series_tol": 1e-300}}
    assert main(["verify", "--config", write_cfg(tmp_path, cfg)]) == 3


def test_sweep(tmp_path, capsys):
    code = main(["sweep", "--config", write_cfg(tmp_path, CHAIN_CFG),
                 "--gamma-list", "10,30,100,300"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["gammas"] == [10.0, 30.0, 100.0, 300.0]
    assert blob["slope"] == pytest.approx(-1.0, abs=0.3)
    transmon = {"model": "transmon", "params": {"ej_over_ec": 90, "transparency_d": 1e-3}}
    assert main(["sweep", "--config", write_cfg(tmp_path, transmon),
                 "--gamma-list", "10,30,100,300"]) == 2


@pytest.mark.parametrize("argv", [
    ["bounds", "--x", "nan"],
    ["bounds", "--v-norm", "1", "--gamma", "nan", "--eta", "1"],
    ["bounds", "--v-norm", "1", "--gamma", "inf", "--eta", "1"],
    ["bounds", "--v-norm", "nan", "--gamma", "1", "--eta", "1"],
    ["bounds", "--v-norm", "1", "--gamma", "1", "--eta", "inf"],
    ["sweep", "--config", "{cfg}", "--gamma-list", "nan,10,30,100,300"],
    ["sweep", "--config", "{cfg}", "--gamma-list", "10,30,100,300,inf"],
], ids=["x-nan", "gamma-nan", "gamma-inf", "v-norm-nan", "eta-inf", "sweep-nan", "sweep-inf"])
def test_non_finite_bound_argument_is_input_error(tmp_path, capsys, argv):
    cfg = write_cfg(tmp_path, CHAIN_CFG)
    assert main([arg.format(cfg=cfg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv, field", [
    (["bounds", "--x", "1e308"], "leakage_linear"),
    (["bounds", "--v-norm", "1e300", "--gamma", "1e-10", "--eta", "1e-10"], "x"),
    (["run", "--config", "{cfg}", "--out", "{out}/new"], "x"),
], ids=["x-overflow", "v-norm-overflow", "run-subnormal-gamma"])
def test_overflowing_bound_report_is_input_error(tmp_path, capsys, argv, field):
    # finite arguments whose report would hold an infinity, which JSON cannot carry; a
    # subnormal gamma puts x = ||V|| / (gamma eta) beyond the float range
    cfg = write_cfg(tmp_path, {**CHAIN_CFG, "gamma": 1e-320})
    assert main([arg.format(cfg=cfg, out=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert f"'{field}' is not finite" in captured.err and captured.out == ""
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("gamma", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_config_gamma_is_input_error(tmp_path, capsys, gamma):
    # json writes and reads these as the non-standard NaN and Infinity
    cfg = write_cfg(tmp_path, {**CHAIN_CFG, "gamma": gamma})
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


HARMONIC_CFG = {
    "model": "harmonic",
    "params": {"n_sites": 2, "fock_cutoff": 3, "v0": 0.1},
    "gamma": 1.0,
    "partition": {},
    "t_grid": {"t_max": 5.0, "n_points": 6},
}


@pytest.mark.parametrize("command, cfg, key", [
    ("verify", {**CHAIN_CFG, "verify_instances": 2.7}, "verify_instances"),
    ("verify", {**CHAIN_CFG, "verify_instances": True}, "verify_instances"),
    ("verify", {**CHAIN_CFG, "verify_instances": 1, "seed": 1.5}, "seed"),
    ("run", {**CHAIN_CFG, "t_grid": {"t_max": 20.0, "n_points": 41.9}}, "n_points"),
    ("run", {**CHAIN_CFG, "t_grid": {"t_max": 20.0, "n_points": True}}, "n_points"),
    ("run", {**CHAIN_CFG, "seed": 1.5}, "seed"),
    ("run", {**CHAIN_CFG, "seed": True}, "seed"),
    ("run", {**CHAIN_CFG, "params": {"n_cells": 4.0}}, "n_cells"),
    ("run", {**CHAIN_CFG, "params": {"n_cells": True}}, "n_cells"),
    ("run", {**HARMONIC_CFG, "params": {"n_sites": 2, "fock_cutoff": 3.0}}, "fock_cutoff"),
    ("run", {**HARMONIC_CFG, "params": {"n_sites": 2, "fock_cutoff": True}}, "fock_cutoff"),
    ("run", {"model": "transmon", "params": {"ej_over_ec": "90", "transparency_d": 1e-3}},
     "ej_over_ec"),
    ("run", {"model": "transmon", "params": {"ej_over_ec": 90, "transparency_d": False}},
     "transparency_d"),
    ("run", {**CHAIN_CFG, "gamma": True}, "gamma"),
    ("run", {**CHAIN_CFG, "gamma": "1.0"}, "gamma"),
    ("run", {**CHAIN_CFG, "partition": {"threshold": True}}, "threshold"),
    ("run", {**CHAIN_CFG, "t_grid": {"t_max": "20", "n_points": 41}}, "t_max"),
    ("run", {**CHAIN_CFG, "params": {"n_cells": 4, "g1": "1.0"}}, "g1"),
    ("run", {**CHAIN_CFG, "params": {"n_cells": 4, "g2": True}}, "g2"),
    ("run", {**CHAIN_CFG, "params": {"n_cells": 4, "g3": [2.0]}}, "g3"),
    ("run", {**CHAIN_CFG, "params": {"n_cells": 4, "disorder_strength": "0"}},
     "disorder_strength"),
    ("run", {**CHAIN_CFG, "tolerances": {"series_tol": "1e-12"}}, "series_tol"),
    ("verify", {**CHAIN_CFG, "verify_instances": 1, "tolerances": {"series_tol": True}},
     "series_tol"),
    ("run", {**HARMONIC_CFG, "params": {"n_sites": 2, "omega": "10"}}, "omega"),
    ("run", {**HARMONIC_CFG, "params": {"n_sites": 2, "g": None}}, "g"),
    ("run", {**HARMONIC_CFG, "params": {"n_sites": 2, "v0": False}}, "v0"),
    ("run", {**CHAIN_CFG, "tolerances": [1e-12]}, "tolerances"),
    ("run", {**CHAIN_CFG, "t_grid": 41}, "t_grid"),
    ("run", {**CHAIN_CFG, "partition": 0.5}, "partition"),
    ("run", {**CHAIN_CFG, "params": [4]}, "params"),
    ("run", {**CHAIN_CFG, "partition": {"threshold": 0.5, "intervals": [[-5, 5]]}},
     "partition"),
])
def test_mistyped_config_field_is_config_invalid(tmp_path, capsys, command, cfg, key):
    argv = [command, "--config", write_cfg(tmp_path, cfg)]
    if command == "run":
        argv += ["--out", str(tmp_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert key in captured.err and "PASS" not in captured.out
    assert not (tmp_path / "summary.json").exists()


TRANSMON_CFG = {"model": "transmon", "params": {"ej_over_ec": 90.0, "transparency_d": 1e-3}}
NAN, INF = float("nan"), float("inf")
NON_FINITE_FIELDS = [
    ({**CHAIN_CFG, "gamma": NAN}, "gamma"),
    ({**CHAIN_CFG, "partition": {"threshold": NAN}}, "threshold"),
    ({**CHAIN_CFG, "t_grid": {"t_max": INF, "n_points": 41}}, "t_max"),
    ({**CHAIN_CFG, "params": {"n_cells": 4, "g1": INF}}, "g1"),
    ({**CHAIN_CFG, "params": {"n_cells": 4, "g2": NAN}}, "g2"),
    ({**CHAIN_CFG, "params": {"n_cells": 4, "g3": -INF}}, "g3"),
    ({**CHAIN_CFG, "params": {"n_cells": 4, "disorder_strength": NAN}}, "disorder_strength"),
    ({**CHAIN_CFG, "tolerances": {"series_tol": INF}}, "series_tol"),
    ({**HARMONIC_CFG, "params": {"n_sites": 2, "omega": INF}}, "omega"),
    ({**HARMONIC_CFG, "params": {"n_sites": 2, "g": NAN}}, "g"),
    ({**HARMONIC_CFG, "params": {"n_sites": 2, "v0": INF}}, "v0"),
    ({**TRANSMON_CFG, "params": {"ej_over_ec": NAN, "transparency_d": 1e-3}}, "ej_over_ec"),
    ({**TRANSMON_CFG, "params": {"ej_over_ec": 90.0, "transparency_d": -INF}},
     "transparency_d"),
]


# JSON integers beyond the float64 range, which float() cannot convert
HUGE_INT_FIELDS = [
    ({**CHAIN_CFG, "gamma": 10**400}, "gamma"),
    ({**CHAIN_CFG, "params": {"n_cells": 4, "g1": 10**400}}, "g1"),
    ({**CHAIN_CFG, "t_grid": {"t_max": -10**400, "n_points": 41}}, "t_max"),
]


@pytest.mark.parametrize("cfg, key", NON_FINITE_FIELDS + HUGE_INT_FIELDS,
                         ids=[k for _, k in NON_FINITE_FIELDS]
                         + [f"huge-{k}" for _, k in HUGE_INT_FIELDS])
def test_non_finite_float_config_field_is_config_invalid(tmp_path, capsys, cfg, key):
    # json reads the non-standard NaN and Infinity as floats
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"'{key}' in" in err and "finite" in err
    assert not (tmp_path / "summary.json").exists()


def test_integer_config_fields_run(tmp_path):
    # the same fields given as JSON integers, float fields included
    assert main(["run", "--config", write_cfg(tmp_path, HARMONIC_CFG),
                 "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "summary.json").read_text())["series_order"] >= 1
    as_ints = {**CHAIN_CFG, "gamma": 1, "t_grid": {"t_max": 20, "n_points": 41},
               "params": {"n_cells": 4, "g1": 1, "g2": 2, "g3": 2}}
    as_floats = {**as_ints, "gamma": 1.0, "t_grid": {"t_max": 20.0, "n_points": 41},
                 "params": {"n_cells": 4, "g1": 1.0, "g2": 2.0, "g3": 2.0}}
    summaries = []
    for name, cfg in (("ints", as_ints), ("floats", as_floats)):
        assert main(["run", "--config", write_cfg(tmp_path, cfg, f"{name}.json"),
                     "--out", str(tmp_path / name)]) == 0
        summaries.append(json.loads((tmp_path / name / "summary.json").read_text()))
    assert summaries[0]["max_leakage"] == summaries[1]["max_leakage"] > 0
    cfg = {**CHAIN_CFG, "verify_instances": 1, "seed": 2}
    assert main(["verify", "--config", write_cfg(tmp_path, cfg, "verify.json")]) == 0
    # an integer inside the float64 range reads as that float
    _, config = cli.build_instance({**CHAIN_CFG, "t_grid": {"t_max": 10**308, "n_points": 2}})
    assert config["t_grid"]["t_max"] == 1e308


@pytest.mark.parametrize("outputs", [
    [{"kind": "leakage", "format": "json"}],
    [{"path": 5}],
    [{"path": ""}],
    [{"path": "series.yaml", "format": "yaml"}],
    [{"path": "series.csv", "format": "CSV"}],
    [{"path": "series.json", "format": None}],
    [{"path": "series.json"}, "series.csv"],
    {"path": "series.json"},
    [{"path": "summary.json"}],
    [{"path": "a.csv", "format": "csv"}, {"path": "./sub/../summary.json"}],
    [{"path": "a.json"}, {"path": "a.json", "format": "csv"}],
    [{"path": "a.csv", "format": "csv"}, {"path": "sub/../a.csv"}],
    [{"path": "a.json", "kind": "distance"}],
    [{"path": "cfg.json/s.json"}],
], ids=["no-path", "int-path", "empty-path", "yaml", "upper-csv", "null-format",
        "bare-string", "not-a-list", "summary", "dotted-summary", "duplicate",
        "dotted-duplicate", "other-kind", "below-a-file"])
def test_bad_outputs_rejected_before_computation(tmp_path, monkeypatch, capsys, outputs):
    def never(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli, "run_leakage_experiment", never)
    cfg = write_cfg(tmp_path, {**CHAIN_CFG, "outputs": outputs})
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "outputs" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_outputs_default_to_json(tmp_path):
    cfg = {**CHAIN_CFG, "outputs": [{"path": "nested/series"}]}
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 0
    assert len(json.loads((tmp_path / "nested" / "series").read_text())["times"]) == 41


@pytest.mark.parametrize("path", ["/abs/series.json", "../series.json", "sub/../../series.json",
                                  ".", "sub/.."],
                         ids=["absolute", "parent", "nested-parent", "out-dir", "sub-parent"])
def test_outputs_outside_out_dir_rejected(tmp_path, monkeypatch, capsys, path):
    def never(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli, "run_leakage_experiment", never)
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {**CHAIN_CFG, "outputs": [{"path": path}]})
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "outputs[0]" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_outputs_naming_a_directory_rejected(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli, "run_leakage_experiment", never)
    (tmp_path / "sub").mkdir()
    cfg = write_cfg(tmp_path, {**CHAIN_CFG, "outputs": [{"path": "sub"}]})
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "outputs[0]" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_outputs_in_subdirectory_of_out_dir(tmp_path):
    cfg = {**CHAIN_CFG, "outputs": [{"path": "sub/x.json"}, {"path": "sub/../y.csv",
                                                             "format": "csv"}]}
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    assert len(json.loads((out / "sub" / "x.json").read_text())["times"]) == 41
    assert (out / "y.csv").read_text().startswith("t,k,leakage")


@pytest.mark.parametrize("intervals", [
    5,
    [5, 6],
    [[None, 1], [2, 3]],
    [[True, 1], [2, 3]],
    [[0, 1, 2], [3, 4]],
    [[0, "1"], [2, 3]],
    {"lo": 0, "hi": 1},
], ids=["number", "flat", "null-endpoint", "bool-endpoint", "triple", "string-endpoint",
        "object"])
def test_mistyped_partition_intervals_are_config_invalid(tmp_path, capsys, intervals):
    cfg = write_cfg(tmp_path, {**CHAIN_CFG, "partition": {"intervals": intervals}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "'intervals' in partition" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("intervals", [
    [[NAN, 10], [-10, 0]],
    [[-INF, -0.5], [0.5, INF]],
    [[-10, 0], [0.5, 10**400]],
], ids=["nan", "infinite", "huge-int"])
def test_non_finite_interval_endpoint_is_config_invalid(tmp_path, capsys, intervals):
    # endpoints are read as every float field is, so the message names the field
    cfg = write_cfg(tmp_path, {**CHAIN_CFG, "partition": {"intervals": intervals}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "partition.intervals" in err and "must be finite" in err
    assert not (tmp_path / "summary.json").exists()


def custom_cfg(h0_json):
    v = OperatorMatrix(0.01 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    return {"model": "custom", "params": {"h0": h0_json, "v": v.to_json()},
            "partition": {"threshold": 0.5}, "t_grid": {"t_max": 1.0, "n_points": 3}}


def test_custom_model_matrices_run(tmp_path):
    h0 = OperatorMatrix(np.diag([0.0, 1.0])).to_json()
    h0["entries"][3] = [1, 0]   # integers are JSON numbers too
    assert main(["run", "--config", write_cfg(tmp_path, custom_cfg(h0)),
                 "--out", str(tmp_path)]) == 0


def test_non_finite_custom_matrix_is_input_error(tmp_path, capsys):
    # an input at fault exits 2, not 3 as a failed LAPACK call would
    h0 = OperatorMatrix(np.diag([0.0, 1.0])).to_json()
    h0["entries"][3] = [float("nan"), 0.0]
    assert main(["run", "--config", write_cfg(tmp_path, custom_cfg(h0)),
                 "--out", str(tmp_path)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("h0, key", [
    ({"dim": 2.5, "entries": [[0, 0], [0, 0], [0, 0], [1, 0]]}, "dim"),
    ({"dim": True, "entries": [[0, 0]]}, "dim"),
    ({"dim": 0, "entries": []}, "dim"),
    ({"entries": [[0, 0], [0, 0], [0, 0], [1, 0]]}, "dim"),
    ({"dim": 2, "entries": 5}, "entries"),
    ({"dim": 2}, "entries"),
    ({"dim": 2, "entries": [0, 0, 0, 1]}, "entries"),
    ({"dim": 2, "entries": [[0, 0], [0, 0], [0, 0], [1, None]]}, "entries"),
    ({"dim": 2, "entries": [[0, 0], [0, 0], [0, 0], [False, 0]]}, "entries"),
    ({"dim": 2, "entries": [[0, 0], [0, 0], [0, 0], [1, 0, 0]]}, "entries"),
    ({"dim": 2, "entries": [[0, 0], [0, 0], [0, 0], [10**400, 0]]}, "params.h0.entries[3]"),
    ({"dim": 2, "entries": [[0, 0], [0, 0], [1, 0]]}, "entries"),
], ids=["float-dim", "bool-dim", "zero-dim", "no-dim", "number-entries", "no-entries",
        "flat-entries", "null-part", "bool-part", "triple", "huge-int-part", "three-pairs"])
def test_mistyped_custom_matrix_is_config_invalid(tmp_path, capsys, h0, key):
    assert main(["run", "--config", write_cfg(tmp_path, custom_cfg(h0)),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert key in err and "params.h0" in err
    assert not (tmp_path / "summary.json").exists()


def _custom_with(h0_extra=None, params_extra=None):
    cfg = custom_cfg({**OperatorMatrix(np.diag([0.0, 1.0])).to_json(), **(h0_extra or {})})
    cfg["params"].update(params_extra or {})
    return cfg


UNKNOWN_KEYS = [
    ({**CHAIN_CFG, "gama": 2.0}, "gama", "config"),
    ({**CHAIN_CFG, "params": {"n_cells": 4, "disorder_strenght": 5.0}},
     "disorder_strenght", "params"),
    ({**HARMONIC_CFG, "params": {"n_sites": 2, "v_0": 0.1}}, "v_0", "params"),
    ({**TRANSMON_CFG, "params": {**TRANSMON_CFG["params"], "seed": 1}}, "seed", "params"),
    (_custom_with(params_extra={"w": {"dim": 1, "entries": [[0, 0]]}}), "w", "params"),
    (_custom_with(h0_extra={"shape": [2, 2]}), "shape", "params.h0"),
    ({**CHAIN_CFG, "partition": {"treshold": 0.5}}, "treshold", "partition"),
    ({**CHAIN_CFG, "t_grid": {"t_max": 20.0, "npoints": 41}}, "npoints", "t_grid"),
    ({**CHAIN_CFG, "tolerances": {"series_tolerance": 1e-10}}, "series_tolerance",
     "tolerances"),
    ({**CHAIN_CFG, "outputs": [{"path": "a.json", "fromat": "csv"}]}, "fromat", "outputs[0]"),
]


@pytest.mark.parametrize("cfg, key, section", UNKNOWN_KEYS,
                         ids=["top", "chain", "harmonic", "transmon", "custom", "custom-h0",
                              "partition", "t_grid", "tolerances", "outputs"])
def test_unknown_config_key_is_config_invalid(tmp_path, monkeypatch, capsys, cfg, key,
                                              section):
    # a misspelled key must not leave the default it meant to override in force
    def never(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli, "run_leakage_experiment", never)
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    assert f"unknown key '{key}' in {section}" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


EVERY_KEY_CFG = {**CHAIN_CFG, "tolerances": {"series_tol": 1e-12}, "verify_instances": 1,
                 "outputs": [{"kind": "leakage", "path": "series.json", "format": "json"}]}


@pytest.mark.parametrize("argv", [
    ["run", "--out", "{out}"],
    ["verify"],
    ["model"],
    ["sweep", "--gamma-list", "10,30,100,300"],
], ids=["run", "verify", "model", "sweep"])
def test_config_with_every_top_level_key_serves_every_command(tmp_path, argv):
    assert sorted(EVERY_KEY_CFG) == sorted([
        "model", "params", "seed", "gamma", "partition", "t_grid", "tolerances", "outputs",
        "verify_instances"])
    cfg = write_cfg(tmp_path, EVERY_KEY_CFG)
    assert main([argv[0], "--config", cfg, *(a.format(out=tmp_path) for a in argv[1:])]) == 0


@pytest.mark.parametrize("cfg, matrices", [
    ({"model": "chain", "params": {"n_cells": 4}}, build_chain(ChainSpec(n_cells=4))),
    ({"model": "harmonic", "params": {"n_sites": 2}},
     build_harmonic_chain(HarmonicChainSpec(n_sites=2))[:2]),
], ids=["chain", "harmonic"])
def test_omitted_params_take_the_spec_defaults(cfg, matrices):
    inst, _ = cli.build_instance(cfg)
    for got, want in zip((inst.h0, inst.v), matrices):
        np.testing.assert_array_equal(got.entries, want.entries)


def test_build_instance_returns_the_config_as_read():
    # a chain config that omits tolerances, outputs and the g* params gets their defaults
    _, config = cli.build_instance(CHAIN_CFG)
    assert config == {
        "model": "chain", "params": {"n_cells": 4, "g1": 1.0, "g2": 1.5, "g3": 2.0,
                                     "disorder_strength": 0.01},
        "seed": 0, "gamma": 1.0, "partition": {"threshold": 0.5, "intervals": None},
        "t_grid": {"t_max": 20.0, "n_points": 41}, "tolerances": {"series_tol": 1e-12},
        "outputs": [], "verify_instances": 100}
    inst, config = cli.build_instance(TRANSMON_CFG)
    assert inst is None and config["params"] == TRANSMON_CFG["params"]


def test_summary_records_the_config_as_read(tmp_path):
    cfg = {**CHAIN_CFG, "outputs": [{"path": "series.csv", "format": "csv"}]}
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 0
    _, config = cli.build_instance(cfg)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["config"] == json.loads(json.dumps(config))
    assert summary["config"]["outputs"] == [
        {"path": "series.csv", "format": "csv", "kind": "leakage"}]
