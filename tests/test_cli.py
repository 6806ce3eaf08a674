import dataclasses
import json

import numpy as np
import pytest

from leakage import OperatorMatrix, bounds, dynamics
from leakage.cli import _time_grid, main
from leakage.errors import ConfigInvalid, SingularBlockGram

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
    assert blob["epsilon"] == pytest.approx(0.059565087217458258, rel=1e-12)
    assert blob["delta"] == pytest.approx(0.028921196803706114, rel=1e-12)


def test_bounds_by_triple(capsys):
    assert main(["bounds", "--v-norm", "0.01", "--gamma", "1", "--eta", "1.15"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["x"] == pytest.approx(0.01 / 1.15, rel=1e-14)


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


def test_run_seed_override(tmp_path):
    cfg = dict(CHAIN_CFG)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(out_a), "--seed", "3"])
    main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(out_b), "--seed", "3"])
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
        0.002876133406953723, rel=1e-12
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


def test_run_convergence_failure_exit_code(tmp_path):
    # two-level custom model just inside the threshold: the Catalan tail
    # never clears the tolerance within the order cap
    h0 = OperatorMatrix(np.diag([0.0, 1.0]), hermitian_hint=True)
    v = OperatorMatrix(0.07 * np.array([[0.0, 1.0], [1.0, 0.0]]), hermitian_hint=True)
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
    v = OperatorMatrix(np.zeros((2, 2)), hermitian_hint=True)
    cfg = {
        "model": "custom",
        "params": {"h0": bad, "v": v.to_json()},
        "partition": {"threshold": 0.5},
    }
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("cfg", [
    {**CHAIN_CFG, "partition": {"threshold": 50.0}},                       # NoGapFound
    {**CHAIN_CFG, "partition": {"intervals": [[-5, 1], [0, 5]]}},          # OverlappingIntervals
    {**CHAIN_CFG, "partition": {"intervals": [[-100, -99], [99, 100]]}},   # UncoveredEigenvalue
    {"model": "transmon", "params": {"ej_over_ec": 1.0, "transparency_d": 1e-3}},  # NonpositiveBandgap
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
    with pytest.raises(ConfigInvalid, match="t_grid"):
        _time_grid({"t_grid": t_grid})
    argv = {"run": ["--out", str(tmp_path)], "sweep": ["--gamma-list", "10,30,100,300"]}
    cfg = write_cfg(tmp_path, {**CHAIN_CFG, "t_grid": t_grid})
    assert main([command, "--config", cfg, *argv[command]]) == 2
    assert "t_grid" in capsys.readouterr().err


def test_lapack_failure_exits_3(tmp_path, monkeypatch, capsys):
    # numpy's LinAlgError subclasses ValueError, yet it is no input error
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    assert main(["run", "--config", write_cfg(tmp_path, CHAIN_CFG), "--out", str(tmp_path)]) == 3
    assert "SVD did not converge" in capsys.readouterr().err


def _singular_block_gram(*args):
    raise SingularBlockGram("fabricated", operation="perturbed_projection")


@pytest.mark.parametrize("argv, sw_transform, code", [
    (["bounds", "--v-norm", "-0.01", "--gamma", "1", "--eta", "1"], None, 2),
    (["bounds", "--x", "-1"], None, 2),
    (["sweep", "--config", "{cfg}", "--gamma-list", "10,30,100"], None, 2),  # DegenerateSweep
    (["run", "--config", "{cfg}", "--out", "{out}"], _singular_block_gram, 3),
], ids=["negative-v-norm", "negative-x", "three-gammas", "singular-block-gram"])
def test_exit_codes_by_failure_kind(
        tmp_path, monkeypatch, argv, sw_transform, code):
    # 4 is left for a bound violation or a failed invariant
    if sw_transform is not None:
        monkeypatch.setattr(dynamics, "sw_transform", sw_transform)
    cfg = write_cfg(tmp_path, CHAIN_CFG)
    assert main([arg.format(cfg=cfg, out=tmp_path) for arg in argv]) == code


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
