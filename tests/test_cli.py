import errno
import itertools
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from leakage import OperatorMatrix, ProblemInstance, bounds, cli, dynamics, verification
from leakage.models import ChainSpec, HarmonicChainSpec, build_chain, build_harmonic_chain
from leakage.cli import main
from leakage.errors import LeakageError
from leakage.verification import InvariantResult

from conftest import replace_fields

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


# imports numpy, then the CLI, then builds the instance of the config in argv[1], and
# prints which of the watched modules are loaded
_STARTUP_PROBE = """
import json, sys
import numpy
import leakage.cli
leakage.cli.build_instance(json.loads(sys.argv[1]))
watched = ("hashlib", "_hashlib", "csv", "dataclasses", "numpy.random")
print(json.dumps([m for m in watched if m in sys.modules]))
"""


def _loaded_at_startup(cfg):
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE, json.dumps(cfg)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_startup_loads_only_what_the_model_draws_on():
    # a harmonic run draws no seeded stream and writes no CSV: neither hashlib nor
    # numpy.random nor csv is loaded, and no record type generates code through dataclasses
    harmonic = {"model": "harmonic", "params": {"n_sites": 3}}
    assert _loaded_at_startup(harmonic) == []
    # the control: the chain's disorder is a seeded draw
    assert "numpy.random" in _loaded_at_startup(CHAIN_CFG)


def test_bounds_by_x(capsys):
    assert main(["bounds", "--x", str(0.01 / 1.15)]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["epsilon"] == pytest.approx(0.059565087217458258, rel=1e-12, abs=0.0)
    assert blob["delta"] == pytest.approx(0.028921196803706114, rel=1e-12, abs=0.0)
    # at x = 1e-12 delta is pi x and the SW bound 4 pi x, up to terms near 1e-11; a closed
    # form that cancels there misses them by far more than 1e-10
    assert main(["bounds", "--x", "1e-12"]) == 0
    blob, px = json.loads(capsys.readouterr().out), np.pi * 1e-12
    assert blob["delta"] == pytest.approx(px, rel=1e-10, abs=0.0)
    assert blob["d_sw_bound"] == pytest.approx(4 * px, rel=1e-10, abs=0.0)


def test_bounds_by_triple(capsys):
    assert main(["bounds", "--v-norm", "0.01", "--gamma", "1", "--eta", "1.15"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["x"] == pytest.approx(0.01 / 1.15, rel=1e-14, abs=0.0)


def test_bounds_argument_errors(capsys):
    assert main(["bounds"]) == 2
    assert main(["bounds", "--v-norm", "0.01", "--gamma", "1"]) == 2
    assert main(["bounds", "--v-norm", "0.01", "--gamma", "-1", "--eta", "1"]) == 2
    # --x with any of --v-norm/--gamma/--eta is refused, not read in their place
    assert main(["bounds", "--x", "0.01", "--v-norm", "5", "--gamma", "1", "--eta", "1"]) == 2
    assert main(["bounds", "--x", "0.01", "--gamma", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("give either --x or all of --v-norm/--gamma/--eta") == 4


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


# the 4-cell chain run's (CHAIN_CFG, seed 0) series at t = 0, 3.5, 10, 16.5 and 20, grid
# indices 0, 7, 20, 33 and 40: per_block_leakage (one row per group), then d_bloch and d_sw
FROZEN_INDICES = [0, 7, 20, 33, 40]
FROZEN_LEAKAGE = [
    [5.605868551428335e-16, 0.010368434861521544, 0.00300346439389312,
     0.011857863929897678, 0.004666149557750311],
    [8.849720037285209e-16, 0.010636904000682089, 0.0028731167724576037,
     0.011652103616036507, 0.0045661858357117285],
    [8.287664136467138e-16, 0.007459843374556928, 0.007391197083480505,
     0.0075308059426183885, 0.00385246077271953],
    [5.061004879844544e-16, 0.009911226361716397, 0.009827700450074228,
     0.009703366411980949, 0.002892802654145466],
    [7.416224704594984e-16, 0.0074549514317872115, 0.007376620117356051,
     0.007508523671473517, 0.0038785981220652013],
    [5.717087801187948e-16, 0.01061373791576007, 0.0028609190722412364,
     0.01160320156310944, 0.004529270268342065],
    [1.0241794957133597e-15, 0.010332806613897157, 0.0029856133817547223,
     0.011800637649381208, 0.004620796907447867],
]
FROZEN_D_BLOCH = [0.0, 0.01188723895060972, 0.01053555274308327, 0.013029037376171398,
                  0.006615276006475423]
FROZEN_D_SW = [0.0, 0.011887238934440322, 0.01053555273358103, 0.013029037370894008,
               0.006615275998652771]


def test_run_chain_series_keep_their_frozen_values(tmp_path):
    # a change that is meant to leave the numbers alone, such as a faster kernel, must keep
    # the leakage and both distance series to 1e-12; the expm oracles check them independently
    cfg = {**CHAIN_CFG, "outputs": [{"path": "series.json"}]}
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 0
    series = json.loads((tmp_path / "series.json").read_text())
    assert [series["times"][j] for j in FROZEN_INDICES] == [0.0, 3.5, 10.0, 16.5, 20.0]
    for key, frozen in [("per_block_leakage", FROZEN_LEAKAGE), ("d_bloch", FROZEN_D_BLOCH),
                        ("d_sw", FROZEN_D_SW)]:
        got = np.asarray(series[key])[..., FROZEN_INDICES]
        np.testing.assert_allclose(got, frozen, rtol=0, atol=1e-12, err_msg=key)


def test_run_distance_violation_exit_code(tmp_path, monkeypatch):
    # a d_SW above its bound alone makes the run fail with exit 4
    real = bounds.bound_report
    monkeypatch.setattr(bounds, "bound_report",
                        lambda *a: replace_fields(real(*a), d_sw_bound=1e-6))
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


def test_harmonic_config_without_partition_takes_its_own_bands():
    # a threshold of 0.5 would cut inside the 16 bands: 96 groups with gap 0.532
    cfg = {"model": "harmonic",
           "params": {"n_sites": 8, "omega": 10.0, "g": 1.0, "fock_cutoff": 15, "v0": 0.3}}
    inst, config = cli.build_instance(cfg)
    bands, config_bands = cli.build_instance({**cfg, "partition": {}})
    assert inst.partition.n_groups == 16 and inst.partition.gap == pytest.approx(6.241, abs=1e-3)
    assert all(map(np.array_equal, inst.partition.groups, bands.partition.groups))
    assert config["partition"] == config_bands["partition"] == {"threshold": None,
                                                                "intervals": None}
    # a model with no bands of its own keeps the threshold 0.5
    _, chain = cli.build_instance({"model": "chain", "params": {"n_cells": 4}})
    assert chain["partition"] == {"threshold": 0.5, "intervals": None}


def test_chain_partition_without_a_rule_exits_2(tmp_path, capsys):
    # the chain has no bands of its own to fall back on
    cfg = {**CHAIN_CFG, "partition": {}}
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    assert "partition must give 'threshold' or 'intervals'" in capsys.readouterr().err


def test_failed_invariant_exits_4_and_is_recorded(tmp_path, monkeypatch):
    failed = InvariantResult("fabricated", 1.0, 0.5)
    monkeypatch.setattr(cli, "check_instance", lambda inst: [failed])
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
    assert blob["partition"]["gap"] > 0.5 and len(blob["partition"]["groups"]) >= 2
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
    assert out.endswith("\nPASS invariant suite (4 instances)\n")
    assert "FAIL" not in out


TRANSMON_NEEDS_MATRICES = "verify needs a matrix model, not the transmon"


@pytest.mark.parametrize("cfg, err", [
    ({**CHAIN_CFG, "verify_instances": -5}, "'verify_instances' must be nonnegative, got -5"),
    # the formula-only transmon has no matrices to check, whatever the count of
    # random instances, 0 included
    ({"model": "transmon", "params": {"ej_over_ec": 90, "transparency_d": 1e-3},
      "verify_instances": 0}, TRANSMON_NEEDS_MATRICES),
    ({"model": "transmon", "params": {"ej_over_ec": 90, "transparency_d": 1e-3},
      "verify_instances": 2}, TRANSMON_NEEDS_MATRICES),
], ids=["negative", "empty", "transmon"])
def test_verify_rejects_meaningless_instance_count(tmp_path, capsys, monkeypatch, cfg, err):
    def never(*args, **kwargs):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(cli, "run_suite", never)
    assert main(["verify", "--config", write_cfg(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {err}\n"
    assert captured.out == ""


def test_verify_prints_the_worst_record_per_name(tmp_path, capsys, monkeypatch):
    # the worst record has the largest measured - allowed, the first one on a tie;
    # names print sorted, and one failed record fails the suite
    records = (InvariantResult("b", 1.0, 2.0), InvariantResult("a", 0.5, 1.0),
               InvariantResult("b", 3.0, 4.0), InvariantResult("a", 3.0, 2.0),
               InvariantResult("a", 0.0, -1.0), InvariantResult("b", 0.0, 2.0))
    seen = []

    def suite(n_instances, seed):
        seen.append((n_instances, seed))
        return records[:4]

    def check(inst):   # checked before the random instances, the model's records follow theirs
        seen.append(inst.dim)
        return list(records[4:])

    monkeypatch.setattr(cli, "run_suite", suite)
    monkeypatch.setattr(cli, "check_instance", check)
    cfg = {**CHAIN_CFG, "verify_instances": 2, "seed": 7}
    assert main(["verify", "--config", write_cfg(tmp_path, cfg)]) == 4
    assert seen == [12, (2, 7)]
    assert capsys.readouterr().out == (
        "FAIL a: measured 3.000e+00 allowed 2.000e+00\n"
        "PASS b: measured 1.000e+00 allowed 2.000e+00\n"
        "FAIL invariant suite (3 instances)\n")


@pytest.mark.parametrize("gamma, message", [(0.05, "4 pi ||V|| / eta"), (0.23, "Catalan tail")],
                         ids=["outside-bloch-regime", "catalan-tail"])
def test_verify_refuses_its_model_before_any_random_draw(tmp_path, capsys, monkeypatch, gamma,
                                                         message):
    # the chain's own check_instance fails first, so the suite draws no random instance
    draws = []
    draw = verification.random_instance
    monkeypatch.setattr(verification, "random_instance",
                        lambda rng: draws.append(rng) or draw(rng))
    cfg = write_cfg(tmp_path, {**CHAIN_CFG, "gamma": gamma})
    assert main(["verify", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert draws == []


def test_sweep(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CHAIN_CFG)
    code = main(["sweep", "--config", cfg, "--gamma-list", "10,30,100,300"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["gammas"] == [10.0, 30.0, 100.0, 300.0]
    assert blob["slope"] == pytest.approx(-1.0, abs=0.3)
    # each maximum is the very float a run reports at its gamma: at gamma 1 the run's own
    # summary, and at 1e4 and 1e6 too, where the squared leakage nears max_leakage's floor
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    run_max = json.loads((tmp_path / "run" / "summary.json").read_text())["max_leakage"]
    inst, config = cli.build_instance(CHAIN_CFG)
    times = cli._time_grid(config["t_grid"])
    for gammas in ["1,2,4,8", "1,100,10000,1000000"]:
        assert main(["sweep", "--config", cfg, "--gamma-list", gammas]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert len(blob["max_leakages"]) == 4 and blob["max_leakages"][0] == run_max
        for g, swept in zip(blob["gammas"], blob["max_leakages"]):
            inst_g = ProblemInstance(inst.h0, inst.v, g, inst.partition)
            assert swept == dynamics.run_leakage_experiment(inst_g, times).max_leakage, g
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


# |t| max|lam| beyond the float range would make e^{-i lam t} NaN, which a run would write
# into its outputs and a sweep would drop from its maxima
OVERFLOWING_PHASES = {
    "run": {"model": "custom", "params": {
        "h0": OperatorMatrix(np.diag([0.0, 1e10])).to_json(),
        "v": OperatorMatrix(1e9 * np.array([[0.0, 1.0], [1.0, 0.0]])).to_json()},
        "t_grid": {"t_max": 1e300, "n_points": 5}, "outputs": [{"path": "series.json"}]},
    "sweep": {**CHAIN_CFG, "t_grid": {"t_max": 1e300, "n_points": 41}},
}


@pytest.mark.parametrize("argv", [
    ["run", "--config", "{cfg}", "--out", "{out}/new"],
    ["sweep", "--config", "{cfg}", "--gamma-list", "1,1e10,1e100,1e200,1e300"],
], ids=["run", "sweep"])
def test_overflowing_time_phases_are_input_error(tmp_path, capsys, argv):
    cfg = write_cfg(tmp_path, OVERFLOWING_PHASES[argv[0]])
    assert main([arg.format(cfg=cfg, out=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert "max|lam|" in captured.err and "overflows" in captured.err and captured.out == ""
    assert not (tmp_path / "new").exists()


def _ring(g):
    """The 4-cell ring with every hopping ``g``."""
    return {**CHAIN_CFG, "params": {"n_cells": 4, "g1": g, "g2": g, "g3": g,
                                    "disorder_strength": 0.01}}


# inputs the floats cannot resolve, each refused by the code that owns it: at g = 1e16
# eigh's roundoff splits degenerate levels of H0 into a gap of 2.0 against a resolution
# dim eps max|lam0| of 53; gamma 1e308 puts H beyond the float range, and gamma 3.9e307 the
# sums that form H in the H0 eigenbasis, even on a short grid; t_max 1e300 puts the phases
# at the largest gamma beyond it
GAMMA_3E306 = {**CHAIN_CFG, "gamma": 3e306, "t_grid": {"t_max": 0.5, "n_points": 11}}
UNRESOLVABLE = {
    "ring-1e16": (_ring(1e16), ["run", "--out", "{out}/new"], "is not above the resolution"),
    "run-gamma-1e308": ({**CHAIN_CFG, "gamma": 1e308}, ["run", "--out", "{out}/new"],
                        "positive and finite"),
    "run-gamma-3.9e307": ({**CHAIN_CFG, "gamma": 3.9e307,
                           "t_grid": {"t_max": 0.5, "n_points": 3}},
                          ["run", "--out", "{out}/new"], "positive and finite"),
    "verify-gamma-1e308": ({**CHAIN_CFG, "gamma": 1e308, "verify_instances": 2}, ["verify"],
                           "positive and finite"),
    # H, and the H0-basis sums, are finite, but the invariant scan's phases at t = 50 are not
    "run-gamma-3e306": (GAMMA_3E306, ["run", "--out", "{out}/new"], "positive and finite"),
    "verify-gamma-3e306": (GAMMA_3E306, ["verify"], "positive and finite"),
    "sweep-gamma-1e308": (CHAIN_CFG, ["sweep", "--gamma-list", "10,30,100,300,1e308"],
                          "positive and finite"),
    "sweep-t-1e300": ({**CHAIN_CFG, "t_grid": {"t_max": 1e300, "n_points": 41}},
                      ["sweep", "--gamma-list", "1,1e10,1e100,1e200,1e300"], "overflows"),
}


@pytest.mark.parametrize("case", UNRESOLVABLE)
def test_unresolvable_input_is_refused_before_any_eigensolve_of_h(tmp_path, capsys,
                                                                  monkeypatch, case):
    # exit 2 with no eigensystem of H, no leakage read, no maximum, no --out and no warning
    cfg, argv, message = UNRESOLVABLE[case]
    calls = []
    evolution, compute = dynamics._Evolution.__init__, dynamics.max_leakage
    monkeypatch.setattr(dynamics._Evolution, "__init__",
                        lambda evo, *args: calls.append("_Evolution") or evolution(evo, *args))
    monkeypatch.setattr(dynamics, "max_leakage",
                        lambda *args: calls.append("max_leakage") or compute(*args))
    argv = [argv[0], "--config", write_cfg(tmp_path, cfg), *argv[1:]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([arg.format(out=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert calls == []
    assert not (tmp_path / "new").exists()


def test_ring_with_resolved_gap_still_runs(tmp_path):
    # at g = 1e14 the ring's 7 groups lie some 5e13 resolutions apart, and the run completes
    inst, _ = cli.build_instance(_ring(1e14))
    part = inst.partition
    resolution = part.dim * np.finfo(float).eps * np.abs(part.eigenvalues).max()
    assert part.n_groups == 7 and part.gap > 1e13 * resolution
    cfg = write_cfg(tmp_path, _ring(1e14))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "ring")]) == 0
    assert (tmp_path / "ring" / "summary.json").exists()


def test_out_that_cannot_be_made_is_input_error(tmp_path, capsys, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied")

    cfg = write_cfg(tmp_path, CHAIN_CFG)
    monkeypatch.setattr(pathlib.Path, "mkdir", refuse)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "new")]) == 2
    assert "summary.json' cannot be written: Permission denied" in capsys.readouterr().err
    assert not (tmp_path / "new" / "summary.json").exists()


@pytest.mark.parametrize("out, outputs, denied, mode, where", [
    ("ro/new/deeper", [], "ro", os.W_OK, "summary.json under --out"),
    ("ro/new", [], "ro", os.X_OK, "summary.json under --out"),
    ("ro/new", [{"path": "a.csv", "format": "csv"}], "ro", os.W_OK, "outputs[0] 'path' 'a.csv'"),
    ("out", [{"path": "series.json"}], "out/series.json", os.W_OK,
     "outputs[0] 'path' 'series.json'"),
], ids=["directory-not-writable", "directory-not-searchable", "first-output",
        "file-not-writable"])
def test_out_that_cannot_be_written_is_refused_before_computing(tmp_path, capsys, monkeypatch,
                                                                 out, outputs, denied, mode,
                                                                 where):
    # as root every directory is writable, so os.access stands in for the file system:
    # it denies ``mode`` on ``denied``, an existing file or the nearest existing directory
    # above --out, and the run exits 2 without computing or creating anything
    (tmp_path / "ro").mkdir()
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "series.json").write_text("old")
    denied = (tmp_path / denied).resolve()
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, m: not (
        pathlib.Path(path) == denied and m & mode) and access(path, m))
    calls = []
    monkeypatch.setattr(cli, "run_leakage_experiment", lambda *args: calls.append(args))
    cfg = write_cfg(tmp_path, {**CHAIN_CFG, "outputs": outputs})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}") and err.endswith(" cannot be written\n")
    assert calls == []
    assert list((tmp_path / "ro").iterdir()) == []
    assert list((tmp_path / "out").iterdir()) == [tmp_path / "out" / "series.json"]
    assert (tmp_path / "out" / "series.json").read_text() == "old"


@pytest.mark.skipif(os.geteuid() == 0, reason="root writes into any directory, whatever its mode")
def test_out_in_a_read_only_directory_is_refused_before_computing(tmp_path, capsys, monkeypatch):
    # the test above stands os.access in for the file system; this one asks the real one,
    # where a chmod 555 directory refuses writes to anyone but root
    calls = []
    monkeypatch.setattr(cli, "run_leakage_experiment", lambda *args: calls.append(args))
    cfg = write_cfg(tmp_path, CHAIN_CFG)
    ro = tmp_path / "ro"
    ro.mkdir()
    ro.chmod(0o555)
    try:
        assert main(["run", "--config", cfg, "--out", str(ro / "new")]) == 2
    finally:
        ro.chmod(0o755)   # so that pytest can remove tmp_path
    assert "cannot be written" in capsys.readouterr().err
    assert calls == [] and list(ro.iterdir()) == []


def test_catalan_tail_is_refused_before_any_leakage_read(tmp_path, capsys, monkeypatch):
    # at 4 pi x = 0.8 the 1e-12 tail is not reached by order J_MAX: the run solves the
    # series, and exits 3, before the leakage scan reads a single point
    reads = []
    read = dynamics._Evolution.leakage
    monkeypatch.setattr(dynamics._Evolution, "leakage",
                        lambda evo, k, t: reads.append((k, t)) or read(evo, k, t))
    inst, _ = cli.build_instance(CHAIN_CFG)
    gamma = 4 * np.pi * inst.v_norm / (0.8 * inst.partition.gap)
    cfg = write_cfg(tmp_path, {**CHAIN_CFG, "gamma": gamma})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "new")]) == 3
    assert "Catalan tail" in capsys.readouterr().err
    assert reads == []
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("last", ["nan", "inf"])
def test_sweep_refuses_a_non_finite_gamma_before_any_maximum(tmp_path, capsys, monkeypatch,
                                                             last):
    # the sweep sorts NaN and inf last; every gamma is checked before the first maximum
    calls = []
    compute = dynamics.max_leakage
    monkeypatch.setattr(dynamics, "max_leakage",
                        lambda inst, t_grid: calls.append(inst.gamma) or compute(inst, t_grid))
    cfg = write_cfg(tmp_path, CHAIN_CFG)
    assert main(["sweep", "--config", cfg, "--gamma-list", f"10,30,100,300,{last}"]) == 2
    captured = capsys.readouterr()
    assert "positive and finite" in captured.err and captured.out == ""
    assert calls == []


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
    ("verify", {**CHAIN_CFG, "verify_instances": 1, "t_grid": {"t_max": "20", "n_points": 41}},
     "t_max"),
    ("verify", {**CHAIN_CFG, "verify_instances": 1, "gamma": True}, "gamma"),
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
    [{"path": "a"}, {"path": "a/b.json"}],
    [{"path": "a/b.json"}, {"path": "a"}],
    [{"path": "summary.json/x.json"}],
], ids=["no-path", "int-path", "empty-path", "yaml", "upper-csv", "null-format",
        "bare-string", "not-a-list", "summary", "dotted-summary", "duplicate",
        "dotted-duplicate", "other-kind", "below-a-file", "below-an-earlier-output",
        "above-a-later-output", "below-the-summary"])
def test_bad_outputs_rejected_before_computation(tmp_path, monkeypatch, capsys, outputs):
    def never(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli, "run_leakage_experiment", never)
    cfg = write_cfg(tmp_path, {**CHAIN_CFG, "outputs": outputs})
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "outputs" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_summary_that_is_a_directory_rejected_before_computation(tmp_path, monkeypatch,
                                                                  capsys):
    def never(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli, "run_leakage_experiment", never)
    (tmp_path / "summary.json").mkdir()
    cfg = write_cfg(tmp_path, CHAIN_CFG)
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "summary.json" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "summary.json"]
    assert not any((tmp_path / "summary.json").iterdir())


_RUN_PATHS = ["a", "a/b.json", "b.csv", "sub/../a", "summary.json/x.json"]


def test_run_writes_every_file_or_refuses_before_computing(tmp_path, monkeypatch, capsys):
    # over every ordered pair of outputs paths, a run either exits 2 before computing
    # and leaves --out untouched, or exits 0 with every file written and readable back
    inst, config = cli.build_instance(CHAIN_CFG)
    report = dynamics.run_leakage_experiment(inst, cli._time_grid(config["t_grid"]))
    calls = []
    monkeypatch.setattr(cli, "run_leakage_experiment", lambda *args: calls.append(args) or report)
    series = json.loads(json.dumps(report.to_json()))
    written = set()
    for i, pair in enumerate(itertools.product(_RUN_PATHS, repeat=2)):
        outputs = [{"path": p, "format": "csv" if p.endswith(".csv") else "json"} for p in pair]
        cfg = write_cfg(tmp_path, {**CHAIN_CFG, "outputs": outputs})
        out, n_calls = tmp_path / f"out{i}", len(calls)
        code = main(["run", "--config", cfg, "--out", str(out)])
        if code == 2:
            assert len(calls) == n_calls and not out.exists(), pair
            continue
        assert code == 0, pair
        written.add(pair)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_leakage"] == report.max_leakage
        for p in pair:
            # read as bytes: the CSV rows end in \r\n, which text mode would translate
            text = pathlib.Path(os.path.normpath(out / p)).read_bytes().decode()
            if p.endswith(".csv"):
                assert text == report.to_csv(), pair
            else:
                assert json.loads(text) == series, pair
    # a pair is written when its two files are distinct, neither lies below the other
    # and neither is or lies below summary.json: b.csv with a, a/b.json or sub/../a
    others = ["a", "a/b.json", "sub/../a"]
    assert written == {*((p, "b.csv") for p in others), *(("b.csv", p) for p in others)}


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
    # a looser Bloch truncation is no setting: the suite's allowances assume the default
    ({**CHAIN_CFG, "tolerances": {"series_tol": 1e-3}}, "tolerances", "config"),
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
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert f"unknown key '{key}' in {section}" in capsys.readouterr().err
    assert not out.exists()


EVERY_KEY_CFG = {**CHAIN_CFG, "verify_instances": 1,
                 "outputs": [{"kind": "leakage", "path": "series.json", "format": "json"}]}


@pytest.mark.parametrize("argv", [
    ["run", "--out", "{out}"],
    ["verify"],
    ["model"],
    ["sweep", "--gamma-list", "10,30,100,300"],
], ids=["run", "verify", "model", "sweep"])
def test_config_with_every_top_level_key_serves_every_command(tmp_path, argv):
    assert sorted(EVERY_KEY_CFG) == sorted([
        "model", "params", "seed", "gamma", "partition", "t_grid", "outputs",
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
    # a chain config that omits outputs, verify_instances and the g* params gets their defaults
    _, config = cli.build_instance(CHAIN_CFG)
    assert config == {
        "model": "chain", "params": {"n_cells": 4, "g1": 1.0, "g2": 1.5, "g3": 2.0,
                                     "disorder_strength": 0.01},
        "seed": 0, "gamma": 1.0, "partition": {"threshold": 0.5, "intervals": None},
        "t_grid": {"t_max": 20.0, "n_points": 41}, "outputs": [], "verify_instances": 100}
    inst, config = cli.build_instance(TRANSMON_CFG)
    assert inst is None and config["params"] == TRANSMON_CFG["params"]


def test_summary_records_the_config_as_read(tmp_path):
    cfg = {**CHAIN_CFG, "outputs": [{"path": "series.csv", "format": "csv"}]}
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 0
    _, config = cli.build_instance(cfg)
    summary = json.loads((tmp_path / "summary.json").read_text())
    # it holds the defaults the input omits
    assert summary["config"]["verify_instances"] == 100
    assert summary["config"]["params"]["g1"] == 1.0
    assert summary["config"] == json.loads(json.dumps(config))
    assert summary["config"]["outputs"] == [
        {"path": "series.csv", "format": "csv", "kind": "leakage"}]
