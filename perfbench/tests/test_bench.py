"""Tests of the benchmark itself: tracer arithmetic, call-site coverage,
checker sensitivity, trace repeatability and the result-line contract.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import leakage.cli
import run
from checks import check_op, make_checker
from layers import layer_metrics
from tracer import Tracer
from worker import run_op

BENCH = Path(__file__).resolve().parent.parent

# the chain config of tests/test_cli.py: 4 cells and 41 points; the 0.5 split
# threshold cuts its 12 levels into 7 groups
CHAIN_CFG = {
    "model": "chain",
    "params": {"n_cells": 4, "disorder_strength": 0.01},
    "gamma": 1.0,
    "partition": {"threshold": 0.5},
    "t_grid": {"t_max": 20.0, "n_points": 41},
    "seed": 0,
    "outputs": [{"kind": "leakage", "path": "series.json", "format": "json"}],
}
N_TIMES, N_GROUPS = 41, 7


def run_chain(tmp_path, tag, tracer=None):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CHAIN_CFG))
    out = tmp_path / tag
    if tracer is not None:
        tracer.install()
    try:
        return run_op(leakage.cli, ["run", "--config", str(config), "--out", str(out)], out)
    finally:
        if tracer is not None:
            tracer.uninstall()


def test_self_time_of_nested_spans():
    now = [0.0]
    tr = Tracer(clock=lambda: now[0])

    def tick(dt):
        now[0] += dt

    leaf = tr.wrap("m.leaf", lambda: tick(2.0))
    lapack = tr.wrap("numpy.linalg.fake", lambda: tick(5.0))

    def inner_body():
        tick(1.0)
        leaf()
        lapack()
        tick(1.0)

    inner = tr.wrap("m.inner", inner_body)

    def outer_body():
        tick(3.0)
        inner()
        inner()
        tick(1.0)

    tr.wrap("m.outer", outer_body)()

    # inner: 1 + 2 + 5 + 1 = 9 per call; LAPACK is not subtracted from self time
    assert tr.stat("m.inner").calls == 2
    assert tr.stat("m.inner").s == 18.0
    assert tr.stat("m.inner").self_s == 14.0
    assert tr.stat("m.leaf").s == tr.stat("m.leaf").self_s == 4.0
    assert tr.stat("m.outer").s == 22.0
    assert tr.stat("m.outer").self_s == 4.0
    assert tr.called_from("m.leaf", "m.inner").calls == 2
    assert tr.called_from("numpy.linalg.fake", "m.inner").s == 10.0
    assert tr.called_from("m.outer", None).calls == 1


def test_tracer_sees_every_call_site_binding(tmp_path):
    original = leakage.cli.run_leakage_experiment
    tr = Tracer()
    op = run_chain(tmp_path, "op", tr)
    assert op["exit"] == 0 and op["error"] is None
    assert leakage.cli.run_leakage_experiment is original  # uninstalled

    calls = {name: st.calls for name, st in tr.stats.items()}
    expected = {
        "cli.main": 1,
        "cli.build_instance": 1,
        "models.build_chain": 1,
        # the cli binding of dynamics.run_leakage_experiment
        "dynamics.run_leakage_experiment": 1,
        # cmd_run, run_leakage_experiment and check_instance: three bindings
        "bloch_solver.solve_bloch_series": 3,
        # run_leakage_experiment and check_instance
        "schrieffer_wolff.sw_transform": 2,
        "operator_core.inv_sqrt_psd": 2,
        "schrieffer_wolff.perturbed_projection": 2 * N_GROUPS,
        "verification.check_instance": 1,
        # build_instance, then inv_sqrt_psd inside each sw_transform
        "operator_core.herm_eig": 3,
        "bounds.bound_report": 1,
        # bound_report(1); solve_bloch_series v_norm + x (2 each, 3 solves);
        # sw_transform (1 each, 2 calls); check_instance v_norm + x (2)
        "bloch_solver.ProblemInstance.v_norm": 1 + 6 + 2 + 2,
        # _Evolution in run_leakage_experiment and check_instance (2), _assemble
        # per solve (3), sw_transform (2), check_instance's h and ||h|| (2)
        "bloch_solver.ProblemInstance.h": 2 + 3 + 2 + 2,
        "numpy.linalg.inv": 2,
        "numpy.linalg.eigvals": 1,
        "numpy.linalg.cond": 2 * N_GROUPS,
        "numpy.linalg.solve": 2 * N_GROUPS,
    }
    assert {k: calls.get(k, 0) for k in expected} == expected
    rle = "dynamics.run_leakage_experiment"
    assert tr.called_from("operator_core.operator_norm", rle).calls == 2 * N_TIMES
    assert tr.called_from("numpy.linalg.svd", rle).calls == N_GROUPS * N_TIMES
    # check_instance's linear-bound scan: 21 times x 7 groups through _Evolution
    assert tr.called_from("numpy.linalg.svd", "verification.check_instance").calls == 21 * N_GROUPS


def test_checker_rejects_perturbed_leakage(tmp_path):
    op = run_chain(tmp_path, "op")
    inst, _ = leakage.cli.build_instance(CHAIN_CFG)
    checker = make_checker("chain_run", CHAIN_CFG, inst.h0.entries, inst.v.entries)
    assert check_op(checker, op) == []

    path = Path(op["dir"]) / "series.json"
    series = json.loads(path.read_text())
    series["per_block_leakage"][1][8] += 1e-9   # a checked point (every 4th)
    path.write_text(json.dumps(series))
    fails = check_op(checker, op)
    assert len(fails) == 1 and "deviates from expm oracle" in fails[0]


def test_checker_rejects_wrong_model(tmp_path):
    inst, _ = leakage.cli.build_instance(CHAIN_CFG)
    h0 = np.array(inst.h0.entries)
    h0[0, 1] += 1e-12
    checker = make_checker("chain_run", CHAIN_CFG, h0, inst.v.entries)
    assert check_op(checker, {"error": None, "exit": 0, "dir": str(tmp_path)}) == [
        "program H0 differs from the model definition"
    ]


def test_traced_counts_repeat(tmp_path):
    runs = []
    for tag in ("a", "b"):
        tr = Tracer()
        op = run_chain(tmp_path, tag, tr)
        metrics = layer_metrics(tr, op, untraced_wall_s=1.0)
        runs.append({k: v["value"] for k, v in metrics.items() if v["unit"] != "s"
                     and k != "trace.overhead_frac"})
    assert runs[0] == runs[1]
    assert runs[0]["bloch_solver.series_order"] > 0


def test_layer_names_match_benchmark_json(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    tr = Tracer()
    op = run_chain(tmp_path, "op", tr)
    metrics = layer_metrics(tr, op, untraced_wall_s=1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in metrics.items()}


def test_rejected_config_fails_every_operation():
    # build_instance rejects a chain without n_cells: in the operations, in the
    # set-up probes and in the checker alike, and the run still reports
    bad = {**CHAIN_CFG, "params": {"disorder_strength": 0.01}}
    res, failures = run.measure("chain_run", bad, seconds=0, trace=0)
    result = run.summary(res, failures, trace=0)
    assert result["correct"] is False
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert "setup_s" not in result["metrics"]
    assert all(any("set-up probe exited" in msg for msg in f) for f in failures)


@pytest.mark.parametrize("seed", [0, 1])
def test_result_line_contract(seed):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "verify_suite",
         "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
