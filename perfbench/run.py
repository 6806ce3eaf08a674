"""Benchmark of the ``leakage`` CLI on four workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload chain_run --seed 0 --seconds 10 --trace 0

Workloads: ``chain_run``, ``gamma_sweep``, ``verify_suite``, ``deep_series``
(see DESIGN.md).  With ``--trace 0`` the last stdout line reports the
end-to-end metrics ``wall_s``, ``setup_s`` and ``peak_rss_mb``; with
``--trace 1`` it reports the per-layer metrics of one traced operation.
Every operation's output is checked against independent oracles; the lines
before the result record the environment, sample counts and the error rate.
``--paper-size`` runs the paper's 2001-point chain grid and 12-site harmonic
chain instead (minutes per operation; for reproducing the design note's
counts, not for the timed runs).

Exit status is 0 when a result was printed, even if a check failed (then
``correct`` is false); anything else means the harness itself could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150
PAPER_SIZE_TIMEOUT_S = 1800

# pin BLAS before anything in this process imports numpy
os.environ.update(PINNED)
os.environ.pop("LEAKAGE_THREADS", None)

from workloads import WORKLOADS  # noqa: E402


def environment(load_at_start) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "threads": {k: os.environ.get(k) for k in PINNED},
        "LEAKAGE_THREADS": os.environ.get("LEAKAGE_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "loadavg_at_start": list(load_at_start),
    }


def run_worker(args, timeout) -> dict:
    """Run ``worker.py ops`` and return its result; SystemExit on failure."""
    cmd = [sys.executable, str(HERE / "worker.py"), "ops", *map(str, args)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: worker exceeded {timeout} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"error: worker exited with {proc.returncode}")
    return json.loads((args[3] / "result.json").read_text())


def checker_for(workload: str, cfg: dict):
    """The workload's output checker; one that fails every operation when the
    program cannot build the instance the checker needs."""
    from checks import ModelMismatch, make_checker

    if workload == "verify_suite":
        return make_checker(workload, cfg)
    from worker import import_program

    try:
        inst, _ = import_program(ROOT).build_instance(cfg)
    except Exception as exc:
        return ModelMismatch(f"program could not build the instance: {exc!r}")
    return make_checker(workload, cfg, inst.h0.entries, inst.v.entries)


def measure(workload: str, cfg: dict, seconds: float, trace: int, timeout=CHILD_TIMEOUT_S):
    """Run the worker on ``cfg`` and check every operation; returns the
    worker's result and each operation's list of failures."""
    from checks import check_op

    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
    try:
        config = work / "config.json"
        config.write_text(json.dumps(cfg))
        res = run_worker([ROOT, workload, config, work, seconds, trace], timeout)
        checker = checker_for(workload, cfg)
        failures = [check_op(checker, op) for op in res["ops"]]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            base.rmdir()
    return res, failures


def timed_walls(res: dict) -> list[float]:
    """Wall seconds of the untraced operations."""
    ops = res["ops"][:-1] if "layers" in res else res["ops"]
    return [op["wall_s"] for op in ops]


def setup_samples(res: dict) -> list[float]:
    """Seconds of every set-up probe of the run, in the order they ran."""
    return [t for op in res["ops"] for t in op.get("setup_s", [])]


def summary(res: dict, failures: list, trace: int) -> dict:
    """The result line.  ``setup_s`` is left out when no set-up probe
    succeeded; ``correct`` is false then."""
    failed = sum(1 for f in failures if f)
    if trace:
        metrics = res.get("layers", {})
    else:
        setup = setup_samples(res)
        metrics = {"wall_s": {"value": statistics.fmean(timed_walls(res)), "unit": "s"}}
        if setup:
            # fastest probe: probes last tens of ms, so each one falls wholly in
            # a quiet or a contended spell of the host, and contention only adds
            metrics["setup_s"] = {"value": min(setup), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}
    return {"correct": failed == 0, "attempted": len(res["ops"]), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--paper-size", action="store_true")
    args = ap.parse_args(argv)
    load = os.getloadavg()

    if not (ROOT / "src" / "leakage" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'leakage'}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    cfg = wl.config(args.seed, args.paper_size)
    timeout = PAPER_SIZE_TIMEOUT_S if args.paper_size else CHILD_TIMEOUT_S
    res, failures = measure(args.workload, cfg, args.seconds, args.trace, timeout)
    result = summary(res, failures, args.trace)

    ops, failed = res["ops"], result["failed"]
    walls, setup = timed_walls(res), setup_samples(res)
    seed_note = "chain disorder and suite seed" if wl.seeded else "unused: the model takes no seed"
    print("env: " + json.dumps(environment(load)))
    print(f"workload {args.workload} ({wl.command}), seed {args.seed} ({seed_note})"
          + (", paper size" if args.paper_size else ""))
    print(f"wall_s mean {statistics.fmean(walls):.4f} s, median {statistics.median(walls):.4f} s, "
          f"best {min(walls):.4f} s over {len(walls)} ops (first op {walls[0]:.4f} s)")
    if setup:
        print(f"setup_s best {min(setup):.4f} s, median {statistics.median(setup):.4f} s over "
              f"{len(setup)} fresh-interpreter probes")
    print(f"peak_rss_mb {res['peak_rss_mb']:.1f} MB")
    print(f"error_rate {failed}/{len(ops)} = {failed / len(ops):.3f}")
    print("op wall_s: " + " ".join(f"{t:.4f}" for t in walls))
    print("op setup_s: " + " ".join(",".join(f"{t:.4f}" for t in op.get("setup_s", [])) for op in ops))
    for op, fails in zip(ops, failures):
        for msg in fails:
            print(f"FAILED {Path(op['dir']).name}: {msg}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
