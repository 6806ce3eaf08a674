"""Child process that runs the program; started by ``run.py``.

``worker.py setup ROOT CONFIG`` times, in this fresh interpreter, the import
of ``leakage`` and ``cli.build_instance`` on the config, and prints the
seconds.  numpy is imported before the clock starts: its import is not the
program's set-up, and it would dwarf it.

``worker.py ops ROOT WORKLOAD CONFIG WORKDIR SECONDS TRACE`` runs the
workload's CLI operation in-process through ``leakage.cli.main(argv)``
until ``SECONDS`` have passed (at least ``MIN_TIMED`` operations).  After
each operation it starts ``PROBES_PER_OP`` ``setup`` probes, so both kinds
of sample are spread over the whole window rather than bunched at its
start: on a shared host that slows down in episodes of many seconds, that
keeps one episode from deciding a run.  A probe that fails leaves no
sample and fails its operation.  When ``TRACE`` is 1 one more operation
runs under the tracer.  Each operation writes into its own directory under
``WORKDIR``; the records and the layer metrics go to
``WORKDIR/result.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from layers import layer_metrics
from tracer import Tracer
from workloads import WORKLOADS

MIN_TIMED = 3
PROBES_PER_OP = 2
PROBE_TIMEOUT_S = 60


def import_program(root: Path):
    """Import ``leakage`` from ``ROOT/src`` and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import leakage.cli

    if Path(leakage.__file__).resolve().parent != (src / "leakage").resolve():
        raise ImportError(f"leakage imported from {leakage.__file__}, not {src}")
    return leakage.cli


def setup(root: Path, config: Path) -> None:
    import numpy  # noqa: F401  (a dependency's import, not the program's set-up)

    cfg = json.loads(config.read_text())
    start = time.perf_counter()
    cli = import_program(root)
    cli.build_instance(cfg)
    print(repr(time.perf_counter() - start))


def probe(root: Path, config: Path) -> tuple[float | None, str | None]:
    """``(seconds, None)`` of one ``setup`` run in a fresh interpreter, or
    ``(None, reason)`` when it failed."""
    try:
        proc = subprocess.run([sys.executable, __file__, "setup", str(root), str(config)],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"set-up probe exceeded {PROBE_TIMEOUT_S} s"
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return None, f"set-up probe exited with {proc.returncode}: {last}"
    return float(proc.stdout), None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_op(cli, argv, out_dir: Path) -> dict:
    """One CLI call; a raised exception is recorded, never propagated."""
    out_dir.mkdir()
    stdout, stderr = io.StringIO(), io.StringIO()
    error = code = None
    start, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)   # looked up per call, so a traced main is used
    except (Exception, SystemExit):
        error = traceback.format_exc()
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    written = sum(p.stat().st_size for p in out_dir.iterdir() if p.name != "summary.json")
    (out_dir / "stdout.txt").write_text(stdout.getvalue())
    return {"dir": str(out_dir), "exit": code, "error": error, "wall_s": wall,
            "cpu_s": cpu, "output_bytes": written}


def ops(root: Path, workload: str, config: Path, work: Path, seconds: float, trace: bool):
    wl = WORKLOADS[workload]
    start = time.perf_counter()
    try:
        cli = import_program(root)
    except Exception:  # a program that cannot be imported fails its one operation
        op = {"dir": str(work / "op0"), "exit": None, "error": traceback.format_exc(),
              "wall_s": time.perf_counter() - start}
        (work / "result.json").write_text(json.dumps({"ops": [op], "peak_rss_mb": peak_rss_mb()}))
        return

    def one(tag: str) -> dict:
        out = work / tag
        return run_op(cli, wl.argv(str(config), str(out)), out)

    timed = []
    start = time.perf_counter()
    while len(timed) < MIN_TIMED or time.perf_counter() - start < seconds:
        op = one(f"op{len(timed)}")
        probes = [probe(root, config) for _ in range(PROBES_PER_OP)]
        op["setup_s"] = [s for s, _ in probes if s is not None]
        op["setup_error"] = next((e for _, e in probes if e), None)
        timed.append(op)
    result = {
        "ops": timed,
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = one("traced")
        finally:
            tracer.uninstall()
        result["ops"].append(traced)
        untraced = statistics.fmean(op["wall_s"] for op in timed)  # as wall_s
        result["layers"] = layer_metrics(tracer, traced, untraced)
    (work / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    mode, root = sys.argv[1], Path(sys.argv[2])
    if mode == "setup":
        setup(root, Path(sys.argv[3]))
    else:
        ops(root, sys.argv[3], Path(sys.argv[4]), Path(sys.argv[5]),
            float(sys.argv[6]), sys.argv[7] == "1")
