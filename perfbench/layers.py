"""Per-layer metrics of one traced operation, one group per module of
``src/leakage/`` plus ``numpy.linalg``.

Names are ``<module>.<function>.<stat>``: ``calls`` (count), ``s`` (total
seconds), ``self_s`` (total minus nested package spans).  Derived figures:

* ``spectral_partition.partition.s``: both partition constructors.
* ``dynamics.distance_norms``: ``operator_norm`` called directly by
  ``run_leakage_experiment`` (the d_Bloch / d_SW series).
* ``dynamics.leakage_kernel``: SVDs whose innermost package span is
  ``run_leakage_experiment`` (the per-(block, t) leakage kernel).
* ``bloch_solver.series_order``: sum of the ``order`` of every returned
  Bloch solution.
* ``dynamics.output_bytes``: bytes of the series files the operation wrote.
* ``trace.overhead_frac``: traced ``cli.main`` seconds over the untraced
  ``wall_s`` of the same run (the mean of its operations), minus one.
"""

from __future__ import annotations

from tracer import NUMPY_LINALG

RLE = "dynamics.run_leakage_experiment"

# (span, stats) reported straight from the tracer, in report order
SPANS = [
    ("cli.main", ("s",)),
    ("cli.build_instance", ("s",)),
    ("models.build_chain", ("s",)),
    ("models.build_harmonic_chain", ("s",)),
    ("spectral_partition.projection", ("calls",)),
    ("operator_core.herm_eig", ("calls", "s")),
    ("operator_core.operator_norm", ("calls", "s")),
    ("operator_core.inv_sqrt_psd", ("calls",)),
    ("bloch_solver.solve_bloch_series", ("calls", "s")),
    ("bloch_solver.ProblemInstance.v_norm", ("calls",)),
    ("bloch_solver.ProblemInstance.h", ("calls",)),
    ("schrieffer_wolff.sw_transform", ("calls", "s")),
    ("schrieffer_wolff.perturbed_projection", ("calls",)),
    (RLE, ("calls", "s", "self_s")),
    ("dynamics.LeakageReport.to_json", ("s",)),
    ("dynamics.LeakageReport.to_csv", ("s",)),
    ("verification.run_suite", ("s",)),
    ("verification.check_instance", ("calls", "s", "self_s")),
    ("verification.random_instance", ("s",)),
    ("bounds.catalan_tail", ("calls", "s")),
    ("bounds.bound_report", ("calls",)),
    *((f"numpy.linalg.{f}", ("calls", "s") if f == "svd" else ("calls",)) for f in NUMPY_LINALG),
]


def layer_metrics(tracer, traced_op: dict, untraced_wall_s: float) -> dict:
    """``{name: {"value": v, "unit": u}}`` for every per-layer metric."""
    out = {}

    def add(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for span, stats in SPANS:
        st = tracer.stat(span)
        for stat in stats:
            add(f"{span}.{stat}", getattr(st, stat), "count" if stat == "calls" else "s")
    add("cli.main.cpu_s", traced_op["cpu_s"], "s")
    add("spectral_partition.partition.s",
        tracer.stat("spectral_partition.partition_by_threshold").s
        + tracer.stat("spectral_partition.partition_by_intervals").s, "s")
    add("bloch_solver.series_order", tracer.series_order, "count")
    dist = tracer.called_from("operator_core.operator_norm", RLE)
    add("dynamics.distance_norms.calls", dist.calls, "count")
    add("dynamics.distance_norms.s", dist.s, "s")
    kernel = tracer.called_from("numpy.linalg.svd", RLE)
    add("dynamics.leakage_kernel.svd_calls", kernel.calls, "count")
    add("dynamics.leakage_kernel.svd_s", kernel.s, "s")
    add("dynamics.output_bytes", traced_op["output_bytes"], "bytes")
    add("trace.overhead_frac", tracer.stat("cli.main").s / untraced_wall_s - 1.0, "frac")
    return out
