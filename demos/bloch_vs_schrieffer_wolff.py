"""Two-level worked example: exact dynamics vs both effective generators.

The 2x2 instance H = diag(0, 1) + 0.05 sigma_x has closed-form
everything, which makes it a transparent check of the whole pipeline:
the Bloch series sums to the exact wave operator, the Schrieffer-Wolff
rotation diagonalizes H, and both evolution distances stay under their
eternal bounds at every sampled time.
"""

import numpy as np

from leakage import (
    OperatorMatrix,
    ProblemInstance,
    delta_of,
    herm_eig,
    partition_by_threshold,
    run_leakage_experiment,
    solve_bloch_series,
    sw_transform,
)


def main():
    h0 = OperatorMatrix(np.diag([0.0, 1.0]))
    v = OperatorMatrix(0.05 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    part = partition_by_threshold(herm_eig(h0), 0.5)
    inst = ProblemInstance(h0, v, 1.0, part)

    sol = solve_bloch_series(inst, tol=1e-14)
    print(f"Bloch series: truncation order {sol.order}, "
          f"tail bound {sol.tail_bound:.2e}, delta bound {delta_of(inst.x):.5f}")
    print("H_Bloch diagonal:", np.round(np.diag(sol.h_bloch).real, 8))

    sw = sw_transform(inst, sol)
    print("H_SW diagonal:   ", np.round(np.diag(sw.h_sw).real, 8))
    print("exact eigenvalues:", np.round(np.linalg.eigvalsh(inst.h), 8))

    times = np.linspace(0.0, 100.0, 1001)
    rep = run_leakage_experiment(inst, times)
    print(f"max leakage        {rep.max_leakage:.6f} <= epsilon {rep.bounds.epsilon:.6f}")
    print(f"max Bloch distance {rep.d_bloch_series.max():.6f} <= epsilon")
    print(f"max SW distance    {rep.d_sw_series.max():.6f} "
          f"<= D_SW {rep.bounds.d_sw_bound:.6f}")


if __name__ == "__main__":
    main()
