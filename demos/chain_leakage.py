"""Leakage of a disordered tight-binding ring against its eternal bound.

Builds the three-band ring, simulates the exact dynamics over a long
time window for several disorder seeds, and compares the observed
maximum leakage with the closed-form bound epsilon(x).  The bound is
time independent: no sampled time on any seed may exceed it.
"""

import numpy as np

from leakage import (
    ChainSpec,
    ProblemInstance,
    bound_report,
    build_chain,
    herm_eig,
    max_leakage,
    partition_by_threshold,
)
from leakage.bounds import SLACK


def main():
    times = np.linspace(0.0, 200.0, 2001)
    print("disordered ring, 50 unit cells, g = (1, 1.5, 2), ||V|| = 0.01")
    for seed in range(5):
        h0, v = build_chain(ChainSpec(n_cells=50, seed=seed))
        part = partition_by_threshold(herm_eig(h0), 0.5)
        inst = ProblemInstance(h0, v, 1.0, part)
        peak = max_leakage(inst, times)
        epsilon = bound_report(inst.v_norm, inst.gamma, part.gap).epsilon
        print(
            f"  seed {seed}: eta = {part.gap:.4f}, "
            f"max leakage {peak:.5f} "
            f"<= bound {epsilon:.5f}, "
            f"violated: {'yes' if peak > epsilon + SLACK else 'no'}"
        )
    rep = bound_report(0.01, 1.0, part.gap)
    print(f"bound detail: x = {rep.x:.5f}, delta = {rep.delta:.5f}, "
          f"epsilon = {rep.epsilon:.5f}, linear envelope {rep.leakage_linear:.5f}")


if __name__ == "__main__":
    main()
