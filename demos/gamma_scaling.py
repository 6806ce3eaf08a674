"""Scaling of the worst-case leakage with the drift strength gamma.

Both the sharp bound epsilon(x) and the observed maximum leakage decay
like 1/gamma once gamma clears the convergence threshold; the sweep
fits the log-log slope and prints both series side by side.
"""

import numpy as np

from leakage import (
    ChainSpec,
    ProblemInstance,
    build_chain,
    epsilon_of,
    gamma_scaling_sweep,
    herm_eig,
    partition_by_threshold,
)


def main():
    h0, v = build_chain(ChainSpec(n_cells=50, seed=0))
    part = partition_by_threshold(herm_eig(h0), 0.5)
    template = ProblemInstance(h0, v, 1.0, part)
    gammas = [10.0, 30.0, 100.0, 300.0, 1000.0]
    times = np.linspace(0.0, 200.0, 2001)
    res = gamma_scaling_sweep(template, gammas, times)
    print("gamma      max leakage    bound epsilon")
    for g, m in zip(res.gammas, res.max_leakages):
        bound = epsilon_of(template.v_norm / (g * part.gap))
        print(f"{g:7.0f}    {m:.3e}      {bound:.3e}")
    print(f"fitted log-log slope: {res.slope:.4f} (1/gamma decay is -1)")


if __name__ == "__main__":
    main()
