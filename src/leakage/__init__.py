"""Eternal leakage bounds for gapped perturbed Hamiltonians.

Block-diagonalizes H = gamma*H0 + V through the perturbative Bloch wave
operator and the Schrieffer-Wolff transformation, evaluates the
time-independent leakage and evolution-distance bounds, and verifies
them against directly simulated dynamics on built-in models.
"""

from .operator_core import (
    OperatorMatrix,
    operator_norm,
    herm_eig,
    inv_sqrt_psd,
)
from .spectral_partition import (
    SpectralPartition,
    partition_by_threshold,
    partition_by_intervals,
)
from .bloch_solver import (
    ProblemInstance,
    BlochSolution,
    solve_bloch_series,
)
from .schrieffer_wolff import SWSolution, sw_transform, perturbed_projection
from .bounds import (
    BoundReport,
    bound_report,
    delta_of,
    epsilon_of,
    catalan,
    sw_distance_bound,
)
from .dynamics import (
    LeakageReport,
    SweepResult,
    run_leakage_experiment,
    max_leakage,
    gamma_scaling_sweep,
    truncation_convergence_study,
)
from .models import (
    ChainSpec,
    HarmonicChainSpec,
    TransmonSpec,
    build_chain,
    build_harmonic_chain,
    transmon_bandgap,
    transmon_perturbation_norm,
    harmonic_chain_bound,
    transmon_leakage_bound,
)
from .verification import run_suite, check_instance, random_instance

__all__ = [
    "OperatorMatrix", "operator_norm", "herm_eig", "inv_sqrt_psd",
    "SpectralPartition", "partition_by_threshold", "partition_by_intervals",
    "ProblemInstance", "BlochSolution", "solve_bloch_series",
    "SWSolution", "sw_transform", "perturbed_projection",
    "BoundReport", "bound_report", "delta_of", "epsilon_of", "catalan",
    "sw_distance_bound",
    "harmonic_chain_bound", "transmon_leakage_bound",
    "LeakageReport", "SweepResult", "run_leakage_experiment", "max_leakage",
    "gamma_scaling_sweep", "truncation_convergence_study",
    "ChainSpec", "HarmonicChainSpec", "TransmonSpec", "build_chain",
    "build_harmonic_chain",
    "transmon_bandgap", "transmon_perturbation_norm",
    "run_suite", "check_instance", "random_instance",
]

__version__ = "0.1.0"
