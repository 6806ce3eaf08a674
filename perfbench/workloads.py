"""The benchmark's workloads: one CLI operation each, configured from a seed.

A workload maps a seed to a config dict (written to ``config.json``) and
to the ``leakage`` argv that runs it.  The program sees only that config.
DESIGN.md explains why each workload exists and how its size was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

GAMMAS = (10, 30, 100, 300, 1000)
CHAIN_POINTS = 201
PAPER_CHAIN_POINTS = 2001
HARMONIC_SITES = 8
PAPER_HARMONIC_SITES = 12


@dataclass(frozen=True)
class Workload:
    command: str                                # leakage subcommand
    config: Callable[[int, bool], dict]         # (seed, paper_size) -> config
    seeded: bool = True                         # False when the model takes no seed

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        argv = [self.command, "--config", config_path]
        if self.command == "run":
            argv += ["--out", out_dir]
        elif self.command == "sweep":
            argv += ["--gamma-list", ",".join(str(g) for g in GAMMAS)]
        return argv


def chain_config(seed: int, paper_size: bool) -> dict:
    """The 50-cell, three-band chain of the paper's headline experiment."""
    return {
        "model": "chain",
        "params": {"n_cells": 50, "disorder_strength": 0.01},
        "gamma": 1.0,
        "partition": {"threshold": 0.5},
        "t_grid": {"t_max": 200.0,
                   "n_points": PAPER_CHAIN_POINTS if paper_size else CHAIN_POINTS},
        "seed": seed,
    }


def _chain_run(seed, paper_size):
    cfg = chain_config(seed, paper_size)
    cfg["outputs"] = [
        {"kind": "leakage", "path": "series.csv", "format": "csv"},
        {"kind": "leakage", "path": "series.json", "format": "json"},
    ]
    return cfg


def _verify_suite(seed, paper_size):
    # the 4-cell chain is the suite's extra (101st) instance
    return {
        "model": "chain",
        "params": {"n_cells": 4, "disorder_strength": 0.01},
        "gamma": 1.0,
        "partition": {"threshold": 0.5},
        "seed": seed,
        "verify_instances": 100,
    }


def _deep_series(seed, paper_size):
    return {
        "model": "harmonic",
        "params": {"n_sites": PAPER_HARMONIC_SITES if paper_size else HARMONIC_SITES,
                   "omega": 10.0, "g": 1.0, "fock_cutoff": 15, "v0": 0.3},
        "gamma": 1.0,
        "partition": {},  # the model's own band intervals
        "t_grid": {"t_max": 50.0, "n_points": 21},
        # a small JSON series, needed to check every point and both distances
        "outputs": [{"kind": "leakage", "path": "series.json", "format": "json"}],
    }


WORKLOADS = {
    "chain_run": Workload("run", _chain_run),
    "gamma_sweep": Workload("sweep", chain_config),
    "verify_suite": Workload("verify", _verify_suite),
    "deep_series": Workload("run", _deep_series, seeded=False),
}
