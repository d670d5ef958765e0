"""Benchmark workloads: which experiments run, with which config text.

Each workload is a list of (experiment, overrides). The overrides pin the
problem sizes the workload is named for; every other key keeps the
acceptance default of ``meyers_lab.experiments``. The benchmark seed reaches
the program only as the config's ``seed`` key, reduced modulo
``REFERENCE_SEEDS`` so that every seed has stored reference output.
"""
from __future__ import annotations

REFERENCE_SEEDS = 10

WORKLOADS = {
    # the Galerkin side: mesh, fem, spaces and reference do the work
    "galerkin": [(exp, {}) for exp in ("meyers_sweep", "counterexample",
                                       "holder_convergence", "rate_theta",
                                       "embeddings")],
    # Poincare eigensolves and the all-centers Dijkstra of the graph layer
    "geometry": [("geometry", {"levels": "3,4,5,6", "sample_count": "all"})],
    # the semigroup contour: one sparse LU per contour node
    "heat_kernel": [("kernel_bounds", {"box": "48", "t_grid": "0.5,1,2,4,8"})],
    # the resolvent path: one LU per lambda serving many solves
    "resolvent": [("resolvent_sweep", {"box": "64"})],
}


def experiment_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def config_text(experiment: str, overrides: dict, seed: int, out: str) -> str:
    """The flat ``key = value`` config a user would write for this run."""
    lines = [f"experiment = {experiment}", f"seed = {experiment_seed(seed)}",
             f"out = {out}"]
    lines += [f"{key} = {value}" for key, value in overrides.items()]
    return "\n".join(lines) + "\n"
