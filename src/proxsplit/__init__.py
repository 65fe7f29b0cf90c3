"""Solvers for composite convex sums r(x) + (1/n) sum_i (f_i(x) + g_i(x)).

The deterministic splitting solver sweeps every term each iteration; its
stochastic twin updates one sampled term per step at O(d) cost with a
constant step size.  A prox-operator toolkit, application builders, and
reference baselines round out the library; the ``proxsplit`` CLI drives
dataset generation and experiment runs.
"""

from .core import (ConvergenceError, NumericalError, ProblemSpec, ProxFn,
                   ResidualReport, SmoothFn, SolverError, SolverState,
                   objective, objective_gap, residual_map, zero_prox,
                   zero_smooth)
from .ppg import RunResult, SolveOptions, ppg_run, ppg_step
from .sppg import IndexSampler, SequenceSampler, sppg_run, sppg_step

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "NumericalError",
    "SolverError",
    "ProblemSpec",
    "ProxFn",
    "SmoothFn",
    "SolverState",
    "ResidualReport",
    "RunResult",
    "SolveOptions",
    "IndexSampler",
    "SequenceSampler",
    "objective",
    "objective_gap",
    "residual_map",
    "zero_prox",
    "zero_smooth",
    "ppg_run",
    "ppg_step",
    "sppg_run",
    "sppg_step",
    "__version__",
]
