"""Deterministic three-step splitting solver with full per-iteration sweeps.

Each iteration evaluates the global prox at the averaged state, one prox and
one gradient per term, and advances every row of z; the average is then
rebuilt with the fixed-chunk reduction, so its summation order, and with it
every logged byte, is the same on every rerun.  Only z is stored across
iterations.
"""

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (ProblemSpec, ResidualReport, SolverState,
                   _require_finite, _term_points, chunked_row_mean,
                   initial_state, objective)
from .io import MetricsLog

__all__ = ["SolveOptions", "RunResult", "resolve_alpha", "ppg_step",
           "ppg_run"]


def _is_int(value) -> bool:
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool))


@dataclass
class SolveOptions:
    """Knobs shared by all solver runs.

    ``alpha=None`` selects 1/L from the problem's Lipschitz bound.  The run
    stops when the root-mean-square residual per entry (||p(z)|| /
    sqrt(n*d) for the splitting solvers) drops to ``tol``, a finite
    nonnegative number; 0 disables early stopping.  Full sweeps test it
    every iteration, single-term solvers at their recorded rows.
    ``max_iters`` is a nonnegative int.  ``record_every=None`` uses the
    solver's natural cadence: every iteration for full sweeps, once per
    epoch for single-term sweeps; explicit values must be ints of at
    least 1.  ``threads`` has no effect: nothing reads it, and it stays
    only until the benchmark's jobs stop passing it (ROADMAP item 6).
    """

    alpha: float | None = None
    max_iters: int = 1000
    tol: float = 0.0
    ergodic: bool = False
    record_every: int | None = None
    threads: int = 0

    def __post_init__(self):
        if not _is_int(self.max_iters) or self.max_iters < 0:
            raise ValueError("max_iters must be a nonnegative int, got "
                             f"{self.max_iters!r}")
        if not 0.0 <= self.tol < math.inf:
            raise ValueError(f"tol must be nonnegative and finite, got "
                             f"{self.tol}")
        if self.record_every is not None and (
                not _is_int(self.record_every) or self.record_every < 1):
            raise ValueError("record_every must be an int of at least 1, "
                             f"got {self.record_every!r}")


@dataclass
class RunResult:
    """Run output: the recovered point, its metrics, and the final state."""

    x: np.ndarray
    log: MetricsLog
    converged: bool
    state: SolverState
    ergodic: np.ndarray | None = None


class _Ergodic:
    """Running sum of the prox-r points; their average is the ergodic
    iterate, whose objective gap decays at the faster 1/k rate."""

    def __init__(self, dim: int):
        self.total = np.zeros(dim)
        self.count = 0

    def add(self, x_half: np.ndarray):
        self.total += x_half
        self.count += 1

    def average(self) -> np.ndarray | None:
        return self.total / self.count if self.count else None


# -- run driver ---------------------------------------------------------------
#
# Every solver supplies only its update and its residual; the two loops below
# own the record cadence, the tolerance test and the metrics rows.  A
# solver's residual divided by its ``scale`` is the root-mean-square residual
# per entry, which is what ``SolveOptions.tol`` bounds.  Both loops also say
# why they stopped: "tol" when the tolerance was met, "budget" when
# ``max_iters`` ran out first; solvers record it as ``metadata["stop"]``.


def _report(problem: ProblemSpec, k: int, resid: float, point: np.ndarray,
            epoch: float, x_ref: np.ndarray | None = None,
            wall_time_s: float | None = None) -> ResidualReport:
    """The metrics row for iteration ``k``, reporting on ``point``."""
    return ResidualReport(
        k=k,
        residual_norm=resid,
        objective=objective(point, problem),
        dist_to_ref=None if x_ref is None else float(
            np.linalg.norm(point - x_ref)),
        wall_time_s=wall_time_s,
        epoch=epoch,
    )


def _sweep_loop(problem: ProblemSpec, opts: SolveOptions, step,
                scale: float, x_ref: np.ndarray | None = None):
    """Loop of the full-sweep solvers (ppg, prox-grad, ADMM).

    ``step()`` advances one iteration and returns its residual norm and the
    point its row reports on.  The tolerance is tested every iteration;
    rows are kept every ``record_every`` iterations (default 1), at the stop
    and at the last iteration.  Returns the rows, whether the run
    converged, the number of iterations taken and the stop reason.
    """
    rec = opts.record_every or 1
    rows = []
    t0 = time.perf_counter()
    for k in range(opts.max_iters):
        resid, point = step()
        stopping = opts.tol > 0 and resid / scale <= opts.tol
        if k % rec == 0 or stopping or k == opts.max_iters - 1:
            rows.append(_report(problem, k, resid, point, float(k), x_ref,
                                time.perf_counter() - t0))
        if stopping:
            return rows, True, k + 1, "tol"
    return rows, opts.tol <= 0, opts.max_iters, "budget"


def _sampled_loop(problem: ProblemSpec, opts: SolveOptions, sampler, probe,
                  advance, scale: float, x_ref: np.ndarray | None = None):
    """Loop of the sampled-step solvers (sppg, spi, Finito).

    ``probe(k)`` returns the residual norm and the reported point after k
    steps; it runs every ``record_every`` steps (default once per epoch of
    n steps) and at the end, and the tolerance is tested there.  Between
    probes ``advance(k, indices)`` takes one block of steps.  Blocks end at
    record rows and epoch boundaries, and their indices are drawn per
    block, so memory does not grow with the step budget.  Returns the rows,
    whether the run converged, the number of steps taken and the stop
    reason.
    """
    n, total = problem.n, opts.max_iters
    rec = opts.record_every or n
    rows = []
    t0 = time.perf_counter()
    k = 0
    while True:
        if k % rec == 0 or k == total:
            resid, point = probe(k)
            rows.append(_report(problem, k, resid, point, k / n, x_ref,
                                time.perf_counter() - t0))
            if opts.tol > 0 and resid / scale <= opts.tol:
                return rows, True, k, "tol"
        if k >= total:
            return rows, opts.tol <= 0, k, "budget"
        nxt = min((k // rec + 1) * rec, (k // n + 1) * n, total)
        advance(k, sampler.take(nxt - k))
        k = nxt


def resolve_alpha(problem: ProblemSpec, alpha: float | None) -> float:
    """Validate or choose the step size against the gradient bound L.

    Defaults to 1/L.  With every f_i zero any finite alpha > 0 converges,
    so the default is 1.0 without comment; smooth terms without a bound
    also get 1.0, with a warning.  A non-finite alpha and steps at or
    beyond 2/L are rejected; steps at or beyond 1.5/L only draw a warning
    (convergence is still guaranteed below 2/L, the tighter constant is
    what the rate analysis uses).
    """
    lip = problem.lipschitz_bound()
    if alpha is None:
        if lip > 0:
            return 1.0 / lip
        if not problem.all_f_zero():
            warnings.warn(
                "no Lipschitz bound available; defaulting alpha to 1.0")
        return 1.0
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if lip > 0:
        if alpha >= 2.0 / lip:
            raise ValueError(
                f"alpha={alpha} is at or beyond 2/L={2.0 / lip}; divergent")
        if alpha >= 1.5 / lip:
            warnings.warn(
                f"alpha={alpha} exceeds 1.5/L={1.5 / lip}; outside the "
                "guaranteed step-size range")
    return float(alpha)


def _sweep(state: SolverState, problem: ProblemSpec):
    """One full sweep: returns ``(x_half, delta)`` for the pre-step state,
    where row i of ``delta`` is x_i - x_half, and advances z and zbar in
    place.  ||delta|| / alpha is the residual ||p(z)||.
    """
    alpha = state.alpha
    x_half = problem.r.prox(state.zbar, alpha)
    _require_finite(x_half, "prox of r")
    delta = _term_points(x_half, state.z, problem, alpha)
    delta -= x_half
    state.z += delta
    state.zbar = chunked_row_mean(state.z, problem.reduce_chunks)
    state.k += 1
    return x_half, delta


def ppg_step(state: SolverState, problem: ProblemSpec,
             x_ref: np.ndarray | None = None):
    """Advance one full iteration in place and report on the pre-step state.

    The report carries ||p(z^k)||_F, the objective at the prox-r point, and
    optionally the distance of that point to a reference solution.
    """
    x_half, delta = _sweep(state, problem)
    k = state.k - 1
    resid = float(np.linalg.norm(delta)) / state.alpha
    return state, _report(problem, k, resid, x_half, float(k), x_ref)


def ppg_run(problem: ProblemSpec, opts: SolveOptions,
            warm_start: np.ndarray | None = None,
            x_ref: np.ndarray | None = None) -> RunResult:
    """Run the full-sweep solver until the tolerance or iteration budget.

    Returns the prox-r point of the final state, the metrics log, and (when
    requested) the ergodic average of the prox-r points.
    """
    alpha = resolve_alpha(problem, opts.alpha)
    state = initial_state(problem, alpha, warm_start)
    erg = _Ergodic(problem.dim) if opts.ergodic else None

    # The previous sweep's arrays stay alive until the next sweep has built
    # its own, as they would in an inline loop.  Freed earlier, the n x d
    # blocks go back to the OS (glibc trims the heap top) and are faulted in
    # again every sweep: about 20x the page faults and +15% wall time at
    # n=8192, d=128.
    last = None

    def step():
        nonlocal last
        last = x_half, delta = _sweep(state, problem)
        if erg is not None:
            erg.add(x_half)
        return float(np.linalg.norm(delta)) / alpha, x_half

    rows, converged, _, stop = _sweep_loop(
        problem, opts, step, math.sqrt(problem.n * problem.dim), x_ref)
    x_out = problem.r.prox(state.zbar, alpha)
    log = MetricsLog(rows=rows, metadata={
        "solver": "ppg", "alpha": alpha, "problem_kind": problem.kind,
        "n": problem.n, "dim": problem.dim,
        "sweep": "batched" if problem.batched_sweep() else "per-term",
        "stop": stop,
    })
    return RunResult(x=x_out, log=log, converged=converged, state=state,
                     ergodic=None if erg is None else erg.average())
