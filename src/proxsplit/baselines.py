"""Reference solvers used for reduction tests and experiment comparisons.

Each baseline validates that the problem actually lies in its class and
emits the same metrics schema as the main solvers so curves overlay
directly.  Where a baseline is a reduction of the splitting iteration, it
takes the sweep's term points a block of rows at a time, summed in the
fixed chunked row-mean order, so paired runs agree to rounding.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import core, kernels
from .core import (ProblemSpec, SolverState, _block_points, _call_term,
                   _checked_input, _require_finite, _require_finite_rows,
                   _row_blocks, _sweep_blocks, initial_state)
from .ppg import (RunResult, SolveOptions, _sampled_loop, _sweep_loop,
                  resolve_alpha)

__all__ = ["DiminishingStep", "proximal_gradient_run", "consensus_admm_run",
           "stochastic_prox_iteration_run", "finito_run"]


@dataclass(frozen=True)
class DiminishingStep:
    """Step-size rule a_k = c / k; strictly decreasing to zero."""

    c: float

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise ValueError(f"c must be positive and finite, got {self.c}")

    def at(self, k: int) -> float:
        return self.c / k


def _refuse_ergodic(opts: SolveOptions, solver: str):
    """Reject ``ergodic=True``, which only ppg and sppg honour."""
    if opts.ergodic:
        raise ValueError(f"{solver} returns no ergodic average; only ppg "
                         "and sppg take ergodic=True")


def _block_mean(problem: ProblemSpec, block_rows) -> np.ndarray:
    """Row mean of the n rows that ``block_rows(lo, hi)`` gives a sweep
    block at a time, summed by the reduce chunks in order as
    :func:`core.chunked_row_mean` sums a whole array, which is not made."""
    n, d = problem.n, problem.dim
    total = np.zeros(d)
    for lo, hi, chunks in _row_blocks(n, d, problem.reduce_chunks,
                                      core.SWEEP_BLOCK_BYTES):
        rows = block_rows(lo, hi)
        for c0, c1 in chunks:
            total += rows[c0 - lo:c1 - lo].sum(axis=0)
    return total / n


def proximal_gradient_run(problem: ProblemSpec, opts: SolveOptions,
                          x0: np.ndarray | None = None,
                          x_ref: np.ndarray | None = None) -> RunResult:
    """Forward-backward iteration x <- prox_r(mean_i(x - alpha*grad f_i(x))).

    Only valid when every per-term nonsmooth function is zero.  The forward
    steps are averaged with the same fixed-chunk reduction as the splitting
    solver, so on its domain the two produce matching iterates.
    """
    _refuse_ergodic(opts, "proximal-gradient")
    if not problem.all_g_zero():
        raise ValueError("proximal-gradient requires every per-term "
                         "nonsmooth function to be zero")
    alpha = resolve_alpha(problem, opts.alpha)
    x = problem.r.prox(np.zeros(problem.dim), alpha) if x0 is None \
        else _checked_input(x0, (problem.dim,), "x0")

    def step():
        nonlocal x
        mean = _block_mean(problem, lambda lo, hi: _block_points(
            x, np.tile(x, (hi - lo, 1)), lo, problem, alpha))
        x_next = problem.r.prox(mean, alpha)
        _require_finite(x_next, "prox of r")
        point, x = x, x_next
        return float(np.linalg.norm(point - x)) / alpha, point

    log, converged, iters = _sweep_loop(
        problem, opts, step, math.sqrt(problem.dim),
        {"solver": "prox-grad", "alpha": alpha}, x_ref)
    state = SolverState(z=x[None, :].copy(), zbar=x.copy(), alpha=alpha,
                        k=iters)
    return RunResult(x=x, log=log, converged=converged, state=state)


def consensus_admm_run(problem: ProblemSpec, opts: SolveOptions,
                       x_ref: np.ndarray | None = None) -> RunResult:
    """Consensus ADMM over per-term copies with the global term handled as
    an extra prox block.

    Requires every smooth term to be zero.  The penalty is chosen so both
    prox evaluations use step ``alpha``, matching the per-iteration cost of
    the splitting solver.  The x_i = prox_{a g_i}(zc - u_i) are the sweep's
    term points, batched where the problem has the hook.  After an
    iteration the state is the splitting state z_i = u_i + zc, zbar its
    row mean, so ppg warm-started from it continues the run.
    """
    _refuse_ergodic(opts, "consensus ADMM")
    if not problem.all_f_zero():
        raise ValueError("consensus ADMM requires every smooth term "
                         "to be zero")
    alpha = resolve_alpha(problem, opts.alpha)
    n, d = problem.n, problem.dim
    x_blocks = np.zeros((n, d))
    u = np.zeros((n, d))
    zc = problem.r.prox(np.zeros(d), alpha)
    ybar = zc.copy()

    def points_plus_u(lo, hi):
        v = np.subtract(zc, u[lo:hi], out=x_blocks[lo:hi])
        x_blocks[lo:hi] = _block_points(zc, v, lo, problem, alpha)
        return x_blocks[lo:hi] + u[lo:hi]

    def step():
        nonlocal zc, ybar, x_blocks, u
        ybar = _block_mean(problem, points_plus_u)
        _require_finite_rows(x_blocks, "prox of g")
        zc = problem.r.prox(ybar, alpha)
        _require_finite(zc, "prox of r")
        x_blocks -= zc
        u += x_blocks
        return float(np.linalg.norm(x_blocks)) / alpha, zc

    log, converged, iters = _sweep_loop(
        problem, opts, step, math.sqrt(n * d),
        {"solver": "admm", "alpha": alpha}, x_ref)
    state = SolverState(np.add(u, zc, out=u), ybar, alpha, iters)
    return RunResult(x=zc, log=log, converged=converged, state=state)


def stochastic_prox_iteration_run(problem: ProblemSpec, step: DiminishingStep,
                                  sampler, opts: SolveOptions,
                                  x0: np.ndarray | None = None,
                                  x_ref: np.ndarray | None = None) -> RunResult:
    """One prox of a sampled term per step with step sizes c/k.

    Requires a prox-only problem (every smooth term and the global term
    zero); the diminishing schedule is the defining feature, so a constant
    step configuration is rejected by type.  Problems whose rank-one rows
    :func:`kernels.rank_one_rows` serves to spi (folded SVM, GLM) take their
    steps through :func:`kernels.rank_one_spi_block`;
    ``log.metadata["path"]`` says which ran: ``kernel`` or ``per-term``.
    The residual is the unadvanced sweep (:func:`core._sweep_blocks`) at
    z_i = x with step a_k, over sqrt(n).
    """
    if not isinstance(step, DiminishingStep):
        raise TypeError("step must be a DiminishingStep (the diminishing "
                        "schedule is required; constant steps are the "
                        "splitting solvers' regime)")
    _refuse_ergodic(opts, "stochastic proximal iteration")
    if not problem.all_f_zero():
        raise ValueError("stochastic proximal iteration requires every "
                         "smooth term to be zero")
    if not problem.r.is_zero:
        raise ValueError("stochastic proximal iteration requires the "
                         "global term to be zero")
    x = np.zeros(problem.dim) if x0 is None \
        else _checked_input(x0, (problem.dim,), "x0")
    struct = kernels.rank_one_rows(problem, "spi")

    def advance(k, block):
        nonlocal x
        if struct is not None:
            kernels.rank_one_spi_block(x, struct, step.c, k, block)
        else:
            for t, i in enumerate(block):
                i = int(i)
                x = _call_term(problem.g[i].prox, i, "prox of g", x,
                               step.at(k + t + 1))

    def probe(k):
        # with r zero, each row's sweep point 2 x_half - z_i is x and its
        # step prox_{a_k g_i}(x) - x; over sqrt(n) the norm is a mean over
        # terms, and sqrt(d) below makes it per entry
        z = np.broadcast_to(x, (problem.n, problem.dim))
        resid, x_half = _sweep_blocks(
            SolverState(z, x, step.at(max(k, 1))), problem, advance=False)
        return resid / math.sqrt(problem.n), x_half

    log, converged, steps = _sampled_loop(
        problem, opts, sampler, probe, advance, math.sqrt(problem.dim), {
            "solver": "spi", "c": step.c,
            "path": "per-term" if struct is None else "kernel"}, x_ref)
    state = SolverState(z=x[None, :].copy(), zbar=x.copy(), alpha=step.c,
                        k=steps)
    return RunResult(x=x, log=log, converged=converged, state=state)


def finito_run(problem: ProblemSpec, sampler, opts: SolveOptions,
               x_ref: np.ndarray | None = None) -> RunResult:
    """Variance-reduced incremental gradient method with a constant step.

    Requires a smooth-only problem (every nonsmooth term zero).  Keeps one
    d-vector per term; each step refreshes the sampled term's vector at the
    current table average.  Serves as the independent oracle for the
    stochastic splitting solver's smooth-only reduction.
    """
    _refuse_ergodic(opts, "finito")
    if not problem.all_g_zero():
        raise ValueError("finito requires every per-term nonsmooth "
                         "function to be zero")
    if not problem.r.is_zero:
        raise ValueError("finito requires the global term to be zero")
    alpha = resolve_alpha(problem, opts.alpha)
    n = problem.n
    state = initial_state(problem, alpha)

    def advance(k, block):
        z, w = state.z, state.zbar
        for i in block:
            i = int(i)
            phi = w.copy()
            z_new = phi - alpha * _call_term(problem.f[i].gradient, i,
                                             "gradient of f", phi)
            w += (z_new - z[i]) * (1.0 / n)
            z[i] = z_new

    log, converged, state.k = _sampled_loop(
        problem, opts, sampler, lambda k: _sweep_blocks(state, problem, False),
        advance, math.sqrt(n * problem.dim),
        {"solver": "finito", "alpha": alpha}, x_ref)
    return RunResult(x=state.zbar.copy(), log=log, converged=converged,
                     state=state)
