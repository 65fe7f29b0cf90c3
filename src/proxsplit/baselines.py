"""Reference solvers used for reduction tests and experiment comparisons.

Each baseline validates that the problem actually lies in its class and
emits the same metrics schema as the main solvers so curves overlay
directly.  Where a baseline coincides with a reduction of the splitting
iteration, the arithmetic is kept in the same order (notably the fixed
chunked row mean) so paired runs agree to rounding.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import (NumericalError, ProblemSpec, SolverState, _call_term,
                   _require_finite, _require_finite_rows, chunked_row_mean,
                   initial_state)
from .io import MetricsLog
from .ppg import (RunResult, SolveOptions, _sampled_loop, _sweep_loop,
                  resolve_alpha)
from .sppg import _probe

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


def proximal_gradient_run(problem: ProblemSpec, opts: SolveOptions,
                          x0: np.ndarray | None = None,
                          x_ref: np.ndarray | None = None) -> RunResult:
    """Forward-backward iteration x <- prox_r(mean_i(x - alpha*grad f_i(x))).

    Only valid when every per-term nonsmooth function is zero.  The forward
    steps are averaged with the same fixed-chunk reduction as the splitting
    solver, so on its domain the two produce matching iterates.
    """
    if not problem.all_g_zero():
        raise ValueError("proximal-gradient requires every per-term "
                         "nonsmooth function to be zero")
    alpha = resolve_alpha(problem, opts.alpha)
    x = problem.r.prox(np.zeros(problem.dim), alpha) if x0 is None \
        else np.array(x0, dtype=float, copy=True)
    rows_buf = np.empty((problem.n, problem.dim))

    def step():
        nonlocal x
        for i, fi in enumerate(problem.f):
            if fi.is_zero:
                rows_buf[i] = x
            else:
                rows_buf[i] = x - alpha * _call_term(
                    fi.gradient, i, "gradient of f", x)
        x_next = problem.r.prox(
            chunked_row_mean(rows_buf, problem.reduce_chunks), alpha)
        _require_finite(x_next, "prox of r")
        point, x = x, x_next
        return float(np.linalg.norm(point - x)) / alpha, point

    rows, converged, iters, stop = _sweep_loop(
        problem, opts, step, math.sqrt(problem.dim), x_ref)
    state = SolverState(z=x[None, :].copy(), zbar=x.copy(), alpha=alpha,
                        k=iters)
    log = MetricsLog(rows=rows, metadata={
        "solver": "prox-grad", "alpha": alpha, "problem_kind": problem.kind,
        "stop": stop})
    return RunResult(x=x, log=log, converged=converged, state=state)


def consensus_admm_run(problem: ProblemSpec, opts: SolveOptions,
                       x_ref: np.ndarray | None = None) -> RunResult:
    """Consensus ADMM over per-term copies with the global term handled as
    an extra prox block.

    Requires every smooth term to be zero.  The penalty is chosen so both
    prox evaluations use step ``alpha``, matching the per-iteration cost of
    the splitting solver.
    """
    if not problem.all_f_zero():
        raise ValueError("consensus ADMM requires every smooth term "
                         "to be zero")
    alpha = resolve_alpha(problem, opts.alpha)
    n, d = problem.n, problem.dim
    x_blocks = np.zeros((n, d))
    u = np.zeros((n, d))
    zc = problem.r.prox(np.zeros(d), alpha)

    def step():
        nonlocal zc, u
        for i, gi in enumerate(problem.g):
            v = zc - u[i]
            x_blocks[i] = v if gi.is_zero else _call_term(
                gi.prox, i, "prox of g", v, alpha)
        zc = problem.r.prox(
            chunked_row_mean(x_blocks + u, problem.reduce_chunks), alpha)
        _require_finite(zc, "prox of r")
        u += x_blocks - zc
        return float(np.linalg.norm(x_blocks - zc[None, :])) / alpha, zc

    rows, converged, iters, stop = _sweep_loop(problem, opts, step,
                                               math.sqrt(n * d), x_ref)
    state = SolverState(z=x_blocks + u, zbar=zc.copy(), alpha=alpha, k=iters)
    log = MetricsLog(rows=rows, metadata={
        "solver": "admm", "alpha": alpha, "problem_kind": problem.kind,
        "stop": stop})
    return RunResult(x=zc, log=log, converged=converged, state=state)


def stochastic_prox_iteration_run(problem: ProblemSpec, step: DiminishingStep,
                                  sampler, opts: SolveOptions,
                                  x0: np.ndarray | None = None,
                                  x_ref: np.ndarray | None = None) -> RunResult:
    """One prox of a sampled term per step with step sizes c/k.

    Requires a prox-only problem (every smooth term and the global term
    zero); the diminishing schedule is the defining feature, so a constant
    step configuration is rejected by type.  Problems carrying a rank-one
    structure (folded SVM, GLM) run through
    :func:`kernels.rank_one_spi_block`; ``log.metadata["path"]`` says
    which ran: ``kernel`` or ``per-term``.
    """
    if not isinstance(step, DiminishingStep):
        raise TypeError("step must be a DiminishingStep (the diminishing "
                        "schedule is required; constant steps are the "
                        "splitting solvers' regime)")
    if not problem.all_f_zero():
        raise ValueError("stochastic proximal iteration requires every "
                         "smooth term to be zero")
    if not problem.r.is_zero:
        raise ValueError("stochastic proximal iteration requires the "
                         "global term to be zero")
    x = np.zeros(problem.dim) if x0 is None else np.array(x0, dtype=float,
                                                          copy=True)
    # rank-one rows whose ridge is folded into the terms or zero; the split
    # SVM form keeps its ridge in r, which spi rejects above
    s = problem.structure
    struct = s if s is not None and (s.folded or not s.ridge) else None

    def advance(k, block):
        nonlocal x
        if struct is not None:
            bad = kernels.rank_one_spi_block(x, struct, step.c, k, block)
            if bad >= 0:
                raise NumericalError(
                    f"non-finite values from prox of g (term {bad})")
        else:
            for t, i in enumerate(block):
                i = int(i)
                x = _call_term(problem.g[i].prox, i, "prox of g", x,
                               step.at(k + t + 1))

    # _spi_residual is already a mean over terms; sqrt(d) makes it per entry
    rows, converged, steps, stop = _sampled_loop(
        problem, opts, sampler,
        lambda k: (_spi_residual(x, problem, step.at(max(k, 1)), struct), x),
        advance, math.sqrt(problem.dim), x_ref)
    state = SolverState(z=x[None, :].copy(), zbar=x.copy(), alpha=step.c,
                        k=steps)
    log = MetricsLog(rows=rows, metadata={
        "solver": "spi", "c": step.c, "seed": getattr(sampler, "seed", None),
        "problem_kind": problem.kind, "stop": stop,
        "path": "per-term" if struct is None else "kernel"})
    return RunResult(x=x, log=log, converged=converged, state=state)


def _spi_residual(x, problem, ak, struct) -> float:
    """Mean prox-step displacement at the current point, scaled by the
    step; the natural stationarity surrogate for a prox-only problem.
    With ``struct``, the problem's rank-one structure, every term's step
    comes from its ``betas`` at once; otherwise from the per-term handles.
    """
    if struct is not None:
        shr = 1.0 / (1.0 + ak * struct.ridge)
        xs = x * shr
        # a non-finite row is named below, as the per-term path names it
        with np.errstate(invalid="ignore", over="ignore"):
            beta = struct.betas(struct.features @ xs, ak * shr)
            moved = xs[None, :] + beta[:, None] * struct.features
        _require_finite_rows(moved, "prox of g")
        moved -= x[None, :]
        return float(np.linalg.norm(moved)) / (ak * math.sqrt(problem.n))
    acc = 0.0
    for i, gi in enumerate(problem.g):
        moved = x - _call_term(gi.prox, i, "prox of g", x, ak)
        acc += float(np.linalg.norm(moved)) ** 2
    return math.sqrt(acc / problem.n) / ak


def finito_run(problem: ProblemSpec, sampler, opts: SolveOptions,
               x_ref: np.ndarray | None = None) -> RunResult:
    """Variance-reduced incremental gradient method with a constant step.

    Requires a smooth-only problem (every nonsmooth term zero).  Keeps one
    d-vector per term; each step refreshes the sampled term's vector at the
    current table average.  Serves as the independent oracle for the
    stochastic splitting solver's smooth-only reduction.
    """
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

    rows, converged, state.k, stop = _sampled_loop(
        problem, opts, sampler, lambda k: _probe(state, problem), advance,
        math.sqrt(n * problem.dim), x_ref)
    log = MetricsLog(rows=rows, metadata={
        "solver": "finito", "alpha": alpha,
        "seed": getattr(sampler, "seed", None),
        "problem_kind": problem.kind, "stop": stop})
    return RunResult(x=state.zbar.copy(), log=log, converged=converged,
                     state=state)
