"""Deterministic three-step splitting solver with full per-iteration sweeps.

Each iteration evaluates the global prox at the averaged state, one prox and
one gradient per term, and advances every row of z, one cache-sized block of
rows at a time; the average is rebuilt from the fixed-chunk reduction's
chunk sums as the blocks finish, so its summation order, and with it every
logged byte, is the same on every rerun.  Only z is stored across
iterations, except on rank-one rows (the SVM and GLMs, with any r): a
sweep sets every z_i to x_half + beta_i f_i, so
:class:`kernels.RankOnePpg` holds z as x_half and n scalars, and the
returned state builds z on first read.  There each
recorded objective is taken from the sweep's product F x_half, where the
other sweeps call :func:`core.objective`.
"""

import math
import time
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import kernels
from .core import (ProblemSpec, ResidualReport, SolverState, _checked_input,
                   _sweep_blocks, initial_state, objective)
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
    only until the benchmark's jobs stop passing it (ROADMAP item 1).
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


def _ergodic(total: np.ndarray | None, steps: int) -> np.ndarray | None:
    """The ergodic iterate, whose objective gap decays at the faster 1/k
    rate: the mean of the prox-r points that ``total`` sums over a run's
    ``steps`` steps, or None without a total or a step."""
    return total / steps if total is not None and steps else None


# -- run driver ---------------------------------------------------------------
#
# Every solver supplies only its update, its residual and the few record
# fields that are its own; the two loops below own the record cadence, the
# tolerance test, the metrics rows and the run record (see :func:`_log`).  A
# solver's residual divided by its ``scale`` is the root-mean-square residual
# per entry, which is what ``SolveOptions.tol`` bounds.  Both loops check a
# caller's ``x_ref`` before the first step, and say why they stopped:
# ``stop`` is "tol" when the tolerance was met, "budget" when ``max_iters``
# ran out first.


def _report(problem: ProblemSpec, k: int, resid: float, point: np.ndarray,
            epoch: float, x_ref: np.ndarray | None = None,
            wall_time_s: float | None = None,
            value=None) -> ResidualReport:
    """The metrics row for iteration ``k``, reporting on ``point``; its
    objective is ``value(point)``, or :func:`core.objective`'s when
    ``value`` is None."""
    return ResidualReport(
        k=k,
        residual_norm=resid,
        objective=(objective(point, problem) if value is None
                   else value(point)),
        dist_to_ref=None if x_ref is None else float(
            np.linalg.norm(point - x_ref)),
        wall_time_s=wall_time_s,
        epoch=epoch,
    )


def _log(problem: ProblemSpec, rows: list, fields: dict,
         stop: str) -> MetricsLog:
    """The run's metrics rows and record: the problem's kind, ``n`` and
    ``dim``, the record ``fields`` of the loop and the solver, and the
    ``stop`` reason."""
    return MetricsLog(rows=rows, metadata={
        "problem_kind": problem.kind, "n": problem.n, "dim": problem.dim,
        **fields, "stop": stop})


def _sweep_loop(problem: ProblemSpec, opts: SolveOptions, step,
                scale: float, fields: dict, x_ref: np.ndarray | None = None,
                value=None):
    """Loop of the full-sweep solvers (ppg, prox-grad, ADMM).

    ``step()`` advances one iteration and returns its residual norm and the
    point its row reports on; ``value``, when given, gives that point's
    objective as the step knows it (see :func:`_report`).  The tolerance is
    tested every iteration; rows are kept every ``record_every`` iterations
    (default 1), at the stop and at the last iteration.  Returns the
    :class:`MetricsLog` (see :func:`_log`; ``sweep`` is ``batched`` or
    ``per-term`` by :meth:`ProblemSpec.batched_sweep` unless ``fields``
    names it), whether the run converged and the number of iterations
    taken.
    """
    x_ref = None if x_ref is None \
        else _checked_input(x_ref, (problem.dim,), "x_ref")
    fields = {"sweep": "batched" if problem.batched_sweep() else "per-term",
              **fields}
    rec = opts.record_every or 1
    rows = []
    t0 = time.perf_counter()
    for k in range(opts.max_iters):
        resid, point = step()
        stopping = opts.tol > 0 and resid / scale <= opts.tol
        if k % rec == 0 or stopping or k == opts.max_iters - 1:
            rows.append(_report(problem, k, resid, point, float(k), x_ref,
                                time.perf_counter() - t0, value))
        if stopping:
            return _log(problem, rows, fields, "tol"), True, k + 1
    return (_log(problem, rows, fields, "budget"), opts.tol <= 0,
            opts.max_iters)


def _checked_draws(block, n: int, k: int) -> np.ndarray:
    """``block``, the indices drawn for steps k, k+1, ..., as an array;
    raises ValueError naming its first index that is not an integer in
    [0, n)."""
    block = np.asarray(block)
    non_int = block.dtype.kind not in "iu"
    if non_int or block.min() < 0 or block.max() >= n:
        j = 0 if non_int else int(np.argmax((block < 0) | (block >= n)))
        raise ValueError(f"sampled index {block[j]} (step {k + j}) is "
                         f"not an integer in [0, {n})")
    return block


def _sampled_loop(problem: ProblemSpec, opts: SolveOptions, sampler, probe,
                  advance, scale: float, fields: dict,
                  x_ref: np.ndarray | None = None):
    """Loop of the sampled-step solvers (sppg, spi, Finito).

    ``probe(k)`` returns the residual norm and the reported point after k
    steps; it runs every ``record_every`` steps (default once per epoch of
    n steps) and at the end, and the tolerance is tested there.  Between
    probes ``advance(k, indices)`` takes one block of steps.  Blocks end at
    record rows and epoch boundaries, and their indices are drawn per
    block, so memory does not grow with the step budget.  A drawn block
    that is not integer or not within [0, n) raises ValueError naming its
    first bad index, before any of its steps.  Returns the
    :class:`MetricsLog` (see :func:`_log`, with the sampler's ``seed``,
    None when it has none, and ``path`` ``per-term`` unless ``fields``
    names it), whether the run converged and the number of steps taken.
    """
    x_ref = None if x_ref is None \
        else _checked_input(x_ref, (problem.dim,), "x_ref")
    fields = {"seed": getattr(sampler, "seed", None), "path": "per-term",
              **fields}
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
                return _log(problem, rows, fields, "tol"), True, k
        if k >= total:
            return _log(problem, rows, fields, "budget"), opts.tol <= 0, k
        nxt = min((k // rec + 1) * rec, (k // n + 1) * n, total)
        block = _checked_draws(sampler.take(nxt - k), n, k)
        advance(k, block)
        del block  # not held through the next probe, where memory peaks
        k = nxt


def resolve_alpha(problem: ProblemSpec, alpha: float | None) -> float:
    """Validate or choose the step size against the gradient bound L.

    Defaults to 1/L.  With every f_i zero any finite alpha > 0 converges,
    so the default is 1.0 without comment; smooth terms without a bound
    also get 1.0, with a warning.  An infinite L (a bound that
    overflowed) admits no step, so it gives no default either.  A
    non-finite alpha and steps at or
    beyond 2/L are rejected; steps at or beyond 1.5/L only draw a warning
    (convergence is still guaranteed below 2/L, the tighter constant is
    what the rate analysis uses).
    """
    lip = problem.lipschitz_bound()
    if alpha is None:
        if lip == math.inf:
            raise ValueError("the Lipschitz bound L of the smooth terms is "
                             "infinite, so no step size is below 2/L; "
                             "rescale the data")
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


def ppg_step(state: SolverState, problem: ProblemSpec,
             x_ref: np.ndarray | None = None):
    """Advance one full iteration in place and report on the pre-step state.

    The report carries ||p(z^k)||_F, the objective at the prox-r point, and
    optionally the distance of that point to a reference solution.
    """
    resid, x_half = _sweep_blocks(state, problem, advance=True)
    k = state.k - 1
    return state, _report(problem, k, resid, x_half, float(k), x_ref)


def ppg_run(problem: ProblemSpec, opts: SolveOptions,
            warm_start: np.ndarray | None = None,
            x_ref: np.ndarray | None = None) -> RunResult:
    """Run the full-sweep solver until the tolerance or iteration budget.

    Returns the prox-r point of the final state, the metrics log, and (when
    requested) the ergodic average of the prox-r points.

    Problems that :func:`kernels.rank_one_rows` serves to ppg (the SVM
    and GLMs, with any r) sweep in scalar coordinates
    (:class:`kernels.RankOnePpg`): two products with the rows per sweep
    and O(n + d) memory.  No n x d z is made: a warm start is read where
    it lies, and the returned ``state.z`` is built on first read, so a
    caller that never reads it never pays for it.  Other problems run the
    row-blocked sweep of :func:`ppg_step`.  The two agree to rounding, and
    ``log.metadata["sweep"]`` says which ran: ``rank-one``, ``batched`` or
    ``per-term``.  A rank-one run's recorded objective comes from the
    sweep's own product with the rows (:meth:`kernels.RankOnePpg.objective`),
    bitwise what :func:`core.objective` gives through the batched objective
    of :func:`kernels.rank_one_problem`; the other sweeps call
    :func:`core.objective`.
    """
    alpha = resolve_alpha(problem, opts.alpha)
    xsum = np.zeros(problem.dim) if opts.ergodic else None
    fields = {"solver": "ppg", "alpha": alpha}
    struct = kernels.rank_one_rows(problem, "ppg")
    if struct is None:
        state = initial_state(problem, alpha, warm_start)
        sweep, value = partial(_sweep_blocks, state, problem, True), None
    else:
        sweeps = kernels.RankOnePpg(problem, struct, alpha, warm_start)
        state, sweep, value = sweeps.state, sweeps.sweep, sweeps.objective
        fields["sweep"] = "rank-one"

    def step():
        nonlocal xsum
        resid, x_half = sweep()
        if xsum is not None:
            xsum += x_half
        return resid, x_half

    log, converged, _ = _sweep_loop(
        problem, opts, step, math.sqrt(problem.n * problem.dim), fields,
        x_ref, value)
    if struct is not None:
        sweeps.finish()
    x_out = problem.r.prox(state.zbar, alpha)
    return RunResult(x=x_out, log=log, converged=converged, state=state,
                     ergodic=_ergodic(xsum, state.k))
