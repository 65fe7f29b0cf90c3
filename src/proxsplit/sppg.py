"""Single-term stochastic variant: one uniformly sampled row per iteration.

Each step touches only row i(k) of z and refreshes the cached average with
an O(d) incremental update, so a full epoch of n steps costs what one
deterministic sweep does.  The step size stays constant; no decay schedule
is needed.  Runs re-validate the cached average against the exact chunked
reduction at every epoch boundary and count how often it had drifted.

Index streams come from the Philox 4x64 counter-based generator so they are
reproducible from the seed alone and portable: draw k is the k-th raw
64-bit word u_k of Philox keyed by the seed, and i(k) = u_k mod n.
"""

import math

import numpy as np

from . import kernels
from .core import (ProblemSpec, SolverState, _call_term, _require_finite,
                   _sweep_blocks, chunked_row_mean, initial_state)
from .ppg import (RunResult, SolveOptions, _checked_draws, _ergodic, _is_int,
                  _report, _sampled_loop, resolve_alpha)

__all__ = ["IndexSampler", "SequenceSampler", "sppg_step", "sppg_run"]

DRIFT_TOL = 1e-9


class IndexSampler:
    """Uniform i.i.d. stream over {0, ..., n-1}; same seed, same stream."""

    def __init__(self, seed: int, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        if not _is_int(seed):
            raise ValueError(f"seed must be an int, got {seed!r}")
        self.seed = int(seed)
        self.n = int(n)
        self._bitgen = np.random.Philox(key=self.seed)

    def take(self, count: int) -> np.ndarray:
        """Next ``count`` indices; consecutive calls continue the stream."""
        raw = self._bitgen.random_raw(count)
        return (raw % np.uint64(self.n)).astype(np.int64)


class SequenceSampler:
    """Replays fixed integer indices (paired-run and exhaustive tests)."""

    def __init__(self, indices):
        self._indices = np.asarray(indices)
        if self._indices.size and self._indices.dtype.kind not in "iu":
            raise ValueError("sampler indices must be integers")
        self._pos = 0

    def take(self, count: int) -> np.ndarray:
        if self._pos + count > self._indices.size:
            raise ValueError("sampler sequence exhausted")
        out = self._indices[self._pos:self._pos + count]
        self._pos += count
        return out


def _advance_one(state: SolverState, problem: ProblemSpec, i: int):
    """Update row i and the cached average in place; O(d) plus one prox and
    one gradient.  Returns the prox-r point of the pre-step state."""
    alpha = state.alpha
    x_half = problem.r.prox(state.zbar, alpha)
    _require_finite(x_half, "prox of r")
    fi, gi = problem.f[i], problem.g[i]
    v = 2.0 * x_half - state.z[i]
    if not fi.is_zero:
        v -= alpha * _call_term(fi.gradient, i, "gradient of f", x_half)
    xi = v if gi.is_zero else _call_term(gi.prox, i, "prox of g", v, alpha)
    delta = xi - x_half
    state.z[i] += delta
    state.zbar += delta * (1.0 / problem.n)
    state.k += 1
    return x_half


def _advance_block(state: SolverState, problem: ProblemSpec, struct, block,
                   xsum=None):
    """Take the steps of index ``block`` in place: all at once through
    :func:`kernels.rank_one_sppg_block` when ``struct`` is the structure
    :func:`kernels.rank_one_rows` gave, else one :func:`_advance_one` per
    index.  Each step's prox-r point is added to ``xsum`` when given."""
    if struct is not None:
        kernels.rank_one_sppg_block(state.z, state.zbar, struct, state.alpha,
                                    block, kernels.ridge_weight(problem.r),
                                    xsum=xsum)
        state.k += block.size
        return
    for i in block:
        x_half = _advance_one(state, problem, int(i))
        if xsum is not None:
            xsum += x_half


def _probe(state: SolverState, problem: ProblemSpec, struct):
    """``(||p(z)||, x_half)`` at the state, which is left unchanged: from
    :func:`kernels.rank_one_probe` when ``struct`` is the structure
    ``kernels.rank_one_rows(problem, "ppg")`` gave (rank-one rows, any
    r), so no scratch copy of z is made; else from the row-blocked
    sweep."""
    if struct is None:
        return _sweep_blocks(state, problem, advance=False)
    alpha = state.alpha
    x_half = problem.r.prox(state.zbar, alpha)
    _require_finite(x_half, "prox of r")
    sq = kernels.rank_one_probe(struct, state.z, x_half, alpha)[2]
    return math.sqrt(sq) / alpha, x_half


def sppg_step(state: SolverState, problem: ProblemSpec, sampler,
              compute_residual: bool = False):
    """Draw one index, advance in place, optionally report the residual.

    The residual needs a full O(nd) evaluation, so by default the report is
    None and runs only request it on their recording cadence.  A drawn
    index that is not an integer in [0, n) raises ValueError, and the
    state is left unchanged.  The step and the residual probe take the
    paths :func:`sppg_run` takes on the same problem.
    """
    report = None
    if compute_residual:
        resid, x_half = _probe(state, problem,
                               kernels.rank_one_rows(problem, "ppg"))
        report = _report(problem, state.k, resid, x_half,
                         state.k / problem.n)
    block = _checked_draws(sampler.take(1), problem.n, state.k)
    _advance_block(state, problem, kernels.rank_one_rows(problem, "sppg"),
                   block)
    return state, report


def _resync(state: SolverState, problem: ProblemSpec) -> int:
    """Epoch-boundary cache validation; returns 1 when drift forced a
    rebuild."""
    exact = chunked_row_mean(state.z, problem.reduce_chunks)
    drift = float(np.linalg.norm(state.zbar - exact))
    if drift > DRIFT_TOL * (1.0 + float(np.linalg.norm(exact))):
        state.zbar = exact
        return 1
    return 0


def sppg_run(problem: ProblemSpec, opts: SolveOptions, sampler,
             x_ref: np.ndarray | None = None,
             warm_start: np.ndarray | None = None) -> RunResult:
    """Run the stochastic solver for ``opts.max_iters`` single-term steps.

    One epoch is n steps.  The recording cadence defaults to once per
    epoch, which keeps the amortized per-step cost at O(d).  Problems that
    :func:`kernels.rank_one_rows` finds served for ``"sppg"`` step through
    the blocked rank-one kernel :func:`kernels.rank_one_sppg_block`; the
    update rule is identical, and the problem alone decides it:
    ``log.metadata["path"]`` says which ran, ``kernel`` or ``per-term``.
    The residual probe of each recorded row takes its betas and steps from
    the structure (:func:`kernels.rank_one_probe`) on every problem served
    for ``"ppg"``, which adds an L1 or other r to those, and otherwise runs
    the row-blocked sweep, whose scratch block may be the whole of z.
    With ``opts.ergodic`` the run also returns the average of every step's
    prox-r point.
    """
    alpha = resolve_alpha(problem, opts.alpha)
    state = initial_state(problem, alpha, warm_start)
    n = problem.n
    struct = kernels.rank_one_rows(problem, "sppg")
    probe_struct = kernels.rank_one_rows(problem, "ppg")
    xsum = np.zeros(problem.dim) if opts.ergodic else None
    resyncs = 0

    def advance(k, block):
        nonlocal resyncs
        _advance_block(state, problem, struct, block, xsum)
        if (k + len(block)) % n == 0:
            resyncs += _resync(state, problem)

    log, converged, _ = _sampled_loop(
        problem, opts, sampler, lambda k: _probe(state, problem, probe_struct),
        advance, math.sqrt(n * problem.dim), {
            "solver": "sppg", "alpha": alpha,
            "path": "per-term" if struct is None else "kernel"}, x_ref)
    log.metadata["resyncs"] = resyncs
    x_out = problem.r.prox(state.zbar, alpha)
    return RunResult(x=x_out, log=log, converged=converged, state=state,
                     ergodic=_ergodic(xsum, state.k))
