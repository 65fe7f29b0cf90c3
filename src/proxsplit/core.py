"""Problem model shared by every solver: function handles, solver state,
the fixed-point residual map, and objective evaluation.

A problem is the triple (r, {f_i}, {g_i}) over R^d: one global proximable
term, n smooth terms, and n proximable terms.  Solvers keep one d-vector
per term (the rows of ``SolverState.z``) plus a cached running average.
"""

import dataclasses
import functools
import math
from collections.abc import MutableSequence, Sequence
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# Bytes of z per block of the row-blocked sweep (:func:`_sweep_blocks`; see
# :func:`_row_blocks` for how z is split).  It serves ppg off the rank-one
# path, proximal-gradient and ADMM, and the residual probes of the sampled
# solvers (sppg, spi, Finito).  A block's rows of z, the scratch block and
# the rows' data then stay in a 2 MiB L2 between the sweep's stages, and
# the scratch block bounds a probe's peak memory.  On a shared 2-vCPU Xeon
# with 2 MiB of L2 per core (one BLAS thread, medians of 25 interleaved
# rounds), an sppg probe of the n=8192, d=128 split SVM took 7.0 ms in 16
# blocks of 512 KiB, 7.0 ms in 8 of 1 MiB, 7.6 ms in 4 of 2 MiB and 8.1 ms
# as one 8 MiB block, with a round-to-round spread of about 0.6 ms; its
# tracemalloc peak was 0.82, 1.32, 2.33 and 8.38 MiB.  The spi probe of
# the folded form read 7.2, 7.3, 7.8 and 8.5 ms with the same peaks.  10
# ppg sweeps of the 2000-term, d=100 fused lasso took 29.9 ms in 3 blocks
# and 31.9 ms in one, within their 3 ms spread.
SWEEP_BLOCK_BYTES = 512 * 1024

__all__ = [
    "SolverError",
    "NumericalError",
    "ConvergenceError",
    "SmoothFn",
    "ProxFn",
    "ProblemSpec",
    "SolverState",
    "ResidualReport",
    "zero_smooth",
    "zero_prox",
    "RidgeProx",
    "ridge_prox",
    "scale_smooth",
    "scale_prox",
    "chunked_row_mean",
    "residual_map",
    "objective",
    "objective_gap",
    "verify_smooth_fn",
    "verify_prox_fn",
    "verify_batched",
    "verify_problem",
]


class SolverError(Exception):
    """Base class for solver failures."""


class NumericalError(SolverError):
    """A prox or gradient evaluation produced non-finite values."""


class ConvergenceError(SolverError):
    """An inner iterative solve exceeded its iteration cap."""


@dataclass(frozen=True)
class SmoothFn:
    """A differentiable convex function with a gradient Lipschitz bound.

    ``lipschitz`` is an upper bound L on the gradient's Lipschitz constant;
    0.0 means "no curvature" (e.g. the zero function) and step-size
    validation skips terms that report it.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    lipschitz: float = 0.0
    is_zero: bool = False


@dataclass(frozen=True)
class ProxFn:
    """A proximable convex function.

    ``prox(x0, a)`` returns argmin_u  h(u) + ||u - x0||^2 / (2a) and must
    allocate a fresh array.  ``value`` may be None when the function value
    is awkward to evaluate (e.g. indicators of intersections); objective
    reporting then returns the unavailable marker instead of raising.
    """

    prox: Callable[[np.ndarray, float], np.ndarray]
    value: Callable[[np.ndarray], float] | None = None
    is_zero: bool = False


def zero_smooth() -> SmoothFn:
    """The zero smooth term: value 0, gradient 0, no curvature."""
    return SmoothFn(
        value=lambda x: 0.0,
        gradient=lambda x: np.zeros_like(x),
        lipschitz=0.0,
        is_zero=True,
    )


def zero_prox() -> ProxFn:
    """The zero proximable term: its prox is the identity."""
    return ProxFn(prox=lambda x0, a: np.array(x0, dtype=float, copy=True),
                  value=lambda x: 0.0, is_zero=True)


@dataclass(frozen=True)
class RidgeProx(ProxFn):
    """The ridge (weight/2)*||x||^2 as a proximable term that states its
    ``weight``, so a solver that models the ridge itself can read it."""

    weight: float = 0.0


def ridge_prox(weight: float) -> RidgeProx:
    """The ridge (weight/2)*||x||^2: its prox is the uniform shrink
    1/(1 + a*weight)."""
    return RidgeProx(
        prox=lambda x0, a: np.asarray(x0, dtype=float) / (1.0 + a * weight),
        value=lambda x: 0.5 * weight * float(x @ x), weight=weight)


def scale_smooth(fn: SmoothFn, c: float) -> SmoothFn:
    """The function c*fn (c > 0); Lipschitz bound rescales linearly."""
    if fn.is_zero:
        return fn
    return SmoothFn(
        value=lambda x: c * fn.value(x),
        gradient=lambda x: c * fn.gradient(x),
        lipschitz=c * fn.lipschitz,
    )


def scale_prox(fn: ProxFn, c: float) -> ProxFn:
    """The function c*fn (c > 0); prox folds c into the step size."""
    if fn.is_zero:
        return fn
    value = None if fn.value is None else (lambda x: c * fn.value(x))
    return ProxFn(prox=lambda x0, a: fn.prox(x0, a * c), value=value)


@dataclass(frozen=True)
class ProblemSpec:
    """The composite problem  r(x) + (1/n) sum_i (f_i(x) + g_i(x)).

    Parameters
    ----------
    dim : int
        Dimension d of the decision variable.
    n : int
        Number of (f_i, g_i) term pairs, ``len(g)``: derived at
        construction, not an argument; any entry may be the zero function.
    r, f, g :
        Function handles; ``g`` must hold at least one and ``f`` exactly n.
        ``f`` is kept as a tuple.  ``g`` may be any immutable sequence of
        n handles, kept as given: a rank-one problem's builds each handle
        when it is indexed (:func:`~proxsplit.kernels.rank_one_terms`).  A
        list or any other iterable is kept as a tuple.
    kind : str
        Free-form tag used by the CLI for metadata and validation messages.
    structure :
        Optional description of rank-one row terms g_i(x) = phi_i(f_i'x),
        a :class:`~proxsplit.kernels.HingeStructure` or
        :class:`~proxsplit.kernels.GlmStructure`.  It is the one place that
        states each kind's prox rule (for all rows at once and for one row)
        and loss; :func:`~proxsplit.kernels.rank_one_problem` derives the
        per-term handles ``g``, ``batched_g_prox`` and
        ``batched_objective`` from it, and ppg, sppg and spi run its
        rank-one kernels where :func:`~proxsplit.kernels.rank_one_rows`
        finds them served.  Solvers take the per-term path when it is absent.
        A rank-one row is never the zero term, so a problem with a
        structure is never :meth:`all_g_zero`.
    batched_g_prox :
        Optional vectorized evaluation of a block of per-term prox calls
        at once.  ``batched_g_prox(V, a, lo)`` takes a block ``V`` holding
        rows ``lo .. lo + len(V) - 1`` and returns their points:
        ``batched_g_prox(V, a, lo)[k] == g[lo + k].prox(V[k], a)``; ``lo``
        defaults to 0, so a whole n x d ``V`` needs no offset.  ``V`` is
        a scratch array of the caller's, so the hook may overwrite and
        return it; any array it returns is the caller's to modify.
    batched_f_grad :
        Optional vectorized gradient step for a block of smooth terms at
        one point: ``batched_f_grad(V, x, a, lo)`` subtracts
        ``a * f[lo + k].gradient(x)`` from row k of the caller's scratch
        block ``V``, in place, and returns nothing; ``lo`` defaults to 0.
        Stepping ``V`` in place, rather than returning a gradient block,
        keeps the sweep free of temporaries the size of ``V``.
    batched_objective :
        Optional vectorized evaluation of the term sum
        (1/n) sum_i (f_i(x) + g_i(x)) at one point, equal to the
        term-by-term sum up to rounding.  It leaves out r, whose value
        :func:`objective` adds for every problem.
    reduce_chunks : int
        Number of contiguous chunks used by the deterministic row-mean
        reduction: ``min(n, 16)``, derived at construction and not an
        argument, so that the summation order, and with it the metrics CSV
        bytes and sppg's resync reference, stays the same.  Full sweeps
        call the batched hooks on blocks made of whole chunks (see
        :func:`_row_blocks`), so a hook may see any run of rows, including
        one that crosses a boundary between kinds of terms.
    """

    dim: int
    n: int = dataclasses.field(init=False)
    r: ProxFn
    f: tuple
    g: Sequence
    kind: str = ""
    structure: Any = None
    batched_g_prox: Callable[[np.ndarray, float], np.ndarray] | None = None
    batched_f_grad: (Callable[[np.ndarray, np.ndarray, float], None]
                     | None) = None
    batched_objective: Callable[[np.ndarray], float] | None = None
    reduce_chunks: int = dataclasses.field(init=False)
    # whether every f_i is zero, whether every g_i is, and
    # max_i lipschitz(f_i); the terms are immutable, so all three are found
    # once here instead of by a pass over the n terms on every call
    _f_zero: bool = dataclasses.field(init=False, repr=False, compare=False)
    _g_zero: bool = dataclasses.field(init=False, repr=False, compare=False)
    _lipschitz: float = dataclasses.field(init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        object.__setattr__(self, "f", tuple(self.f))
        if isinstance(self.g, MutableSequence) \
                or not isinstance(self.g, Sequence):
            object.__setattr__(self, "g", tuple(self.g))
        if not self.g:
            raise ValueError("g must hold at least one term")
        if len(self.f) != len(self.g):
            raise ValueError(f"f must hold as many terms as g: f holds "
                             f"{len(self.f)}, g holds {len(self.g)}")
        object.__setattr__(self, "n", len(self.g))
        object.__setattr__(self, "reduce_chunks", min(self.n, 16))
        object.__setattr__(self, "_f_zero",
                           all(fn.is_zero for fn in self.f))
        # a structure's rows are never zero terms, so its handles, which
        # may be built only when indexed, are not walked
        object.__setattr__(self, "_g_zero", self.structure is None and all(
            fn.is_zero for fn in self.g))
        object.__setattr__(self, "_lipschitz",
                           max((fn.lipschitz for fn in self.f), default=0.0))

    def lipschitz_bound(self) -> float:
        """Uniform bound L = max_i lipschitz(f_i)."""
        return self._lipschitz

    def all_f_zero(self) -> bool:
        return self._f_zero

    def all_g_zero(self) -> bool:
        return self._g_zero

    def batched_sweep(self) -> bool:
        """Whether a full sweep runs through a vectorized hook."""
        return (self.batched_g_prox is not None
                or self.batched_f_grad is not None)


class SolverState:
    """Mutable per-run state: the n x d block of z-vectors plus caches.

    ``zbar`` caches the row mean of ``z``; solvers that update it
    incrementally re-validate it against the chunked reduction at epoch
    boundaries.  ``z`` may also be given as its builder, a callable of no
    arguments that returns the array: ppg on rank-one rows holds z in
    O(n + d) numbers (:class:`~proxsplit.kernels.RankOnePpg`) and leaves
    one, so the n x d array is built on first read, once, and kept.
    :meth:`copy` hands an unread z's builder on instead of building it.
    """

    def __init__(self, z, zbar: np.ndarray, alpha: float, k: int = 0):
        self.z, self.zbar, self.alpha, self.k = z, zbar, alpha, k

    @property
    def z(self) -> np.ndarray:
        if callable(self._z):
            self._z = self._z()
        return self._z

    @z.setter
    def z(self, value):
        self._z = value

    def copy(self) -> "SolverState":
        z = self._z if callable(self._z) else self._z.copy()
        return SolverState(z=z, zbar=self.zbar.copy(), alpha=self.alpha,
                           k=self.k)


@dataclass
class ResidualReport:
    """Per-iteration diagnostics row.

    ``residual_norm`` is the Frobenius norm of the fixed-point residual over
    the full n x d block.  ``objective`` and ``dist_to_ref`` are None when
    unavailable.
    """

    k: int
    residual_norm: float
    objective: float | None = None
    dist_to_ref: float | None = None
    wall_time_s: float | None = None
    epoch: float | None = None


def initial_state(problem: ProblemSpec, alpha: float,
                  warm_start: np.ndarray | None = None) -> SolverState:
    """Fresh state with z = 0 (or a copy of the warm start, which must be
    finite and of shape (n, dim)) and a consistent zbar.  ppg on rank-one
    rows makes its own (:class:`~proxsplit.kernels.RankOnePpg`), which
    reads a warm start without copying it and whose z is built on first
    read."""
    shape = (problem.n, problem.dim)
    z = np.zeros(shape) if warm_start is None \
        else _checked_input(warm_start, shape, "warm_start")
    return SolverState(z=z, zbar=chunked_row_mean(z, problem.reduce_chunks),
                       alpha=alpha)


def _checked_input(value, shape: tuple, name: str) -> np.ndarray:
    """A float copy of the caller's argument ``name``, checked by
    :func:`_checked`."""
    return _checked(np.array(value, dtype=float, copy=True), shape, name)


def _checked(arr: np.ndarray, shape: tuple, name: str) -> np.ndarray:
    """``arr``, the caller's argument ``name``; raises ValueError naming it
    unless it has ``shape`` and only finite entries."""
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if _nonfinite_entry(arr) is not None:
        raise ValueError(f"{name} has non-finite entries")
    return arr


def _chunk_bounds(n: int, n_chunks: int) -> list:
    """The (start, end) rows of the nonempty chunks of the row-mean
    reduction: ``n_chunks`` contiguous chunks of ceil(n / n_chunks) rows."""
    size = -(-n // n_chunks)
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def chunked_row_mean(z: np.ndarray, n_chunks: int) -> np.ndarray:
    """Row mean computed in fixed contiguous chunks, combined in order.

    The chunk layout depends only on ``n_chunks`` (fixed at problem
    construction), so the summation order never changes: reruns write the
    same metrics CSV bytes, and sppg's resync compares its running mean
    against the same reference.
    """
    total = np.zeros(z.shape[1])
    for lo, hi in _chunk_bounds(z.shape[0], n_chunks):
        total += z[lo:hi].sum(axis=0)
    return total / z.shape[0]


def _sum_of_squares(arr: np.ndarray) -> float:
    """The sum of squares of ``arr``'s entries, copying nothing: one BLAS
    dot (``np.vdot``, which raises no overflow warning) over its memory
    when it is contiguous in either order or 1-D, else an ``einsum``
    through numpy's buffer."""
    if arr.ndim != 1:
        if not arr.flags.forc:
            axes = list(range(arr.ndim))
            return float(np.einsum(arr, axes, arr, axes, []))
        arr = arr.ravel(order="K")
    return float(np.vdot(arr, arr))


def _nonfinite_entry(arr: np.ndarray, sumsq: float | None = None):
    """The library's one finiteness test: None when every entry of ``arr``
    is finite, else the index of its first non-finite entry in C order.

    One reduction tests the whole array: its sum of squares ``sumsq``
    (:func:`_sum_of_squares` when not given), which a NaN or inf entry
    makes non-finite.  Only a non-finite sum, which squares that overflow
    also give, scans the entries, to confirm a bad one and to name it; so
    a finite array costs one dot, with no mask and no copy of ``arr``.
    """
    arr = np.asarray(arr)
    if math.isfinite(_sum_of_squares(arr) if sumsq is None else sumsq):
        return None
    bad = np.argwhere(~np.isfinite(arr))
    return tuple(map(int, bad[0])) if len(bad) else None


def _require_finite(arr: np.ndarray, what: str):
    """Raise :class:`NumericalError` naming ``what`` unless every entry of
    ``arr`` is finite (:func:`_nonfinite_entry`)."""
    if _nonfinite_entry(arr) is not None:
        raise NumericalError(f"non-finite values from {what}")


def _call_term(fn: Callable, i: int, what: str, *args) -> np.ndarray:
    """``fn(*args)`` for term i, checked finite.  A :class:`SolverError`
    raised inside ``fn``, or by the check, gets ``(term i)`` appended."""
    try:
        out = fn(*args)
        _require_finite(out, what)
    except SolverError as exc:
        exc.args = (f"{exc} (term {i})",)
        raise
    return out


def _require_finite_rows(block: np.ndarray, what: str, lo: int = 0) -> float:
    """Like :func:`_require_finite` on every row of a block that holds
    rows lo.., naming the first bad one; returns the block's sum of
    squares, the reduction that :func:`_nonfinite_entry` tests."""
    sq = _sum_of_squares(block)
    bad = _nonfinite_entry(block, sq)
    if bad is not None:
        raise NumericalError(
            f"non-finite values from {what} (term {lo + bad[0]})")
    return sq


def residual_map(state: SolverState, problem: ProblemSpec):
    """Evaluate the fixed-point residual of the splitting iteration.

    Returns ``(p, x_half, x_terms)`` where ``x_half`` is the prox-r point at
    the cached average, row i of ``x_terms`` is the per-term prox point, and
    ``p[i] = (x_half - x_terms[i]) / alpha``.  Zeros of this map encode
    primal-dual solutions, and one full deterministic sweep is exactly
    ``z <- z - alpha * p(z)``.

    Pure: ``state`` is not mutated and fresh arrays are returned.  This is
    the whole-array reference; the solvers' sweeps and probes run the same
    term points a block of rows at a time (:func:`_sweep_blocks`).
    """
    if state.z.shape != (problem.n, problem.dim):
        raise ValueError("state dimensions do not match problem")
    if not state.alpha > 0:
        raise ValueError("alpha must be positive")
    alpha = state.alpha
    x_half = problem.r.prox(state.zbar, alpha)
    _require_finite(x_half, "prox of r")
    x_terms = _block_points(x_half, 2.0 * x_half[None, :] - state.z, 0,
                            problem, alpha)
    _require_finite_rows(x_terms, "prox of g")
    p = (x_half[None, :] - x_terms) / alpha
    return p, x_half, x_terms


def _block_points(x_half: np.ndarray, v: np.ndarray, lo: int,
                  problem: ProblemSpec, alpha: float) -> np.ndarray:
    """The per-term prox points x_i = prox_{a g_i}(v_i - a grad f_i(x_half))
    of rows lo..lo+len(v), where the caller has set v_i = 2 x_half - z_i.

    ``v`` is the caller's scratch block: it is overwritten, and the points
    come back in it or in another array the caller may modify.  A
    non-finite gradient or per-term prox raises, naming its term; the
    batched prox's points are the caller's to check.
    """
    hi = lo + v.shape[0]
    if problem.batched_f_grad is not None:
        problem.batched_f_grad(v, x_half, alpha, lo)
        _require_finite_rows(v, "gradient of f", lo)
    elif not problem.all_f_zero():
        for i, fi in enumerate(problem.f[lo:hi], lo):
            if not fi.is_zero:
                v[i - lo] -= alpha * _call_term(fi.gradient, i,
                                                "gradient of f", x_half)
    if problem.batched_g_prox is not None:
        return problem.batched_g_prox(v, alpha, lo)
    for i, gi in enumerate(problem.g[lo:hi], lo):
        if not gi.is_zero:
            v[i - lo] = _call_term(gi.prox, i, "prox of g", v[i - lo], alpha)
    return v


@functools.lru_cache(maxsize=32)
def _row_blocks(n: int, d: int, n_chunks: int, budget: int) -> tuple:
    """The sweep's blocks of rows of an n x d z: the reduce chunks (see
    :func:`_chunk_bounds`) split into floor(z bytes / ``budget``) runs of
    whole chunks, as even as the chunks allow, and at least one.  Each
    block is ``(lo, hi, chunks)``, with ``chunks`` its chunks' bounds.

    Rounding the count down leaves no runt block: a z a little over the
    budget is one block, not a full one and a small one, and a block's
    fixed cost in the hooks (such as the GLM root's vectorized rounds) is
    paid by at least a budget's worth of rows.  Cached, since every sweep
    of a problem asks for the same layout."""
    chunks = _chunk_bounds(n, n_chunks)
    k = min(max(n * d * 8 // budget, 1), len(chunks))
    runs = [chunks[j * len(chunks) // k:(j + 1) * len(chunks) // k]
            for j in range(k)]
    return tuple((run[0][0], run[-1][1], tuple(run)) for run in runs)


def _sweep_blocks(state: SolverState, problem: ProblemSpec, advance: bool):
    """One pass of the splitting map over z, a block of rows at a time.

    With x_half the prox of r at zbar, row i's step is
    delta_i = x_i - x_half for its term point x_i (see
    :func:`_block_points`).  Returns ``(||p(z)||, x_half)``, the
    residual being ||delta|| / alpha.  With ``advance`` the
    sweep also sets z_i += delta_i, rebuilds zbar from the reduce chunks'
    sums in chunk order and counts the iteration, so z and zbar come out
    bitwise equal to a whole-array sweep's; without it nothing changes.

    Each block of :func:`_row_blocks`, for a budget of
    ``SWEEP_BLOCK_BYTES``, goes through every stage while its rows are in
    cache: 2 x_half - z into one scratch block shared by all blocks, the
    gradient and prox hooks, the step, its sum of squares and the update.
    No n x d temporary is made.  The sum of squares is also
    the finiteness check: a non-finite sum scans the block's rows to name
    the first bad term.  On such an error the blocks before the bad one
    have already advanced and zbar is stale.
    """
    alpha = state.alpha
    x_half = problem.r.prox(state.zbar, alpha)
    _require_finite(x_half, "prox of r")
    z = state.z
    n, d = z.shape
    blocks = _row_blocks(n, d, problem.reduce_chunks, SWEEP_BLOCK_BYTES)
    scratch = np.empty((max(hi - lo for lo, hi, _ in blocks), d))
    # zbar's chunk sums; made after the first block's hooks, and 2 x_half
    # freed before them, so neither adds to the sweep's peak memory
    total = None
    sumsq = 0.0
    for lo, hi, chunks in blocks:
        v = np.subtract(2.0 * x_half, z[lo:hi], out=scratch[:hi - lo])
        delta = _block_points(x_half, v, lo, problem, alpha)
        delta -= x_half
        sumsq += _require_finite_rows(delta, "prox of g", lo)
        if advance:
            z[lo:hi] += delta
            if total is None:
                total = np.zeros(d)
            for c0, c1 in chunks:
                total += z[c0:c1].sum(axis=0)
    if advance:
        state.zbar = total / n
        state.k += 1
    return math.sqrt(sumsq) / alpha, x_half


def objective(x: np.ndarray, problem: ProblemSpec) -> float | None:
    """Full objective r(x) + (1/n) sum_i (f_i(x) + g_i(x)).

    The term sum comes from ``batched_objective`` when the problem has
    it.  Returns None (the "unavailable" marker) when any value handle is
    missing; +inf is a legitimate value when an indicator is violated.
    """
    if problem.r.value is None:
        return None
    total = float(problem.r.value(x))
    if problem.batched_objective is not None:
        return total + float(problem.batched_objective(x))
    acc = 0.0
    for fi, gi in zip(problem.f, problem.g):
        acc += fi.value(x)
        if gi.value is None:
            return None
        acc += gi.value(x)
    return total + acc / problem.n


def objective_gap(x_half: np.ndarray, x_terms: np.ndarray,
                  ref_objective: float, problem: ProblemSpec) -> float | None:
    """Signed surrogate gap between the current split points and a reference.

    Evaluates r and the smooth terms at ``x_half`` but each nonsmooth term
    at its own row of ``x_terms``; because the evaluation points differ the
    gap can be negative mid-run.  Returns None when any value handle is
    missing.
    """
    if problem.r.value is None:
        return None
    total = float(problem.r.value(x_half))
    acc = 0.0
    for i, (fi, gi) in enumerate(zip(problem.f, problem.g)):
        acc += fi.value(x_half)
        if gi.value is None:
            return None
        acc += gi.value(x_terms[i])
    return total + acc / problem.n - ref_objective


# -- validation helpers -------------------------------------------------------
#
# These back the library-wide contracts: gradients must match central finite
# differences, Lipschitz bounds must hold on sampled pairs, and every prox
# must be firmly nonexpansive.


def verify_smooth_fn(fn: SmoothFn, dim: int, rng, n_points: int = 20,
                     rel_tol: float = 1e-5) -> None:
    """Check gradient against central finite differences and the L bound."""
    for _ in range(n_points):
        x = rng.standard_normal(dim)
        grad = fn.gradient(x)
        fd = np.empty(dim)
        for j in range(dim):
            h = 1e-6 * (1.0 + abs(x[j]))
            e = np.zeros(dim)
            e[j] = h
            fd[j] = (fn.value(x + e) - fn.value(x - e)) / (2.0 * h)
        scale = 1.0 + np.linalg.norm(grad)
        if np.linalg.norm(grad - fd) > rel_tol * scale:
            raise AssertionError("gradient disagrees with finite differences")
        y = rng.standard_normal(dim)
        lhs = np.linalg.norm(fn.gradient(x) - fn.gradient(y))
        rhs = fn.lipschitz * np.linalg.norm(x - y)
        if lhs > rhs * (1.0 + 1e-9) + 1e-12:
            raise AssertionError("Lipschitz bound violated on sampled pair")


def verify_prox_fn(fn: ProxFn, dim: int, rng, n_pairs: int = 1000,
                   slack: float = 1e-10) -> None:
    """Check firm nonexpansiveness on random pairs at random step sizes."""
    for _ in range(n_pairs):
        a = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
        x = rng.standard_normal(dim) * 3.0
        y = rng.standard_normal(dim) * 3.0
        tx = fn.prox(x, a)
        ty = fn.prox(y, a)
        diff = tx - ty
        lhs = float(diff @ diff)
        rhs = float(diff @ (x - y))
        if lhs > rhs + slack:
            raise AssertionError(
                f"firm nonexpansiveness violated: {lhs} > {rhs} + {slack}")


def verify_batched(problem: ProblemSpec, rng, n_points: int = 5,
                   rtol: float = 1e-12) -> None:
    """Check each batched hook against the per-term handles it replaces,
    at random points and step sizes; blocks agree to ``rtol`` in norm.
    The hooks are checked on all n rows and, as full sweeps call them, on
    the block of rows from n//2 on with its row offset."""
    n, d = problem.n, problem.dim
    termwise = dataclasses.replace(problem, batched_objective=None)
    lo = n // 2

    def require_close(got, want, what):
        if not np.linalg.norm(got - want) <= rtol * np.linalg.norm(want):
            raise AssertionError(f"{what} disagrees with the per-term handles")

    for _ in range(n_points):
        a = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
        x = rng.standard_normal(d)
        v = rng.standard_normal((n, d)) * 3.0
        if problem.batched_g_prox is not None:
            want = np.array([gi.prox(v[i], a)
                             for i, gi in enumerate(problem.g)])
            require_close(problem.batched_g_prox(v.copy(), a), want,
                          "batched_g_prox")
            if lo:
                require_close(problem.batched_g_prox(v[lo:].copy(), a, lo),
                              want[lo:], "batched_g_prox on rows n//2..")
        if problem.batched_f_grad is not None:
            want = v - a * np.array([fi.gradient(x) for fi in problem.f])
            got = v.copy()
            problem.batched_f_grad(got, x, a)
            require_close(got, want, "batched_f_grad")
            if lo:
                got = v[lo:].copy()
                problem.batched_f_grad(got, x, a, lo)
                require_close(got, want[lo:], "batched_f_grad on rows n//2..")
        if problem.batched_objective is not None:
            for point in (x, 1e-3 * x):
                got = objective(point, problem)
                want = objective(point, termwise)
                if not (got == want or math.isclose(got, want, rel_tol=rtol)):
                    raise AssertionError(
                        f"batched_objective {got} disagrees with the "
                        f"per-term sum {want}")


def verify_problem(problem: ProblemSpec, rng, n_pairs: int = 200,
                   n_points: int = 5) -> None:
    """Run the handle-level checks on every term of a built problem, and
    check its batched hooks against the per-term handles."""
    verify_prox_fn(problem.r, problem.dim, rng, n_pairs=n_pairs)
    for fn in problem.f:
        if not fn.is_zero:
            verify_smooth_fn(fn, problem.dim, rng, n_points=n_points)
    for fn in problem.g:
        verify_prox_fn(fn, problem.dim, rng, n_pairs=n_pairs)
    verify_batched(problem, rng, n_points=n_points)
