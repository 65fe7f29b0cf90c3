"""Problem model shared by every solver: function handles, solver state,
the fixed-point residual map, and objective evaluation.

A problem is the triple (r, {f_i}, {g_i}) over R^d: one global proximable
term, n smooth terms, and n proximable terms.  Solvers keep one d-vector
per term (the rows of ``SolverState.z``) plus a cached running average.
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

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
        Number of (f_i, g_i) term pairs; any entry may be the zero function.
    r, f, g :
        Function handles; ``f`` and ``g`` must each hold exactly n entries.
    kind : str
        Free-form tag used by the CLI for metadata and validation messages.
    structure :
        Optional description of rank-one row terms g_i(x) = phi_i(f_i'x),
        a :class:`~proxsplit.kernels.HingeStructure` or
        :class:`~proxsplit.kernels.GlmStructure`.  It is the one place that
        states each kind's prox and loss; the SVM and GLM builders derive
        ``batched_g_prox`` and ``batched_objective`` from it, and sppg and
        spi select its blocked kernels.  Solvers take the per-term path
        when it is absent.
    batched_g_prox :
        Optional vectorized evaluation of all n per-term prox calls at once:
        ``batched_g_prox(V, a)[i] == g[i].prox(V[i], a)``.  ``V`` is a
        scratch array of the caller's, so the hook may overwrite and return
        it; any array it returns is the caller's to modify.
    batched_f_grad :
        Optional vectorized gradient step for all n smooth terms at one
        point: ``batched_f_grad(V, x, a)`` subtracts ``a * f[i].gradient(x)``
        from row i of the caller's scratch array ``V``, in place, and
        returns nothing.  Stepping ``V`` in place, rather than returning an
        n x d gradient block, keeps the sweep's peak memory unchanged.
    batched_objective :
        Optional vectorized evaluation of the full objective at one point,
        equal to the term-by-term sum up to rounding.
    reduce_chunks : int
        Number of contiguous chunks used by the deterministic row-mean
        reduction.  Fixed at construction so results never depend on the
        thread count; 0 selects ``min(n, 16)``.
    """

    dim: int
    n: int
    r: ProxFn
    f: tuple
    g: tuple
    kind: str = ""
    structure: Any = None
    batched_g_prox: Callable[[np.ndarray, float], np.ndarray] | None = None
    batched_f_grad: (Callable[[np.ndarray, np.ndarray, float], None]
                     | None) = None
    batched_objective: Callable[[np.ndarray], float] | None = None
    reduce_chunks: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if len(self.f) != self.n or len(self.g) != self.n:
            raise ValueError("f and g must each hold exactly n terms")
        object.__setattr__(self, "f", tuple(self.f))
        object.__setattr__(self, "g", tuple(self.g))
        if self.reduce_chunks <= 0:
            object.__setattr__(self, "reduce_chunks", min(self.n, 16))

    def lipschitz_bound(self) -> float:
        """Uniform bound L = max_i lipschitz(f_i)."""
        return max((fn.lipschitz for fn in self.f), default=0.0)

    def all_f_zero(self) -> bool:
        return all(fn.is_zero for fn in self.f)

    def all_g_zero(self) -> bool:
        return all(fn.is_zero for fn in self.g)

    def batched_sweep(self) -> bool:
        """Whether a full sweep runs through a vectorized hook."""
        return (self.batched_g_prox is not None
                or self.batched_f_grad is not None)


@dataclass
class SolverState:
    """Mutable per-run state: the n x d block of z-vectors plus caches.

    ``zbar`` caches the row mean of ``z``; solvers that update it
    incrementally re-validate it against the chunked reduction at epoch
    boundaries.
    """

    z: np.ndarray
    zbar: np.ndarray
    alpha: float
    k: int = 0

    def copy(self) -> "SolverState":
        return SolverState(z=self.z.copy(), zbar=self.zbar.copy(),
                           alpha=self.alpha, k=self.k)


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
    """Fresh state with z = 0 (or the warm start) and a consistent zbar."""
    if warm_start is None:
        z = np.zeros((problem.n, problem.dim))
    else:
        z = np.array(warm_start, dtype=float, copy=True)
        if z.shape != (problem.n, problem.dim):
            raise ValueError("warm start must have shape (n, dim)")
    return SolverState(z=z, zbar=chunked_row_mean(z, problem.reduce_chunks),
                       alpha=alpha)


def chunked_row_mean(z: np.ndarray, n_chunks: int) -> np.ndarray:
    """Row mean computed in fixed contiguous chunks, combined in order.

    The chunk layout depends only on ``n_chunks`` (fixed at problem
    construction), so the result is bitwise reproducible no matter how the
    per-row work is scheduled across threads.
    """
    n = z.shape[0]
    size = -(-n // n_chunks)
    total = np.zeros(z.shape[1])
    for c in range(n_chunks):
        block = z[c * size:(c + 1) * size]
        if block.shape[0]:
            total += block.sum(axis=0)
    return total / n


def _require_finite(arr: np.ndarray, what: str):
    if not np.all(np.isfinite(arr)):
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


def _require_finite_rows(block: np.ndarray, what: str):
    """Like :func:`_require_finite` on every row, naming the first bad one."""
    if not np.all(np.isfinite(block)):
        bad = np.flatnonzero(~np.isfinite(block).all(axis=1))[0]
        raise NumericalError(f"non-finite values from {what} (term {bad})")


def residual_map(state: SolverState, problem: ProblemSpec):
    """Evaluate the fixed-point residual of the splitting iteration.

    Returns ``(p, x_half, x_terms)`` where ``x_half`` is the prox-r point at
    the cached average, row i of ``x_terms`` is the per-term prox point, and
    ``p[i] = (x_half - x_terms[i]) / alpha``.  Zeros of this map encode
    primal-dual solutions, and one full deterministic sweep is exactly
    ``z <- z - alpha * p(z)``.

    Pure: ``state`` is not mutated and fresh arrays are returned.
    """
    if state.z.shape != (problem.n, problem.dim):
        raise ValueError("state dimensions do not match problem")
    if not state.alpha > 0:
        raise ValueError("alpha must be positive")
    alpha = state.alpha
    x_half = problem.r.prox(state.zbar, alpha)
    _require_finite(x_half, "prox of r")
    x_terms = _term_points(x_half, state.z, problem, alpha)
    p = (x_half[None, :] - x_terms) / alpha
    return p, x_half, x_terms


def _term_points(x_half: np.ndarray, z: np.ndarray, problem: ProblemSpec,
                 alpha: float, lo: int = 0) -> np.ndarray:
    """Per-term prox points x_i = prox_{a g_i}(2 x_half - z_i - a grad f_i),
    in a fresh array the caller may modify.

    Row j of ``z`` belongs to term ``lo + j``.  The batched hooks take all
    n rows at once, so a row range (``lo > 0`` or fewer than n rows) is
    only for problems without them.
    """
    v = 2.0 * x_half[None, :] - z
    terms = range(lo, lo + z.shape[0])
    if problem.batched_f_grad is not None:
        problem.batched_f_grad(v, x_half, alpha)
        _require_finite_rows(v, "gradient of f")
    else:
        for i in terms:
            fi = problem.f[i]
            if not fi.is_zero:
                v[i - lo] -= alpha * _call_term(fi.gradient, i,
                                                "gradient of f", x_half)
    if problem.batched_g_prox is not None:
        x_terms = problem.batched_g_prox(v, alpha)
        _require_finite_rows(x_terms, "prox of g")
        return x_terms
    for i in terms:
        gi = problem.g[i]
        if not gi.is_zero:
            v[i - lo] = _call_term(gi.prox, i, "prox of g", v[i - lo], alpha)
    return v


def objective(x: np.ndarray, problem: ProblemSpec) -> float | None:
    """Full objective r(x) + (1/n) sum_i (f_i(x) + g_i(x)).

    Returns None (the "unavailable" marker) when any value handle is
    missing; +inf is a legitimate value when an indicator is violated.
    """
    if problem.batched_objective is not None:
        return float(problem.batched_objective(x))
    if problem.r.value is None:
        return None
    total = float(problem.r.value(x))
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
    at random points and step sizes; blocks agree to ``rtol`` in norm."""
    n, d = problem.n, problem.dim
    termwise = dataclasses.replace(problem, batched_objective=None)

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
        if problem.batched_f_grad is not None:
            want = v - a * np.array([fi.gradient(x) for fi in problem.f])
            got = v.copy()
            problem.batched_f_grad(got, x, a)
            require_close(got, want, "batched_f_grad")
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
