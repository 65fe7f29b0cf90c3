"""Closed-form and reduced-form proximal operators.

Everything here evaluates prox_{a*h}(x0) = argmin_u h(u) + ||u - x0||^2/(2a)
for specific families of h.  Operators are pure, reentrant, and return fresh
arrays, except the all-rows GLM prox, which overwrites its input block.
One-dimensional reductions (affine compositions, generalized linear
model terms) solve a scalar strongly convex subproblem by bisection on the
subgradient sign, or by a safeguarded secant method when a derivative
handle is available.  Each root is bracketed without a search: the
subproblem's optimality function has slope at least 1, so its value at the
starting point bounds the distance to the root.
"""

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .core import ConvergenceError, NumericalError

__all__ = [
    "Interval",
    "ScalarFn",
    "CachedQuadraticProx",
    "soft_threshold_scalar",
    "soft_threshold_vector",
    "soft_threshold_matrix",
    "project_interval",
    "prox_affine_1d",
    "prox_sum_coupling",
    "prox_pair_sum",
    "prox_pair_diff",
    "prox_hinge",
    "prox_scaled_sq_norm",
    "prox_quadratic",
    "prox_glm_1d",
    "glm_root",
    "prox_glm_rows",
]

_BISECT_CAP = 200
_BETA_TOL = 1e-12
# the largest float: the far end of a bracket whose first value overflowed
_BIG = sys.float_info.max
# brackets of the all-rows GLM prox wider than this bisect in the asinh
# scale; narrower ones bisect arithmetically, down to 1e-12 in 60 halvings
_WIDE = 2.0 ** 20
# steps of the scalar GLM root: at most 3 per bisection, and 63 bisections
# in the asinh scale shrink any finite bracket to a few floats
_ROOT_CAP = 200


@dataclass(frozen=True)
class Interval:
    """A closed interval; endpoints may be -inf/+inf."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError("interval requires lo <= hi")


@dataclass(frozen=True)
class ScalarFn:
    """A convex function of one real variable, for 1-D prox reductions.

    At least one of ``prox`` or ``subgrad`` must be supplied: the prox
    handle (``prox(t0, tau)`` evaluating prox_{tau*f}(t0)) gives an exact
    inner solve, otherwise bisection runs on any subgradient selection.
    ``deriv`` marks the function differentiable, enabling the safeguarded
    root solve used by the generalized-linear-model prox.
    """

    value: Callable[[float], float] | None = None
    subgrad: Callable[[float], float] | None = None
    prox: Callable[[float, float], float] | None = None
    deriv: Callable[[float], float] | None = None

    def any_subgrad(self):
        return self.subgrad if self.subgrad is not None else self.deriv


def soft_threshold_scalar(x, lam: float):
    """Shrink toward zero by lam, clipping at zero; the prox of lam*|.|.

    Accepts scalars or arrays (applied elementwise).
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if lam == 0.0:
        return np.array(x, dtype=float, copy=True) if np.ndim(x) else float(x)
    out = np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)
    return out if np.ndim(x) else float(out)


def soft_threshold_vector(x: np.ndarray, lam: float) -> np.ndarray:
    """Shrink the Euclidean norm of x by lam; the prox of lam*||.||_2."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    x = np.asarray(x, dtype=float)
    if lam == 0.0:
        return x.copy()
    nrm = np.linalg.norm(x)
    if nrm <= lam:
        return np.zeros_like(x)
    return (1.0 - lam / nrm) * x


def soft_threshold_matrix(m: np.ndarray, lam: float) -> np.ndarray:
    """Threshold the singular values of m by lam; the prox of lam*||.||_*."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    m = np.asarray(m, dtype=float)
    if lam == 0.0:
        return m.copy()
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed in matrix soft-threshold: {exc}")
    s = np.maximum(s - lam, 0.0)
    return (u * s) @ vt


def project_interval(x, iv: Interval):
    """Clamp x (scalar or elementwise) onto the interval."""
    out = np.clip(x, iv.lo, iv.hi)
    return out if np.ndim(x) else float(out)


def _bisect_beta(phi, r: float) -> float:
    """Root of phi by bisection on [-r, r], for phi increasing with slope
    at least 1 and |phi(0)| < r, which puts the root inside.

    Used for the scalar step of affine-composition proxes; phi is monotone
    because the underlying function is convex.  Stops when the interval
    narrows to 1e-12 or holds no float between its ends; raises when r is
    not finite or the 200-step cap is hit first.
    """
    if not math.isfinite(r):
        raise ConvergenceError("could not bracket the 1-D prox subproblem")
    lo, hi = -r, r
    for _ in range(_BISECT_CAP):
        mid = 0.5 * (lo + hi)
        if hi - lo <= _BETA_TOL or not lo < mid < hi:
            return mid
        if phi(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError("1-D prox bisection exceeded 200 steps")


def prox_affine_1d(a: np.ndarray, f1d: ScalarFn, x0: np.ndarray,
                   alpha: float) -> np.ndarray:
    """Prox of g(x) = f(a'x) for a scalar convex f and nonzero a.

    The minimizer lies on the ray x0 + beta*a, so the d-dimensional prox
    collapses to one scalar problem: beta minimizes
    alpha*f(a'x0 + beta*||a||^2) + (||a||^2/2)*beta^2.
    """
    a = np.asarray(a, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    q = float(a @ a)
    if q == 0.0:
        raise ValueError("a must be nonzero")
    s0 = float(a @ x0)
    if f1d.prox is not None:
        t = f1d.prox(s0, alpha * q)
        beta = (t - s0) / q
    else:
        sub = f1d.any_subgrad()
        if sub is None:
            raise ValueError("f1d needs a prox or subgradient handle")
        # phi(0) = alpha*sub(s0) and phi' >= 1 bound the root's distance
        beta = _bisect_beta(lambda b: alpha * sub(s0 + b * q) + b,
                            alpha * abs(sub(s0)) + 1.0)
    return x0 + beta * a


def prox_sum_coupling(a: np.ndarray, f, xi: np.ndarray,
                      alpha: float) -> np.ndarray:
    """Prox of g(x_1..x_n) = f(a_1 x_1 + ... + a_n x_n) on an n x d block.

    ``f`` is any object with a ``prox(x0, t)`` method on d-vectors (a
    :class:`proxsplit.core.ProxFn` works).  The coupled prox reduces to one
    evaluation of prox_{alpha*||a||^2 f} at the weighted row sum, followed
    by a rank-one correction of every row.
    """
    a = np.asarray(a, dtype=float)
    xi = np.asarray(xi, dtype=float)
    q = float(a @ a)
    if q == 0.0:
        raise ValueError("a must be nonzero")
    s = a @ xi
    w = f.prox(s, alpha * q)
    v = (s - w) / q
    return xi - np.outer(a, v)


def prox_pair_sum(f, x0: np.ndarray, y0: np.ndarray, alpha: float):
    """Prox of g(x, y) = f(x + y): both outputs share prox_{2*alpha*f}."""
    w = f.prox(np.asarray(x0, dtype=float) + y0, 2.0 * alpha)
    return 0.5 * (x0 - y0 + w), 0.5 * (y0 - x0 + w)


def prox_pair_diff(f, x0: np.ndarray, y0: np.ndarray, alpha: float):
    """Prox of g(x, y) = f(x - y)."""
    w = f.prox(np.asarray(x0, dtype=float) - y0, 2.0 * alpha)
    return 0.5 * (x0 + y0 + w), 0.5 * (x0 + y0 - w)


def prox_hinge(x0: np.ndarray, a: np.ndarray, y: float,
               alpha: float) -> np.ndarray:
    """Closed-form prox of the hinge term max(1 - y*a'x, 0).

    x0 moves along a by a multiplier clipped to [0, alpha]; when the margin
    is already met the input is returned unchanged.
    """
    a = np.asarray(a, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    q = float(a @ a)
    if q == 0.0:
        raise ValueError("a must be nonzero")
    if not math.isfinite(q) and not np.isfinite(a).all():
        # NaN out, for the caller to report by term, without the warnings
        # that the products with a non-finite row would raise
        return np.full(x0.shape, np.nan)
    beta = min(max((1.0 - y * float(a @ x0)) / q, 0.0), alpha)
    return x0 + (beta * y) * a


def prox_scaled_sq_norm(x0: np.ndarray, lam: float, alpha: float):
    """Prox of (lam/2)*||x||^2: uniform shrinkage by 1/(1 + alpha*lam)."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return np.asarray(x0, dtype=float) / (1.0 + alpha * lam)


@dataclass(frozen=True)
class CachedQuadraticProx:
    """Precomputed factorization for the prox of (1/2)||Ax - b||^2.

    Holds the lower Cholesky factor of I + alpha*A'A and the vector
    alpha*A'b; each prox evaluation is then two triangular solves.  The
    cache is immutable and only valid for the alpha it was built with.
    """

    chol: np.ndarray
    atb: np.ndarray
    alpha: float

    @classmethod
    def from_data(cls, a_mat: np.ndarray, b: np.ndarray,
                  alpha: float) -> "CachedQuadraticProx":
        if not alpha > 0:
            raise ValueError("alpha must be positive")
        a_mat = np.asarray(a_mat, dtype=float)
        b = np.asarray(b, dtype=float)
        d = a_mat.shape[1]
        m = np.eye(d) + alpha * (a_mat.T @ a_mat)
        try:
            chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Cholesky factorization failed: {exc}")
        return cls(chol=chol, atb=alpha * (a_mat.T @ b), alpha=alpha)


def prox_quadratic(cache: CachedQuadraticProx, v: np.ndarray) -> np.ndarray:
    """Solve (I + alpha*A'A) u = alpha*A'b + v with the cached factor."""
    rhs = cache.atb + v
    y = scipy.linalg.solve_triangular(cache.chol, rhs, lower=True)
    return scipy.linalg.solve_triangular(cache.chol.T, y, lower=False)


def prox_glm_1d(x0: np.ndarray, xi: np.ndarray, ti: float, a1d: ScalarFn,
                alpha: float) -> np.ndarray:
    """Prox of the exponential-family negative log-likelihood term
    A(xi'b) - ti*xi'b for a convex differentiable cumulant A.

    Reduces along xi to the scalar root t + alpha*q*(A'(t) - ti) = s0,
    solved to 1e-12 by the safeguarded method of :func:`glm_root`; xi = 0
    makes the term constant and x0 is returned unchanged.
    """
    xi = np.asarray(xi, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    q = float(xi @ xi)
    if q == 0.0:
        return x0.copy()
    if a1d.deriv is None:
        raise ValueError("a1d must supply a derivative handle")
    s0 = float(xi @ x0)
    # glm_root handles a steep cumulant's overflow itself
    with np.errstate(over="ignore"):
        t = glm_root(s0, alpha * q, ti, a1d.deriv)
    return x0 + ((t - s0) / q) * xi


def glm_root(s0: float, aq: float, ti: float, deriv) -> float:
    """Root of psi(t) = t - s0 + aq*(deriv(t) - ti) for a nondecreasing
    ``deriv`` (the derivative of a convex cumulant), to 1e-12.

    psi' >= 1, so the root lies between s0 and s0 - psi(s0), and
    |psi(t)| <= 1e-12 bounds |t - root| by 1e-12.  The far end is clipped
    to the float range, so when psi(s0) overflows (a steep cumulant) it is
    the largest float on the root's side.  A safeguarded secant method
    (:func:`_regula_falsi`) runs on this bracket; it stops at
    |psi(t)| <= 1e-12, or when the interval known to hold the root is at
    most 1e-12 wide or the bracket holds no float between its ends.
    Raises :class:`ConvergenceError` when s0, aq or ti is not finite, when
    psi(s0) is NaN, or when the step cap is hit.
    """

    def psi(t):
        return t - s0 + aq * (float(deriv(t)) - ti)

    p0 = aq * (float(deriv(s0)) - ti)
    if not (math.isfinite(s0) and math.isfinite(aq)
            and math.isfinite(ti)) or math.isnan(p0):
        raise ConvergenceError("could not bracket the GLM prox subproblem")
    if p0 == 0.0:
        return s0
    t1 = s0 - p0
    if p0 < 0.0:
        # t1 lies above the root, where psi may overflow to +inf
        if t1 > _BIG:
            t1 = _BIG
        return _regula_falsi(psi, s0, p0, t1, psi(t1))
    # t1 lies below the root, where psi may overflow to -inf
    if t1 < -_BIG:
        t1 = -_BIG
    return _regula_falsi(psi, t1, psi(t1), s0, p0)


def _regula_falsi(psi, lo: float, plo: float, hi: float,
                  phi: float) -> float:
    """Root of psi on [lo, hi], psi(lo) <= 0 <= psi(hi), for psi' >= 1;
    psi(lo) may be -inf and psi(hi) +inf.

    psi' >= 1 puts the root in [a, b] = [hi - psi(hi), lo - psi(lo)]
    clipped to the bracket, so the method stops once that interval is at
    most 1e-12 wide.  Steps are regula falsi with the Illinois rule (an
    end kept twice in a row has its value halved), clipped to [a, b] and
    moved one float inside the bracket when they round onto an end.  When
    two steps in a row fail to halve the width of [a, b] relative to the
    size of its ends, or either end's value is infinite, the next step
    bisects [a, b] in the asinh scale, which is arithmetic near zero and
    geometric far from it, so a bracket spanning many orders of magnitude
    (up to the whole float range) closes in a few dozen bisections.
    """
    flo, fhi = plo, phi  # interpolation values, halved by the Illinois rule
    side = 0  # the end the last step moved: -1 lo, 1 hi
    ref, stale = math.inf, 0
    for _ in range(_ROOT_CAP):
        a = hi - phi if hi - phi > lo else lo
        b = lo - plo if lo - plo < hi else hi
        if not b - a > _BETA_TOL:
            break
        spread = (b - a) / (1.0 + abs(a) + abs(b))
        if spread <= 0.5 * ref:
            ref, stale = spread, 0
        else:
            stale += 1
        if stale < 2 and -math.inf < flo and fhi < math.inf:
            t = lo - flo * ((hi - lo) / (fhi - flo))
            if t < a:
                t = a
            elif t > b:
                t = b
            if not lo < t < hi:
                t = (math.nextafter(hi, lo) if t >= hi
                     else math.nextafter(lo, hi))
        else:
            t = math.sinh(0.5 * (math.asinh(a) + math.asinh(b)))
            if not a < t < b:
                t = 0.5 * (a + b)
            side = 0
        if not lo < t < hi:
            break  # no float left between the ends
        p = psi(t)
        if abs(p) <= _BETA_TOL:
            return t
        if p < 0.0:
            lo, plo, flo = t, p, p
            if side < 0:
                fhi *= 0.5
            side = -1
        else:
            hi, phi, fhi = t, p, p
            if side > 0:
                flo *= 0.5
            side = 1
    else:
        raise ConvergenceError(f"GLM prox root exceeded {_ROOT_CAP} steps")
    return 0.5 * (a + b)


# rows per in-place update of prox_glm_rows; bounds its temporary to a
# small block instead of a second n x d array
_ROW_CHUNK = 256


def prox_glm_rows(v: np.ndarray, x_mat: np.ndarray, t_vec: np.ndarray,
                  a1d: ScalarFn, alpha: float) -> np.ndarray:
    """:func:`prox_glm_1d` of every row at once: row i of the result is
    the prox at ``v[i]`` of the term with data row ``x_mat[i]`` and
    response ``t_vec[i]``.  ``v`` is overwritten and returned.

    ``a1d.deriv`` must map arrays elementwise.  Each row's scalar root
    t + alpha*q*(A'(t) - t_i) = s0 is bracketed as in :func:`glm_root`
    and bisected until its bracket is at most 1e-12 wide (or holds no
    float between its ends); see :func:`_glm_roots`.  Zero data rows are
    left unchanged.  Rows whose data or input are not finite come back as
    NaN, for the caller to report by index.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sqnorms = np.einsum("ij,ij->i", x_mat, x_mat)
        s0 = np.einsum("ij,ij->i", x_mat, v)
        aq = alpha * sqnorms
        finite = np.isfinite(s0) & np.isfinite(aq) & np.isfinite(t_vec)
        beta = np.where(finite, 0.0, np.nan)
        rows = np.flatnonzero(finite & (sqnorms > 0.0))
        root = _glm_roots(s0[rows], aq[rows], t_vec[rows], a1d.deriv, rows)
        beta[rows] = (root - s0[rows]) / sqnorms[rows]
    for lo in range(0, v.shape[0], _ROW_CHUNK):
        hi = lo + _ROW_CHUNK
        v[lo:hi] += beta[lo:hi, None] * x_mat[lo:hi]
    return v


def _glm_roots(s0, aq, t, deriv, rows) -> np.ndarray:
    """Roots of psi(u) = u - s0 + aq*(deriv(u) - t), one per entry; ``rows``
    maps entries to term indices for error messages.

    psi' >= 1 puts each root within |psi(s0)| of s0; an infinite psi(s0)
    leaves the whole float range on the root's side of s0.  Brackets wider
    than ``_WIDE`` first bisect in the asinh scale until they are not; then
    every bracket bisects arithmetically until it is at most 1e-12 wide or
    holds no float between its ends.  psi <= 0, -inf included, counts as
    below the root.
    """

    def psi(u):
        return u - s0 + aq * (deriv(u) - t)

    p0 = aq * (deriv(s0) - t)
    if np.isnan(p0).any():
        raise ConvergenceError("could not bracket the GLM prox subproblem "
                               f"(term {rows[np.argmax(np.isnan(p0))]})")
    r = 1.0 + np.abs(p0)
    lo = np.where(p0 > -np.inf, np.maximum(s0 - r, -_BIG), s0)
    hi = np.where(p0 < np.inf, np.minimum(s0 + r, _BIG), s0)
    # asinh halvings, which are geometric far from zero, until every
    # bracket is narrow or holds no float between its ends
    wide = hi - lo > _WIDE
    for _ in range(_BISECT_CAP):
        if not wide.any():
            break
        g = np.sinh(0.5 * (np.arcsinh(lo) + np.arcsinh(hi)))
        mid = np.where((lo < g) & (g < hi), g, 0.5 * (lo + hi))
        wide &= (lo < mid) & (mid < hi)
        left = psi(mid) <= 0.0
        lo = np.where(wide & left, mid, lo)
        hi = np.where(wide & ~left, mid, hi)
        wide &= hi - lo > _WIDE
    for _ in range(_BISECT_CAP):
        mid = 0.5 * (lo + hi)
        live = (hi - lo > _BETA_TOL) & (lo < mid) & (mid < hi)
        if not live.any():
            return mid
        left = psi(mid) <= 0.0
        lo = np.where(live & left, mid, lo)
        hi = np.where(live & ~left, mid, hi)
    raise ConvergenceError("GLM prox bisection exceeded 200 steps "
                           f"(term {rows[np.argmax(hi - lo > _BETA_TOL)]})")


def hinge_scalar(y: float) -> ScalarFn:
    """The scalar hinge t -> max(1 - y*t, 0) with its exact prox."""
    def value(t):
        return max(1.0 - y * t, 0.0)

    def subgrad(t):
        return -y if 1.0 - y * t > 0.0 else 0.0

    def prox(t0, tau):
        return t0 + y * min(max(1.0 - y * t0, 0.0), tau)

    return ScalarFn(value=value, subgrad=subgrad, prox=prox)
