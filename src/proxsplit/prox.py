"""Closed-form and reduced-form proximal operators.

Everything here evaluates prox_{a*h}(x0) = argmin_u h(u) + ||u - x0||^2/(2a)
for specific families of h.  Operators are pure, reentrant, and return fresh
arrays, except the all-rows GLM prox, which overwrites its input block.
One-dimensional reductions (affine compositions, generalized linear
model terms) solve a scalar strongly convex subproblem by bisection on the
subgradient sign, or by a safeguarded root bracket when a derivative handle
is available.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.optimize

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
    "prox_glm_rows",
]

_BISECT_CAP = 200
_BRACKET_CAP = 60
_BETA_TOL = 1e-12


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


def _bisect_beta(phi, hint: float = 1.0) -> float:
    """Root of an increasing function by bracket expansion + bisection.

    Used for the scalar step of affine-composition proxes; phi is monotone
    because the underlying function is convex.  Raises when the bracket
    cannot be found or the 200-step cap is hit before the interval narrows
    to 1e-12.
    """
    r = max(abs(hint), 1.0)
    lo, hi = -r, r
    for _ in range(_BRACKET_CAP):
        if phi(lo) <= 0.0 <= phi(hi):
            break
        lo *= 2.0
        hi *= 2.0
    else:
        raise ConvergenceError("could not bracket the 1-D prox subproblem")
    for _ in range(_BISECT_CAP):
        if hi - lo <= _BETA_TOL:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
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
        beta = _bisect_beta(lambda b: alpha * sub(s0 + b * q) + b,
                            hint=alpha * abs(sub(s0)) + 1.0)
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
    solved by a bracketed safeguarded method to 1e-12; xi = 0 makes the
    term constant and x0 is returned unchanged.
    """
    xi = np.asarray(xi, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    q = float(xi @ xi)
    if q == 0.0:
        return x0.copy()
    if a1d.deriv is None:
        raise ValueError("a1d must supply a derivative handle")
    s0 = float(xi @ x0)
    aq = alpha * q

    def psi(t):
        return t - s0 + aq * (a1d.deriv(t) - ti)

    # psi is increasing, so bracket by walking a window: non-finite values
    # (steep cumulants overflowing) can only occur above the root, finite
    # negatives only below it.
    deriv0 = a1d.deriv(s0)
    r = 1.0 + (abs(aq * (deriv0 - ti)) if math.isfinite(deriv0) else 1.0)
    lo, hi = s0 - r, s0 + r
    for _ in range(_BRACKET_CAP):
        plo = psi(lo)
        if not math.isfinite(plo) or plo > 0.0:
            # the whole window sits above the root; slide it down
            hi = lo
            lo -= r
            r *= 2.0
            continue
        # walk hi back out of the overflow region; the width halves each
        # step, so even astronomically wide windows resolve quickly
        phi = psi(hi)
        for _ in range(1200):
            if math.isfinite(phi):
                break
            hi = 0.5 * (lo + hi)
            phi = psi(hi)
        if not math.isfinite(phi):
            raise ConvergenceError("could not bracket the GLM prox subproblem")
        if phi < 0.0:
            lo = hi
            hi = hi + r
            r *= 2.0
        else:
            break
    else:
        raise ConvergenceError("could not bracket the GLM prox subproblem")
    t = scipy.optimize.brentq(psi, lo, hi, xtol=_BETA_TOL, maxiter=600)
    beta = (t - s0) / q
    return x0 + beta * xi


# rows per in-place update of prox_glm_rows; bounds its temporary to a
# small block instead of a second n x d array
_ROW_CHUNK = 256


def prox_glm_rows(v: np.ndarray, x_mat: np.ndarray, t_vec: np.ndarray,
                  a1d: ScalarFn, alpha: float) -> np.ndarray:
    """:func:`prox_glm_1d` of every row at once: row i of the result is
    the prox at ``v[i]`` of the term with data row ``x_mat[i]`` and
    response ``t_vec[i]``.  ``v`` is overwritten and returned.

    ``a1d.deriv`` must map arrays elementwise.  Each row's scalar root
    t + alpha*q*(A'(t) - t_i) = s0 is bracketed by the window walk of
    :func:`prox_glm_1d`, a non-finite psi counting as above the root, and
    then bisected until its bracket is at most 1e-12 wide (or holds no
    float between its ends).  Zero data rows are left unchanged.  Rows
    whose data or input are not finite come back as NaN, for the caller
    to report by index.
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
    maps entries to term indices for error messages."""

    def psi(u):
        return u - s0 + aq * (deriv(u) - t)

    def below(p):
        return np.isfinite(p) & (p <= 0.0)

    deriv0 = deriv(s0)
    r = 1.0 + np.where(np.isfinite(deriv0), np.abs(aq * (deriv0 - t)), 1.0)
    lo, hi = s0 - r, s0 + r
    for _ in range(_BRACKET_CAP):
        p_hi = psi(hi)
        down = ~below(psi(lo))  # the whole window sits above the root
        up = ~down & np.isfinite(p_hi) & (p_hi < 0.0)  # ... or below it
        moving = down | up
        if not moving.any():
            break
        lo, hi = (np.where(down, lo - r, np.where(up, hi, lo)),
                  np.where(down, lo, np.where(up, hi + r, hi)))
        r = np.where(moving, 2.0 * r, r)
    else:
        raise ConvergenceError("could not bracket the GLM prox subproblem "
                               f"(term {rows[np.argmax(moving)]})")
    for _ in range(_BISECT_CAP):
        mid = 0.5 * (lo + hi)
        live = (hi - lo > _BETA_TOL) & (lo < mid) & (mid < hi)
        if not live.any():
            return mid
        left = below(psi(mid))
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
