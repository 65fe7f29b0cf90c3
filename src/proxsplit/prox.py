"""Closed-form and reduced-form proximal operators.

Everything here evaluates prox_{a*h}(x0) = argmin_u h(u) + ||u - x0||^2/(2a)
for specific families of h.  Operators are pure, reentrant, and return fresh
arrays.  One-dimensional reductions (affine compositions, generalized linear
model terms) solve a scalar strongly convex subproblem, unless the scalar
function has a closed-form prox.  One safeguarded secant rule,
:func:`_regula_falsi`, finds every such root, on a derivative or on any
subgradient selection: :func:`glm_root` runs it one term at a time, and
:func:`_glm_roots` applies it to all rows at once.  Each root is bracketed
without a search: the subproblem's optimality function has slope at least
1, so its value at the starting point bounds the distance to the root.
"""

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dtrtrs as _dtrtrs

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
]

_BETA_TOL = 1e-12
# the largest float: the far end of a bracket whose first value overflowed
_BIG = sys.float_info.max
# steps of a 1-D prox root, per row on every path: about 64 bisections in
# the asinh scale shrink any finite bracket to a few floats, and the stall
# rule lets few secant steps fail between them (the steepest GLM rows take
# 66 steps)
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
    inner solve, otherwise the safeguarded root solve of :func:`glm_root`
    runs on any subgradient selection.  ``deriv`` marks the function
    differentiable; the generalized-linear-model prox requires it.
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


def prox_affine_1d(a: np.ndarray, f1d: ScalarFn, x0: np.ndarray,
                   alpha: float) -> np.ndarray:
    """Prox of g(x) = f(a'x) for a scalar convex f and nonzero a.

    The minimizer lies on the ray x0 + beta*a, so the d-dimensional prox
    collapses to one scalar problem: beta minimizes
    alpha*f(a'x0 + beta*||a||^2) + (||a||^2/2)*beta^2.  Without a prox
    handle, t = a'x0 + beta*||a||^2 is the root of
    t - a'x0 + alpha*||a||^2*sub(t), found by :func:`glm_root`; it raises
    :class:`ConvergenceError` when a'x0 is not finite.
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
        beta = (glm_root(s0, alpha * q, 0.0, sub) - s0) / q
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
    """Solve (I + alpha*A'A) u = alpha*A'b + v with the cached factor.

    Calls LAPACK's ``dtrtrs`` on the upper factor ``chol.T`` (Fortran order
    for a C-ordered ``chol``), transposed and then plain: the two calls
    ``scipy.linalg.solve_triangular`` makes for the same factor, with the
    same output bytes, without its wrapper.  Non-finite input raises
    ``ValueError``, as its ``check_finite`` did.
    """
    rhs = cache.atb + v
    if not np.isfinite(rhs).all():
        raise ValueError("array must not contain infs or NaNs")
    upper = cache.chol.T
    y, info = _dtrtrs(upper, rhs, lower=0, trans=1, overwrite_b=1)
    if info == 0:
        y, info = _dtrtrs(upper, y, lower=0, trans=0, overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (info {info})")
    return y


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
    ``deriv`` (the derivative of a convex cumulant, or a subgradient
    selection of any convex function, which may jump), to 1e-12.

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
        raise ConvergenceError("could not bracket the 1-D prox subproblem")
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
    end kept twice in a row has its value halved), clipped to [a, b].  A
    step bisects [a, b] in the asinh scale instead when either end's value
    is infinite, when the secant step rounds onto an end of the bracket, or
    while bisections are owed.  Two secant steps in a row that each leave
    |psi| above half the smaller |psi| at the ends before the step are a
    stall, which owes one bisection; each further stall before a secant
    step succeeds doubles the count, so a cumulant that rounds to a
    staircase (where no secant step helps) costs little more than
    bisection.  The asinh scale is arithmetic near zero and geometric far
    from it, so a bracket spanning many orders of magnitude (up to the
    whole float range) closes in a few dozen bisections.
    :func:`_glm_roots` applies the same rule to all rows at once.
    """
    flo, fhi = plo, phi  # interpolation values, halved by the Illinois rule
    side = 0  # the end the last step moved: -1 lo, 1 hi
    missed, owed, wait = 0, 0, 1  # stall state: see the docstring
    for _ in range(_ROOT_CAP):
        a = hi - phi if hi - phi > lo else lo
        b = lo - plo if lo - plo < hi else hi
        if not b - a > _BETA_TOL:
            break
        t = math.nan
        if not owed and -math.inf < flo and fhi < math.inf:
            t = lo - flo * ((hi - lo) / (fhi - flo))
            if t < a:
                t = a
            elif t > b:
                t = b
        secant = lo < t < hi
        if not secant:
            t = math.sinh(0.5 * (math.asinh(a) + math.asinh(b)))
            if not a < t < b:
                t = 0.5 * (a + b)
            if not lo < t < hi:
                break  # no float left between the ends
            owed = max(owed - 1, 0)
        target = 0.5 * min(-plo, phi)
        p = psi(t)
        if abs(p) <= _BETA_TOL:
            return t
        if secant:
            if abs(p) <= target:
                missed, wait = 0, 1
            elif missed:
                missed, owed, wait = 0, wait, 2 * wait
            else:
                missed = 1
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
        raise ConvergenceError(f"1-D prox root exceeded {_ROOT_CAP} steps")
    return 0.5 * (a + b)


def _glm_roots(s0, aq, t, deriv, rows) -> np.ndarray:
    """Roots of psi(u) = u - s0 + aq*(deriv(u) - t), one per entry, for a
    ``deriv`` that maps arrays elementwise; ``rows`` maps entries to term
    indices for error messages.  The all-rows GLM prox
    (:meth:`kernels.GlmStructure.betas`) solves its rows with it.

    Each row takes the bracket of :func:`glm_root` and the steps and stops
    of :func:`_regula_falsi`, by masked updates: one vectorized psi
    evaluation per round serves every unsolved row, and a row leaves the
    working arrays once it stops, so the few slow rows cost little.
    Raises :class:`ConvergenceError` naming the term when psi(s0) is NaN or
    a row is unsolved after ``_ROOT_CAP`` rounds.
    """
    p0 = aq * (deriv(s0) - t)
    if np.isnan(p0).any():
        raise ConvergenceError("could not bracket the 1-D prox subproblem "
                               f"(term {rows[np.argmax(np.isnan(p0))]})")
    root = s0.copy()
    at = np.flatnonzero(p0 != 0.0)  # the entries still unsolved
    # one column per unsolved row: in ``work`` its bracket, end values,
    # interpolation values and constants; in ``count`` its Illinois side
    # and stall state (missed, owed, wait), small integers
    work = np.empty((9, at.size))
    count = np.zeros((4, at.size), dtype=np.int16)
    count[3] = 1  # wait: a first stall owes one bisection
    lo, hi, plo, phi, flo, fhi, c, k, r = work
    c[:], k[:], r[:], p = s0[at], aq[at], t[at], p0[at]
    t1 = np.clip(c - p, -_BIG, _BIG)
    p1 = t1 - c + k * (deriv(t1) - r)
    up = p < 0.0  # s0 lies below the root
    lo[:] = np.where(up, c, t1)
    hi[:] = np.where(up, t1, c)
    plo[:] = flo[:] = np.where(up, p, p1)
    phi[:] = fhi[:] = np.where(up, p1, p)
    del p0, p, t1, p1, up
    for _ in range(_ROOT_CAP):
        if not at.size:
            return root
        lo, hi, plo, phi, flo, fhi, c, k, r = work
        side, missed, owed, wait = count
        # in place where it saves a temporary; fmax and fmin pass over a
        # NaN bound, as the scalar comparisons do, and a NaN step stays NaN
        a = hi - phi
        np.fmax(a, lo, out=a)
        b = lo - plo
        np.fmin(b, hi, out=b)
        u = hi - lo
        u /= fhi - flo
        u *= flo
        np.subtract(lo, u, out=u)
        np.maximum(u, a, out=u)
        np.minimum(u, b, out=u)
        secant = ((owed == 0) & (flo > -np.inf) & (fhi < np.inf)
                  & (lo < u) & (u < hi))
        if not secant.all():
            g = np.sinh(0.5 * (np.arcsinh(a) + np.arcsinh(b)))
            u = np.where(secant, u,
                         np.where((a < g) & (g < b), g, 0.5 * (a + b)))
            np.putmask(owed, ~secant & (owed > 0), owed - 1)
        # a row whose [a, b] is narrow or holds no float between the ends
        # stops at the midpoint of [a, b]
        go = (b - a > _BETA_TOL) & (lo < u) & (u < hi)
        if not go.all():
            np.putmask(u, ~go, 0.5 * (a + b))
            if not go.any():
                root[at] = u
                return root
        del a, b  # not held through the evaluation
        p = deriv(u) - r  # a new array: deriv may return its argument
        p *= k
        p += u - c
        # the stall rule, on rows that took a secant step
        gain = secant & (np.abs(p) <= 0.5 * np.minimum(-plo, phi))
        miss = secant & ~gain
        stall = miss & (missed > 0)
        np.putmask(missed, secant, miss & ~stall)
        np.putmask(owed, stall, wait)
        np.putmask(wait, stall, 2 * wait)
        np.putmask(wait, gain, 1)
        # the Illinois rule: an end kept twice in a row has its value halved
        below = p < 0.0
        above = ~below
        np.putmask(fhi, below & (side < 0), 0.5 * fhi)
        np.putmask(flo, above & (side > 0), 0.5 * flo)
        for end, val, interp, moved in ((lo, plo, flo, below),
                                        (hi, phi, fhi, above)):
            np.putmask(end, moved, u)
            np.putmask(val, moved, p)
            np.putmask(interp, moved, p)
        side[:] = 1 - 2 * below
        keep = go & ~(np.abs(p) <= _BETA_TOL)  # a NaN psi goes on
        if not keep.all():
            root[at[~keep]] = u[~keep]
            # in place, one row at a time, so that no second copy is held
            kept = np.flatnonzero(keep)
            for row in (*work, *count, at):
                row[:kept.size] = row.take(kept)
            work, count = work[:, :kept.size], count[:, :kept.size]
            at = at[:kept.size]
        del u, p  # not held through the next round
    if not at.size:
        return root
    raise ConvergenceError(f"1-D prox root exceeded {_ROOT_CAP} steps "
                           f"(term {rows[at[0]]})")


def hinge_scalar(y: float) -> ScalarFn:
    """The scalar hinge t -> max(1 - y*t, 0) with its exact prox."""
    def value(t):
        return max(1.0 - y * t, 0.0)

    def subgrad(t):
        return -y if 1.0 - y * t > 0.0 else 0.0

    def prox(t0, tau):
        return t0 + y * min(max(1.0 - y * t0, 0.0), tau)

    return ScalarFn(value=value, subgrad=subgrad, prox=prox)
