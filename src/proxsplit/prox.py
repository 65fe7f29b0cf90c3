"""Closed-form and reduced-form proximal operators.

Everything here evaluates prox_{a*h}(x0) = argmin_u h(u) + ||u - x0||^2/(2a)
for specific families of h.  Operators are pure, reentrant, and return fresh
arrays.  One-dimensional reductions (affine compositions, generalized linear
model terms) solve a scalar strongly convex subproblem, unless the scalar
function has a closed-form prox.  Each root is bracketed without a search:
the subproblem's optimality function psi has slope at least 1, so its value
at the starting point bounds the distance to the root.  A generalized
linear model's root takes safeguarded Newton steps, whose curvature comes
from the family's variance function: :func:`glm_root` runs them one term at
a time, and :func:`_glm_roots` applies the same rule to all rows at once.
A subgradient selection has no curvature, so :func:`prox_affine_1d` finds
its root by the safeguarded secant rule :func:`_regula_falsi`.
"""

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dtrtrs as _dtrtrs

from .core import (ConvergenceError, NumericalError, _nonfinite_entry,
                   _require_finite)

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
# the asinh scale shrink any finite bracket to a few floats, and the
# safeguards let few secant or Newton steps fail between them (the
# steepest GLM rows take 66 secant or 57 Newton steps)
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
    inner solve, otherwise the safeguarded secant rule of
    :func:`_regula_falsi` runs on any subgradient selection.  ``deriv``
    marks the function differentiable.  The generalized-linear-model prox
    takes f as a cumulant A and requires ``deriv`` and ``variance``: the
    variance function V of the family, with A''(t) = V(A'(t)), which gives
    its Newton steps their curvature.
    """

    value: Callable[[float], float] | None = None
    subgrad: Callable[[float], float] | None = None
    prox: Callable[[float, float], float] | None = None
    deriv: Callable[[float], float] | None = None
    variance: Callable[[float], float] | None = None

    def any_subgrad(self):
        return self.subgrad if self.subgrad is not None else self.deriv


def _require_elementwise(a1d, names=("value", "deriv", "variance")):
    """Reject a cumulant (a :class:`ScalarFn`, or anything with the same
    handle attributes) that lacks one of the named handles or whose handle
    does not map arrays elementwise: the all-rows prox and objective
    evaluate them on whole arrays."""
    probe = np.array([-1.0, 0.0, 2.0])
    for name in names:
        fn = getattr(a1d, name)
        if fn is None:
            raise ValueError(f"the cumulant must supply a {name} handle")
        try:
            out = np.asarray(fn(probe), dtype=float)
            ok = out.shape == probe.shape and np.allclose(
                out, [fn(float(t)) for t in probe], rtol=1e-12, atol=0.0)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError(f"the cumulant's {name} handle must map an "
                             "array elementwise")


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
    t - a'x0 + alpha*||a||^2*sub(t), found by :func:`_regula_falsi`; it
    raises :class:`ConvergenceError` when a'x0 is not finite.
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
        beta = (_subgradient_root(s0, alpha * q, sub) - s0) / q
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
    if _nonfinite_entry(a, q) is not None:
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
        # a step so large that alpha*A'A or alpha*A'b overflows is
        # reported as the prox of r, not as numpy's overflow warnings
        with np.errstate(over="ignore", invalid="ignore"):
            m = np.eye(d) + alpha * (a_mat.T @ a_mat)
            atb = alpha * (a_mat.T @ b)
        _require_finite(m, "prox of r")
        _require_finite(atb, "prox of r")
        try:
            chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Cholesky factorization failed: {exc}")
        return cls(chol=chol, atb=atb, alpha=alpha)


def prox_quadratic(cache: CachedQuadraticProx, v: np.ndarray) -> np.ndarray:
    """Solve (I + alpha*A'A) u = alpha*A'b + v with the cached factor.

    Calls LAPACK's ``dtrtrs`` on the upper factor ``chol.T`` (Fortran order
    for a C-ordered ``chol``), transposed and then plain: the two calls
    ``scipy.linalg.solve_triangular`` makes for the same factor, with the
    same output bytes, without its wrapper.  Non-finite input raises
    ``ValueError``, as its ``check_finite`` did.
    """
    rhs = cache.atb + v
    if _nonfinite_entry(rhs) is not None:
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
    solved to 1e-12 by the safeguarded Newton steps of :func:`glm_root`,
    which take the cumulant's ``variance`` handle; a cumulant without one,
    or with one that does not map arrays elementwise, raises ``ValueError``.
    xi = 0 makes the term constant and x0 is returned unchanged.
    """
    xi = np.asarray(xi, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    q = float(xi @ xi)
    if q == 0.0:
        return x0.copy()
    if a1d.deriv is None:
        raise ValueError("a1d must supply a derivative handle")
    _require_elementwise(a1d, ("variance",))
    s0 = float(xi @ x0)
    # glm_root handles a steep cumulant's overflow itself
    with np.errstate(over="ignore"):
        t = glm_root(s0, alpha * q, ti, a1d.deriv, a1d.variance)
    return x0 + ((t - s0) / q) * xi


def glm_root(s0: float, aq: float, ti: float, deriv, variance) -> float:
    """Root of psi(t) = t - s0 + aq*(deriv(t) - ti), to 1e-12, for the
    derivative ``deriv`` = A' of a convex cumulant whose variance function
    ``variance`` gives its curvature, A''(t) = V(A'(t)).

    psi' >= 1, so the root lies between s0 and s0 - psi(s0), and
    |psi(t)| <= 1e-12 bounds |t - root| by 1e-12.  That far end is clipped
    to the float range and never evaluated.  Each step starts from the
    last evaluated point u, s0 first: the Newton step
    u - psi(u)/(1 + aq*V(A'(u))), which reuses u's A'(u).  It must land in
    the interval known to hold the root, off the evaluated ends, and move
    at most half as far as the step before last (the safeguard of
    ``rtsafe``, Press et al., *Numerical Recipes*, section 9.4); otherwise
    the step bisects that interval in the asinh scale, as
    :func:`_regula_falsi` does.  The rule stops at |psi(t)| <= 1e-12, or
    when that interval is at most 1e-12 wide or the bracket holds no float
    between its ends.  A wrong ``variance`` costs steps, not the root.
    Raises :class:`ConvergenceError` when s0, aq or ti is not finite, when
    psi(s0) is NaN, or when the step cap is hit.
    """
    u, mu = s0, float(deriv(s0))
    p = u - s0 + aq * (mu - ti)
    if not (math.isfinite(s0) and math.isfinite(aq)
            and math.isfinite(ti)) or math.isnan(p):
        raise ConvergenceError("could not bracket the 1-D prox subproblem")
    # the bracket [lo, hi] and psi at its ends; an end not yet evaluated
    # is the float range's and counts as infinite, so [a, b] below runs
    # from s0 to s0 - psi(s0) after the first evaluation
    lo, plo, hi, phi = -_BIG, -math.inf, _BIG, math.inf
    last, half = math.inf, math.inf  # half: of the step before last
    for _ in range(_ROOT_CAP):
        if abs(p) <= _BETA_TOL:
            return u
        if p < 0.0:
            lo, plo = u, p
        else:
            hi, phi = u, p
        a = hi - phi if hi - phi > lo else lo
        b = lo - plo if lo - plo < hi else hi
        if not b - a > _BETA_TOL:
            break
        t = u - p / (1.0 + aq * float(variance(mu)))
        if not (a <= t <= b and lo < t < hi and abs(t - u) <= half):
            t = _asinh_midpoint(a, b)
            if not lo < t < hi:
                break  # no float left between the ends
        half, last = 0.5 * last, abs(t - u)
        u = t
        mu = float(deriv(u))
        p = u - s0 + aq * (mu - ti)
    else:
        raise ConvergenceError(f"1-D prox root exceeded {_ROOT_CAP} steps")
    return 0.5 * (a + b)


def _asinh_midpoint(a: float, b: float) -> float:
    """The midpoint of [a, b] in the asinh scale, which is arithmetic near
    zero and geometric far from it; the plain midpoint where that rounds
    onto or past an end."""
    t = math.sinh(0.5 * (math.asinh(a) + math.asinh(b)))
    return t if a < t < b else 0.5 * (a + b)


def _subgradient_root(s0: float, aq: float, sub) -> float:
    """Root of psi(t) = t - s0 + aq*sub(t) for a nondecreasing ``sub`` (a
    subgradient selection of a convex function, which may jump), to 1e-12,
    by :func:`_regula_falsi` on the bracket from s0 to s0 - psi(s0), whose
    far end is clipped to the float range.  Raises
    :class:`ConvergenceError` when s0 or aq is not finite or psi(s0) is NaN.
    """

    def psi(t):
        return t - s0 + aq * float(sub(t))

    p0 = aq * float(sub(s0))
    if not (math.isfinite(s0) and math.isfinite(aq)) or math.isnan(p0):
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
            t = _asinh_midpoint(a, b)
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


def _glm_roots(s0, aq, t, deriv, variance, rows) -> np.ndarray:
    """Roots of psi(u) = u - s0 + aq*(deriv(u) - t), one per entry, for a
    ``deriv`` and ``variance`` that map arrays elementwise; ``rows`` maps
    entries to term indices for error messages.  The all-rows GLM prox
    (:meth:`kernels.GlmStructure.betas`) solves its rows with it.

    Each row takes the bracket, steps and stops of :func:`glm_root`, by
    masked updates: one vectorized evaluation of psi and V per round serves
    every unsolved row, and a row leaves the working arrays once it stops,
    so the few slow rows cost little.  Raises :class:`ConvergenceError`
    naming the term when psi(s0) is NaN or a row is unsolved after
    ``_ROOT_CAP`` steps.
    """
    # one column per unsolved row: its bracket and the values at its ends
    # (an end not yet evaluated as in glm_root), its constants, the point
    # last evaluated, and the lengths of the last step and half the one
    # before it
    root = np.empty_like(s0)
    work = np.empty((10, s0.size))
    lo, hi, plo, phi, c, k, r, u, last, half = work
    lo.fill(-_BIG)
    hi.fill(_BIG)
    plo.fill(-np.inf)
    phi.fill(np.inf)
    c[:], k[:], r[:], u[:] = s0, aq, t, s0
    last.fill(np.inf)
    half.fill(np.inf)
    at = np.arange(s0.size)  # the entries still unsolved

    def evaluate():
        # psi at u, and the Newton step from u; new arrays, since deriv
        # and variance may return their argument
        mu = deriv(u)
        step = k * variance(mu)
        step += 1.0
        p = mu - r
        del mu
        p *= k
        p += u - c
        np.divide(p, step, out=step)
        np.subtract(u, step, out=step)
        return p, step

    p, nxt = evaluate()
    if np.isnan(p).any():
        raise ConvergenceError("could not bracket the 1-D prox subproblem "
                               f"(term {rows[np.argmax(np.isnan(p))]})")
    for _ in range(_ROOT_CAP):
        below = p < 0.0
        above = ~below  # a NaN psi moves hi, as in glm_root
        for end, val, moved in ((lo, plo, below), (hi, phi, above)):
            np.putmask(end, moved, u)
            np.putmask(val, moved, p)
        solved = np.abs(p) <= _BETA_TOL
        del below, above, p  # not held through the step
        # in place where it saves a temporary; fmax and fmin pass over a
        # NaN bound, as the scalar comparisons do
        a = hi - phi
        np.fmax(a, lo, out=a)
        b = lo - plo
        np.fmin(b, hi, out=b)
        # the Newton step, where it lands in [a, b], off the evaluated
        # ends, and moves at most half as far as the step before last
        newton = (a <= nxt) & (nxt <= b) & (lo < nxt) & (nxt < hi)
        step = nxt - u
        np.abs(step, out=step)
        newton &= step <= half
        newton |= solved
        del step
        # the other unsolved rows bisect [a, b] in the asinh scale, on
        # copies of their few entries
        bis = np.flatnonzero(~newton)
        ab, bb = a[bis], b[bis]
        g = np.arcsinh(ab)
        g += np.arcsinh(bb)
        g *= 0.5
        np.sinh(g, out=g)
        np.putmask(g, ~((ab < g) & (g < bb)), 0.5 * (ab + bb))
        nxt[bis] = g
        del ab, bb, g
        # a row stops at u when |psi| is small, and at the midpoint of
        # [a, b] when that is narrow or holds no float between the ends
        go = (b - a > _BETA_TOL) & (lo < nxt) & (nxt < hi)
        stop = np.flatnonzero(~(go | solved))
        nxt[stop] = 0.5 * (a[stop] + b[stop])
        del a, b
        np.putmask(nxt, solved, u)
        go &= ~solved  # a NaN psi goes on
        np.multiply(last, 0.5, out=half)
        np.subtract(nxt, u, out=last)
        np.abs(last, out=last)
        u[:] = nxt
        del nxt, solved
        if not go.all():
            root[at[~go]] = u[~go]
            # in place, one row at a time, so that no second copy is held
            kept = np.flatnonzero(go)
            for row in (*work, at):
                row[:kept.size] = row.take(kept)
            work = work[:, :kept.size]
            at = at[:kept.size]
            lo, hi, plo, phi, c, k, r, u, last, half = work
        if not at.size:
            return root
        p, nxt = evaluate()
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
