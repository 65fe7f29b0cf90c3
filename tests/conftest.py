"""Shared fixtures and brute-force oracles.

The prox oracle minimizes alpha*f(u) + 0.5*(u - x0)^2 on a multi-resolution
grid: a wide window that doubles until the minimizer is interior, then
three refinement passes around the incumbent.  It never calls any library
prox, so it stays an independent check of the closed forms.
"""

import numpy as np
import pytest

from proxsplit.core import ProblemSpec, ProxFn, zero_prox, zero_smooth


def grid_prox_scalar(fval, x0, alpha, radius=4.0, points=2001, levels=4):
    """Brute-force scalar prox: argmin_u alpha*f(u) + 0.5*(u - x0)^2.

    ``fval`` must be vectorized over numpy arrays.  Final resolution is
    radius * (2/points)^levels, well below 1e-6 for the defaults.
    """
    center = float(x0)
    r = radius
    for _ in range(60):
        grid = np.linspace(center - r, center + r, points)
        vals = alpha * fval(grid) + 0.5 * (grid - x0) ** 2
        j = int(np.argmin(vals))
        if 0 < j < points - 1:
            break
        center = float(grid[j])
        r *= 2.0
    else:
        raise AssertionError("oracle window never captured the minimizer")
    for _ in range(levels):
        center = float(grid[j])
        r *= 2.5 / points
        grid = np.linspace(center - r, center + r, points)
        vals = alpha * fval(grid) + 0.5 * (grid - x0) ** 2
        j = int(np.argmin(vals))
    return float(grid[j])


def prox_objective(fval, u, x0, alpha):
    """alpha*f(u) + 0.5*||u - x0||^2 for d-dimensional points."""
    return alpha * fval(u) + 0.5 * float(np.sum((np.asarray(u) - x0) ** 2))


def make_quadratic_term(a_row, y):
    """Smooth term 0.5*(a'x - y)^2 used across solver tests."""
    from proxsplit.core import SmoothFn
    a_row = np.asarray(a_row, dtype=float)
    return SmoothFn(value=lambda x: 0.5 * float(a_row @ x - y) ** 2,
                    gradient=lambda x: (float(a_row @ x) - y) * a_row,
                    lipschitz=float(a_row @ a_row))


def abs_prox_fn(shift=0.0, weight=1.0):
    """ProxFn for weight*|x - shift| applied elementwise."""
    from proxsplit.prox import soft_threshold_scalar

    def prox(x0, a):
        return shift + soft_threshold_scalar(np.asarray(x0) - shift,
                                             a * weight)

    return ProxFn(prox=prox,
                  value=lambda x: weight * float(np.abs(x - shift).sum()))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def lasso_problem(rng, m=8, d=6, lam=0.1):
    """r = lam*||x||_1 with one quadratic row per term and zero g."""
    from proxsplit.core import zero_smooth
    from proxsplit.prox import soft_threshold_scalar
    a_mat = rng.standard_normal((m, d))
    x_true = np.zeros(d)
    x_true[: max(1, d // 3)] = rng.standard_normal(max(1, d // 3))
    y = a_mat @ x_true + 0.05 * rng.standard_normal(m)
    r = ProxFn(prox=lambda x0, a: soft_threshold_scalar(x0, a * lam),
               value=lambda x: lam * float(np.abs(x).sum()))
    f = tuple(make_quadratic_term(a_mat[i], y[i]) for i in range(m))
    g = tuple(zero_prox() for _ in range(m))
    return ProblemSpec(dim=d, n=m, r=r, f=f, g=g, kind="lasso")


def prox_only_problem(rng, n=4, d=3):
    """f = r = 0 with shifted elementwise-|.| terms; solutions are medians."""
    shifts = rng.standard_normal(n)
    return simple_problem([abs_prox_fn(float(s)) for s in shifts], dim=d)


def tiny_svm(rng, n=12, d=3, lam=0.1, **kwargs):
    from proxsplit.problems import SvmData, build_svm
    feats = rng.standard_normal((n, d))
    w = rng.standard_normal(d)
    labels = np.sign(feats @ w)
    labels[labels == 0] = 1.0
    return build_svm(SvmData(feats, labels, lam=lam), **kwargs)


def tiny_glm(rng, family, n=12, d=3):
    """A GLM of the given family with responses drawn from the model."""
    from proxsplit.problems import build_glm, glm_family
    x_mat = rng.standard_normal((n, d)) / np.sqrt(d)
    eta = x_mat @ rng.standard_normal(d)
    if family == "logistic":
        mean = 0.5 * (1.0 + np.tanh(0.5 * eta))
        t_vec = (rng.random(n) < mean).astype(float)
    elif family == "poisson":
        t_vec = rng.poisson(np.exp(eta)).astype(float)
    else:
        t_vec = eta + 0.3 * rng.standard_normal(n)
    return build_glm(x_mat, t_vec, glm_family(family))


def simple_problem(terms_g, dim=1, r=None, terms_f=None):
    """Assemble a ProblemSpec from loose term lists (zeros filled in)."""
    n = max(len(terms_g), len(terms_f or []))
    g = list(terms_g) + [zero_prox()] * (n - len(terms_g))
    f = list(terms_f or []) + [zero_smooth()] * (n - len(terms_f or []))
    return ProblemSpec(dim=dim, n=n, r=r if r is not None else zero_prox(),
                       f=tuple(f), g=tuple(g))
