"""Operator library: frozen examples, brute-force oracles, and the firm
nonexpansiveness property every prox must satisfy."""

import numpy as np
import pytest
import scipy.linalg

from conftest import (GLM_GRID_AQ, GLM_GRID_RESPONSES, GLM_GRID_S0,
                      grid_prox_scalar, prox_objective)
from proxsplit.core import ConvergenceError, ProxFn, verify_prox_fn
from proxsplit.prox import (CachedQuadraticProx, Interval, ScalarFn,
                            _glm_roots, glm_root, hinge_scalar,
                            prox_affine_1d, prox_glm_1d, prox_hinge,
                            prox_pair_diff, prox_pair_sum,
                            prox_quadratic, prox_scaled_sq_norm,
                            prox_sum_coupling, project_interval,
                            soft_threshold_matrix, soft_threshold_scalar,
                            soft_threshold_vector)


class TestSoftThresholdScalar:
    def test_positive_branch(self):
        assert soft_threshold_scalar(3.0, 1.0) == 2.0

    def test_dead_zone(self):
        assert soft_threshold_scalar(0.5, 1.0) == 0.0

    def test_odd_symmetry(self):
        assert soft_threshold_scalar(-3.0, 1.0) == -2.0

    def test_elementwise(self):
        out = soft_threshold_scalar(np.array([-3.0, 0.5, 3.0]), 1.0)
        assert np.array_equal(out, [-2.0, 0.0, 2.0])

    def test_matches_grid_oracle(self, rng):
        for _ in range(50):
            x0 = float(rng.uniform(-5, 5))
            lam = float(rng.uniform(0, 3))
            want = grid_prox_scalar(np.abs, x0, lam)
            assert soft_threshold_scalar(x0, lam) == pytest.approx(
                want, abs=1e-6)

    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold_scalar(1.0, -0.1)


class TestSoftThresholdVector:
    def test_radial_example(self):
        # 1-D radial oracle: min t + 0.5*(t-5)^2 has t*=4, so the output is
        # 4/5 of the input direction.
        out = soft_threshold_vector(np.array([3.0, 4.0]), 1.0)
        assert np.allclose(out, [2.4, 3.2], atol=1e-12)
        want_t = grid_prox_scalar(np.abs, 5.0, 1.0)
        assert np.linalg.norm(out) == pytest.approx(want_t, abs=1e-6)

    def test_zero_input(self):
        assert np.array_equal(soft_threshold_vector(np.zeros(2), 5.0),
                              np.zeros(2))

    def test_shrinks_to_zero(self):
        assert np.array_equal(soft_threshold_vector(np.array([1.0, 0.0]), 2.0),
                              np.zeros(2))

    def test_radial_oracle_random(self, rng):
        for _ in range(50):
            x0 = rng.standard_normal(4) * 3
            lam = float(rng.uniform(0, 2))
            out = soft_threshold_vector(x0, lam)
            t = grid_prox_scalar(np.abs, float(np.linalg.norm(x0)), lam)
            want = (t / np.linalg.norm(x0)) * x0 if t != 0 else np.zeros(4)
            assert np.allclose(out, want, atol=1e-6)


class TestSoftThresholdMatrix:
    def test_diagonal(self):
        out = soft_threshold_matrix(np.diag([3.0, 1.0]), 1.0)
        assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)

    def test_lam_zero_identity(self, rng):
        m = rng.standard_normal((4, 3))
        assert np.allclose(soft_threshold_matrix(m, 0.0), m, atol=1e-10)

    def test_rank_one(self, rng):
        u = rng.standard_normal(5)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        m = np.outer(u, v)
        assert np.allclose(soft_threshold_matrix(m, 0.5), 0.5 * m, atol=1e-10)

    def test_against_eigensolver_oracle(self, rng):
        # independent path: right singular basis from eigh of M'M, then
        # U s(S) V' = M V diag(s(sig)/sig) V'
        for _ in range(20):
            m = rng.standard_normal((5, 4))
            lam = float(rng.uniform(0.1, 2.0))
            evals, vecs = scipy.linalg.eigh(m.T @ m)
            sig = np.sqrt(np.maximum(evals, 0.0))
            scale = np.where(sig > 1e-12,
                             np.maximum(sig - lam, 0.0) / np.maximum(sig, 1e-300),
                             0.0)
            want = m @ (vecs * scale) @ vecs.T
            assert np.allclose(soft_threshold_matrix(m, lam), want, atol=1e-8)

    def test_diag_equals_scalar_rule(self, rng):
        sig = np.sort(rng.uniform(0.1, 4.0, size=4))[::-1]
        out = soft_threshold_matrix(np.diag(sig), 1.0)
        assert np.allclose(out, np.diag(soft_threshold_scalar(sig, 1.0)),
                           atol=1e-10)


class TestProjectInterval:
    def test_clamps(self):
        iv = Interval(0.0, 1.0)
        assert project_interval(5.0, iv) == 1.0
        assert project_interval(-2.0, iv) == 0.0
        assert project_interval(0.3, iv) == 0.3

    def test_elementwise(self):
        out = project_interval(np.array([-2.0, 0.3, 5.0]), Interval(0.0, 1.0))
        assert np.array_equal(out, [0.0, 0.3, 1.0])

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)


def _huber_prox(t0, tau):
    """prox_{tau*f} of the Huber function f, whose derivative clips t to
    [-1, 1]."""
    return t0 / (1.0 + tau) if abs(t0) <= 1.0 + tau else t0 - tau * np.sign(t0)


# scalar functions given by a subgradient selection, each with the closed
# form of its prox: |t|, the hinge for y = +-1, and the Huber function
_SUBGRADIENTS = {
    "sign": (lambda t: float(np.sign(t)), soft_threshold_scalar),
    "hinge+1": (hinge_scalar(1.0).subgrad, hinge_scalar(1.0).prox),
    "hinge-1": (hinge_scalar(-1.0).subgrad, hinge_scalar(-1.0).prox),
    "clip": (lambda t: min(max(t, -1.0), 1.0), _huber_prox),
}


class TestProxAffine1d:
    @pytest.mark.parametrize("name", sorted(_SUBGRADIENTS))
    def test_subgradient_solve_matches_closed_form(self, name, rng):
        # |a| from 1e-3 to 1e3, |x0| from 1e-3 to 1e6 and alpha from 1e-3
        # to 1e4.  The root t = a'x is solved to 1e-12, so its error is
        # measured relative to max(1, |a'x0|, |t|)
        sub, prox = _SUBGRADIENTS[name]
        for _ in range(1000):
            a = rng.standard_normal(3)
            a *= 10.0 ** rng.uniform(-3, 3) / np.linalg.norm(a)
            x0 = rng.standard_normal(3)
            x0 *= 10.0 ** rng.uniform(-3, 6) / np.linalg.norm(x0)
            alpha = float(10.0 ** rng.uniform(-3, 4))
            counted, calls = _counted(sub)
            got = prox_affine_1d(a, ScalarFn(subgrad=counted), x0, alpha)
            want = prox_affine_1d(a, ScalarFn(prox=prox), x0, alpha)
            t, s0 = float(a @ want), float(a @ x0)
            assert abs(float(a @ got) - t) <= 1e-11 * max(1.0, abs(s0),
                                                          abs(t))
            assert len(calls) <= 70

    @pytest.mark.parametrize("name", sorted(_SUBGRADIENTS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_start_raises(self, name, bad):
        f = ScalarFn(subgrad=_SUBGRADIENTS[name][0])
        with pytest.raises(ConvergenceError, match="1-D prox"):
            prox_affine_1d(np.array([1.0, 0.0]), f, np.array([bad, 0.0]), 1.0)

    def test_zero_function_is_identity(self, rng):
        x0 = rng.standard_normal(4)
        f = ScalarFn(value=lambda t: 0.0, subgrad=lambda t: 0.0)
        assert np.allclose(prox_affine_1d(np.array([1.0, 0, 0, 0]), f, x0, 1.0),
                           x0, atol=1e-11)

    def test_linear_function(self):
        # f(t) = t gives beta = -alpha exactly
        f = ScalarFn(value=lambda t: t, subgrad=lambda t: 1.0)
        out = prox_affine_1d(np.array([1.0, 0.0, 0.0]), f, np.zeros(3), 1.0)
        assert np.allclose(out, [-1.0, 0.0, 0.0], atol=1e-10)

    def test_matches_grid_oracle_abs(self, rng):
        f = ScalarFn(value=lambda t: abs(t), subgrad=lambda t: float(np.sign(t)))
        for _ in range(25):
            a = rng.standard_normal(3)
            x0 = rng.standard_normal(3)
            alpha = float(rng.uniform(0.1, 2.0))
            out = prox_affine_1d(a, f, x0, alpha)
            q = float(a @ a)
            s0 = float(a @ x0)
            # on the reduction ray the problem is the scalar prox of |.|
            # at s0 with step alpha*q
            t = grid_prox_scalar(np.abs, s0, alpha * q)
            assert float(a @ out) == pytest.approx(t, abs=1e-5)

    def test_matches_hinge_closed_form(self, rng):
        for _ in range(300):
            d = 4
            a = rng.standard_normal(d)
            y = float(rng.choice([-1.0, 1.0]))
            x0 = rng.standard_normal(d) * 2
            alpha = float(rng.uniform(0.05, 3.0))
            via_1d = prox_affine_1d(a, hinge_scalar(y), x0, alpha)
            direct = prox_hinge(x0, a, y, alpha)
            assert np.allclose(via_1d, direct, atol=1e-9)

    def test_bisection_path_matches_prox_path(self, rng):
        # same hinge, forcing the subgradient-only solve
        for _ in range(50):
            a = rng.standard_normal(3)
            y = float(rng.choice([-1.0, 1.0]))
            x0 = rng.standard_normal(3)
            full = hinge_scalar(y)
            sub_only = ScalarFn(value=full.value, subgrad=full.subgrad)
            got = prox_affine_1d(a, sub_only, x0, 0.7)
            want = prox_affine_1d(a, full, x0, 0.7)
            assert np.allclose(got, want, atol=1e-9)

    def test_bisection_stops_on_float_grid(self):
        # beta = 1e6: floats there are 1.2e-10 apart, so the bracket can
        # never narrow to 1e-12 and the solve must stop on the float grid
        subgrad_only = ScalarFn(subgrad=hinge_scalar(1.0).subgrad)
        out = prox_affine_1d(np.array([1.0]), subgrad_only,
                             np.array([-1e7]), 1e6)
        want = prox_affine_1d(np.array([1.0]), hinge_scalar(1.0),
                              np.array([-1e7]), 1e6)
        assert out[0] == pytest.approx(want[0], rel=1e-15, abs=0.0)

    def test_zero_direction_rejected(self):
        f = ScalarFn(value=lambda t: 0.0, subgrad=lambda t: 0.0)
        with pytest.raises(ValueError):
            prox_affine_1d(np.zeros(3), f, np.zeros(3), 1.0)


class TestSumCoupling:
    def test_zero_function(self, rng):
        xi = rng.standard_normal((3, 4))
        a = np.array([1.0, -2.0, 0.5])
        f = ProxFn(prox=lambda x0, t: np.array(x0, copy=True),
                   value=lambda x: 0.0)
        assert np.allclose(prox_sum_coupling(a, f, xi, 0.8), xi, atol=1e-12)

    def test_pair_sum_corollary(self, rng):
        from conftest import abs_prox_fn
        f = abs_prox_fn(weight=1.3)
        for _ in range(50):
            xi = rng.standard_normal((2, 3))
            got = prox_sum_coupling(np.array([1.0, 1.0]), f, xi, 0.6)
            u, v = prox_pair_sum(f, xi[0], xi[1], 0.6)
            assert np.allclose(got[0], u, atol=1e-10)
            assert np.allclose(got[1], v, atol=1e-10)

    def test_pair_diff_corollary(self, rng):
        from conftest import abs_prox_fn
        f = abs_prox_fn(weight=0.9)
        for _ in range(50):
            xi = rng.standard_normal((2, 3))
            got = prox_sum_coupling(np.array([1.0, -1.0]), f, xi, 0.6)
            u, v = prox_pair_diff(f, xi[0], xi[1], 0.6)
            assert np.allclose(got[0], u, atol=1e-10)
            assert np.allclose(got[1], v, atol=1e-10)


class TestPairOps:
    def test_zero_function(self, rng):
        x0 = rng.standard_normal(3)
        y0 = rng.standard_normal(3)
        f = ProxFn(prox=lambda v, t: np.array(v, copy=True))
        u, v = prox_pair_sum(f, x0, y0, 1.0)
        assert np.allclose(u, x0, atol=1e-12) and np.allclose(v, y0, atol=1e-12)

    def test_equal_points_diff_unchanged(self, rng):
        from conftest import abs_prox_fn
        x0 = rng.standard_normal(4)
        u, v = prox_pair_diff(abs_prox_fn(weight=2.0), x0, x0.copy(), 0.7)
        assert np.allclose(u, x0, atol=1e-12) and np.allclose(v, x0, atol=1e-12)

    def test_scalar_reduction_oracle(self, rng):
        # d=1 pair-difference couples through s = x - y only:
        # min lam*a|s| + (s-delta)^2/4, i.e. the scalar prox at doubled step
        from conftest import abs_prox_fn
        lam = 0.8
        f = abs_prox_fn(weight=lam)
        for _ in range(30):
            x0 = float(rng.uniform(-3, 3))
            y0 = float(rng.uniform(-3, 3))
            alpha = float(rng.uniform(0.1, 2.0))
            u, v = prox_pair_diff(f, np.array([x0]), np.array([y0]), alpha)
            s = grid_prox_scalar(lambda t: lam * np.abs(t), x0 - y0,
                                 2.0 * alpha)
            assert float(u[0] - v[0]) == pytest.approx(s, abs=1e-6)
            assert float(u[0] + v[0]) == pytest.approx(x0 + y0, abs=1e-12)


class TestProxHinge:
    def test_frozen_example(self):
        out = prox_hinge(np.zeros(3), np.array([1.0, 0, 0]), 1.0, 0.5)
        assert np.allclose(out, [0.5, 0.0, 0.0], atol=1e-12)

    def test_satisfied_margin_unchanged(self, rng):
        a = np.array([2.0, 0.0])
        x0 = np.array([3.0, 1.0])  # 1 - a'x0 = -5 <= 0
        assert np.array_equal(prox_hinge(x0, a, 1.0, 0.5), x0)

    def test_grid_oracle_along_direction(self, rng):
        for _ in range(30):
            a = rng.standard_normal(3)
            y = float(rng.choice([-1.0, 1.0]))
            x0 = rng.standard_normal(3)
            alpha = float(rng.uniform(0.1, 2.0))
            out = prox_hinge(x0, a, y, alpha)
            q = float(a @ a)
            s0 = float(a @ x0)
            t = grid_prox_scalar(lambda s: np.maximum(1.0 - y * s, 0.0),
                                 s0, alpha * q)
            assert float(a @ out) == pytest.approx(t, abs=1e-5)


class TestScaledSqNorm:
    def test_lam_zero(self, rng):
        x0 = rng.standard_normal(3)
        assert np.allclose(prox_scaled_sq_norm(x0, 0.0, 1.0), x0)

    def test_frozen_example(self):
        assert prox_scaled_sq_norm(np.array([2.0]), 1.0, 1.0)[0] == 1.0

    def test_radial_grid_oracle(self, rng):
        for _ in range(30):
            x0 = float(rng.uniform(-4, 4))
            lam = float(rng.uniform(0.1, 3.0))
            alpha = float(rng.uniform(0.1, 2.0))
            want = grid_prox_scalar(lambda t: 0.5 * lam * t * t, x0, alpha)
            got = prox_scaled_sq_norm(np.array([x0]), lam, alpha)[0]
            assert got == pytest.approx(want, abs=1e-6)


class TestProxQuadratic:
    def test_zero_matrix_is_identity(self, rng):
        v = rng.standard_normal(4)
        cache = CachedQuadraticProx.from_data(np.zeros((2, 4)), np.zeros(2), 1.0)
        assert np.allclose(prox_quadratic(cache, v), v, atol=1e-12)

    def test_identity_matrix(self, rng):
        v = rng.standard_normal(3)
        cache = CachedQuadraticProx.from_data(np.eye(3), np.zeros(3), 1.0)
        assert np.allclose(prox_quadratic(cache, v), v / 2.0, atol=1e-12)

    def test_residual(self, rng):
        a = rng.standard_normal((10, 5))
        b = rng.standard_normal(10)
        alpha = 0.7
        cache = CachedQuadraticProx.from_data(a, b, alpha)
        v = rng.standard_normal(5)
        u = prox_quadratic(cache, v)
        lhs = (np.eye(5) + alpha * a.T @ a) @ u
        assert np.linalg.norm(lhs - (alpha * a.T @ b + v)) <= 1e-9

    def test_factor_reconstructs(self, rng):
        a = rng.standard_normal((6, 4))
        cache = CachedQuadraticProx.from_data(a, np.zeros(6), 0.3)
        m = np.eye(4) + 0.3 * a.T @ a
        err = np.linalg.norm(cache.chol @ cache.chol.T - m)
        assert err <= 1e-8 * np.linalg.norm(m)

    def test_bitwise_equal_to_two_triangular_solves(self, rng):
        # the direct LAPACK calls are the ones solve_triangular makes for a
        # C-ordered factor, so the output bytes must not move
        for case in range(300):
            d = 1 if case % 5 == 0 else int(rng.integers(2, 40))
            m = int(rng.integers(1, 60))
            alpha = float(10.0 ** rng.uniform(-4, 4))
            cache = CachedQuadraticProx.from_data(
                rng.standard_normal((m, d)), rng.standard_normal(m), alpha)
            v = rng.standard_normal(d) * 3.0
            y = scipy.linalg.solve_triangular(cache.chol, cache.atb + v,
                                              lower=True)
            want = scipy.linalg.solve_triangular(cache.chol.T, y,
                                                 lower=False)
            assert np.array_equal(prox_quadratic(cache, v), want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_input_rejected(self, rng, bad):
        cache = CachedQuadraticProx.from_data(rng.standard_normal((8, 4)),
                                              rng.standard_normal(8), 0.5)
        v = rng.standard_normal(4)
        v[2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            prox_quadratic(cache, v)


class TestProxGlm:
    def test_gaussian_matches_analytic(self, rng):
        # quadratic cumulant: the reduced scalar problem is linear, so
        # t = (s0 + tau*ti) / (1 + tau) with tau = alpha*||xi||^2
        from proxsplit.problems import glm_family
        fam = glm_family("gaussian")
        for _ in range(100):
            xi = rng.standard_normal(4)
            x0 = rng.standard_normal(4)
            ti = float(rng.uniform(-2, 2))
            alpha = float(rng.uniform(0.1, 2.0))
            out = prox_glm_1d(x0, xi, ti, fam, alpha)
            q = float(xi @ xi)
            tau = alpha * q
            t = (float(xi @ x0) + tau * ti) / (1.0 + tau)
            want = x0 + ((t - float(xi @ x0)) / q) * xi
            assert np.allclose(out, want, atol=1e-9)

    def test_zero_row_unchanged(self, rng):
        from proxsplit.problems import glm_family
        x0 = rng.standard_normal(3)
        out = prox_glm_1d(x0, np.zeros(3), 1.0, glm_family("gaussian"), 1.0)
        assert np.array_equal(out, x0)

    def test_families_stationary_across_scales(self, rng):
        # first-order condition of the reduced scalar problem holds across
        # badly scaled inputs for every family (overflow-prone cumulants
        # included)
        import warnings
        from proxsplit.problems import glm_family
        for fam_name in ("gaussian", "logistic", "poisson"):
            fam = glm_family(fam_name)
            for scale in (0.1, 10.0, 100.0):
                for _ in range(40):
                    xi = rng.standard_normal(4) * scale
                    x0 = rng.standard_normal(4) * scale
                    ti = float(rng.uniform(-2, 2)) if fam_name == "gaussian" \
                        else float(rng.uniform(0, 3))
                    alpha = float(rng.uniform(0.01, 5.0))
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", RuntimeWarning)
                        out = prox_glm_1d(x0, xi, ti, fam, alpha)
                        assert np.all(np.isfinite(out))
                        q = float(xi @ xi)
                        s0 = float(xi @ x0)
                        t = float(xi @ out)
                        resid = t - s0 + alpha * q * (fam.deriv(t) - ti)
                    assert abs(resid) <= 1e-6 * (1.0 + abs(t) + abs(s0))

    @pytest.mark.parametrize("s0", [700.0, 707.0])
    def test_poisson_prox_near_exp_overflow(self, s0):
        # aq*(exp(s0) - ti) overflows at s0 = 707, and at 700 it spans
        # 600 orders of magnitude; the root is a small t either way
        from proxsplit.problems import glm_family
        alpha = 2000.0
        with np.errstate(over="ignore"):
            out = prox_glm_1d(np.array([s0, 0.0]), np.array([1.0, 0.0]), 1.0,
                              glm_family("poisson"), alpha)
        t = float(out[0])
        assert out[1] == 0.0 and 0.0 < t < 1.0
        assert abs(t - s0 + alpha * (np.exp(t) - 1.0)) <= 1e-9

    @pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson"])
    def test_root_within_tolerance_across_scales(self, family):
        # against a bisection run down to adjacent floats; s0 - psi(s0)
        # spans from 1e-6 to 1e12 across the grid
        from proxsplit.problems import glm_family
        deriv = glm_family(family).deriv

        def reference(s0, aq, ti):
            def psi(t):
                return t - s0 + aq * (float(deriv(t)) - ti)
            lo, hi = -1.0, 1.0
            while psi(lo) > 0.0:
                lo *= 2.0
            while not psi(hi) >= 0.0:  # a NaN from overflow counts as above
                hi *= 2.0
            while lo < 0.5 * (lo + hi) < hi:
                mid = 0.5 * (lo + hi)
                if psi(mid) <= 0.0:
                    lo = mid
                else:
                    hi = mid
            return lo, hi

        with np.errstate(over="ignore"):
            for s0 in (-30.0, -1.0, 0.3, 5.0, 40.0):
                for aq in (1e-6, 1e-2, 1.0, 1e2, 1e6):
                    for ti in (0.0, 1.0, 3.0):
                        t = glm_root(s0, aq, ti, deriv)
                        lo, hi = reference(s0, aq, ti)
                        assert lo - 1e-12 <= t <= hi + 1e-12, (s0, aq, ti)

    def test_poisson_overflow_roots_are_cheap(self):
        # exp(s0) overflows, so the bracket is [-DBL_MAX, s0]; bisecting it
        # in the asinh scale reaches the root ln(s0 + 1 - t) quickly
        import math
        for s0 in (1e3, 1e4, 1e5, 1e6, 1e7, 1e300):
            calls = []

            def deriv(t):
                calls.append(t)
                return np.exp(t)

            with np.errstate(over="ignore"):
                t = glm_root(s0, 1.0, 1.0, deriv)
            assert len(calls) <= 50, s0
            assert abs(t - math.log(s0 + 1.0 - t)) <= 1e-12 * (1.0 + abs(t))

    def test_logistic_local_optimality(self, rng):
        from proxsplit.problems import glm_family
        fam = glm_family("logistic")
        for _ in range(20):
            xi = rng.standard_normal(3)
            x0 = rng.standard_normal(3)
            ti = float(rng.uniform(0, 1))
            alpha = 0.8

            def g_val(beta):
                s = float(xi @ beta)
                return fam.value(s) - ti * s

            out = prox_glm_1d(x0, xi, ti, fam, alpha)
            base = prox_objective(g_val, out, x0, alpha)
            for step in (-1e-4, 1e-4):
                probe = out + step * xi / np.linalg.norm(xi)
                assert base <= prox_objective(g_val, probe, x0, alpha) + 1e-10


def _counted(deriv):
    """``deriv`` wrapped to record each call's argument."""
    calls = []

    def wrapped(t):
        calls.append(t)
        return deriv(t)

    return wrapped, calls


# steep logistic rows.  With response 1 the root lies near t = 37, where
# A'(t) - 1 rounds to a staircase (A'(t) sits within a few ulps of 1 and
# moves in steps of about 1e-16): no secant step helps there, and the stall
# rule's bisections close the bracket in 61-66 evaluations.  With response
# 0, A'(t) keeps its relative precision into the lower tail, and secant
# steps find the root near t = -42 in 31-35.
_STEEP_LOGISTIC = ((0.5, 1e100, 0.0), (0.5, 1e20, 0.0), (-1.0, 1e20, 1.0),
                   (30.0, 1e20, 0.0), (-30.0, 1e290, 1.0), (710.0, 1e20, 0.0))


def _exact_logistic_deriv(t):
    return np.exp(-np.logaddexp(0.0, -t))


class TestLogisticDerivative:
    """The logistic cumulant's derivative keeps its relative precision in
    the lower tail, so steep rows solve to the root of the exact psi.
    0.5*(1 + tanh(t/2)) was 35% off at t = -37 and exactly 0 below
    t = -37.4, and ``glm_root(0.5, 1e20, 0.0, deriv)`` gave -37.98 where
    the root is -42.2952741797505."""

    @pytest.mark.parametrize("t", [-20.0, -38.0, -700.0])
    def test_tail_relative_precision(self, t):
        from proxsplit.problems import glm_family
        got = float(glm_family("logistic").deriv(t))
        want = float(_exact_logistic_deriv(t))
        assert abs(got - want) <= 1e-15 * want

    @pytest.mark.parametrize("aq", [1e6, 1e20])
    @pytest.mark.parametrize("s0", [-3.0, 0.5, 30.0])
    def test_steep_rows_reach_the_exact_root(self, aq, s0):
        # |psi| / psi' under the exact derivative is the distance to the
        # root to first order, which the root rule brings under 1e-12
        from proxsplit.problems import glm_family
        deriv = glm_family("logistic").deriv
        one = glm_root(s0, aq, 0.0, deriv)
        rows = _glm_roots(np.array([s0]), np.array([aq]), np.array([0.0]),
                          deriv, np.array([0]))
        for t in (one, rows[0]):
            d = _exact_logistic_deriv(t)
            psi = t - s0 + aq * d
            assert abs(psi) <= 1e-12 * (1.0 + aq * d * (1.0 - d))


class TestGlmRootRule:
    """The per-term root :func:`glm_root` and the all-rows root
    ``_glm_roots`` take the same bracket, steps and stops."""

    @pytest.mark.parametrize("row", _STEEP_LOGISTIC)
    def test_steep_logistic_rows_take_few_evaluations(self, row):
        from proxsplit.problems import glm_family
        deriv = glm_family("logistic").deriv
        scalar, calls = _counted(deriv)
        with np.errstate(over="ignore"):
            t = glm_root(*row, scalar)
        assert len(calls) <= 70
        vector, vcalls = _counted(deriv)
        with np.errstate(over="ignore", invalid="ignore"):
            u = _glm_roots(*(np.array([x]) for x in row), vector,
                           np.array([0]))
        assert len(vcalls) <= 70
        assert abs(u[0] - t) <= 1e-11 * (1.0 + abs(row[0]))

    @pytest.mark.parametrize("family", sorted(GLM_GRID_RESPONSES))
    def test_all_rows_match_per_term_roots(self, rng, family):
        from proxsplit.problems import glm_family
        deriv = glm_family(family).deriv
        grid = [(s0, aq, ti) for s0 in GLM_GRID_S0 for aq in GLM_GRID_AQ
                for ti in GLM_GRID_RESPONSES[family]]
        m = 500
        drawn = np.column_stack([
            rng.standard_normal(m) * 10.0 ** rng.uniform(-1.0, 2.0, m),
            10.0 ** rng.uniform(-4.0, 4.0, m),
            rng.integers(0, 2, m) if family == "logistic"
            else rng.uniform(-3.0 if family == "gaussian" else 0.0, 3.0, m)])
        cases = np.vstack([np.array(grid), drawn])
        s0, aq, ti = cases.T.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            got = _glm_roots(s0, aq, ti, deriv, np.arange(s0.size))
            want = np.array([glm_root(*c, deriv) for c in cases])
        assert np.all(np.abs(got - want) <= 1e-11 * (1.0 + np.abs(s0)))

    def test_gen_glm_rows_take_few_rounds(self):
        # rows like `proxsplit gen glm --family logistic` at alpha = 1:
        # the bracket costs two evaluations and secant steps solve every
        # row in about five rounds, where bisection to 1e-12 takes over 40
        import dataclasses
        from conftest import tiny_glm
        rows = tiny_glm(np.random.default_rng(7), "logistic", n=2000,
                        d=50).structure
        deriv, calls = _counted(rows.deriv)
        rows = dataclasses.replace(rows, deriv=deriv)
        rng = np.random.default_rng(0)
        for scale in (0.0, 0.3, 1.0, 3.0):
            v = scale * rng.standard_normal(rows.features.shape)
            calls.clear()
            beta = rows.betas(np.einsum("ij,ij->i", rows.features, v), 1.0)
            assert np.all(np.isfinite(beta))
            assert len(calls) <= 8, scale

def _operator_zoo(rng):
    """Each library operator wrapped over a flat vector for the firm
    nonexpansiveness sweep."""
    a = rng.standard_normal(5)
    quad_a = rng.standard_normal((6, 5))
    quad_b = rng.standard_normal(6)
    from conftest import abs_prox_fn
    from proxsplit.problems import glm_family
    abs13 = abs_prox_fn(weight=1.3)
    fam = glm_family("logistic")
    xi = rng.standard_normal(5)
    return {
        "soft_scalar": lambda x0, t: soft_threshold_scalar(x0, 0.7 * t),
        "soft_vector": lambda x0, t: soft_threshold_vector(x0, 1.3 * t),
        "soft_matrix": lambda x0, t: soft_threshold_matrix(
            x0.reshape(5, 3), 0.9 * t).ravel(),
        "project": lambda x0, t: project_interval(x0, Interval(-0.5, 1.5)),
        "affine_1d": lambda x0, t: prox_affine_1d(a, hinge_scalar(1.0), x0, t),
        "sum_coupling": lambda x0, t: prox_sum_coupling(
            np.array([1.0, -2.0, 0.5]), abs13, x0.reshape(3, 5), t).ravel(),
        "pair_sum": lambda x0, t: np.concatenate(
            prox_pair_sum(abs13, x0[:5], x0[5:], t)),
        "pair_diff": lambda x0, t: np.concatenate(
            prox_pair_diff(abs13, x0[:5], x0[5:], t)),
        "hinge": lambda x0, t: prox_hinge(x0, a, -1.0, t),
        "scaled_sq_norm": lambda x0, t: prox_scaled_sq_norm(x0, 0.8, t),
        "quadratic": lambda x0, t: prox_quadratic(
            CachedQuadraticProx.from_data(quad_a, quad_b, t), x0),
        "glm": lambda x0, t: prox_glm_1d(x0, xi, 0.4, fam, t),
    }


_DIMS = {"soft_matrix": 15, "sum_coupling": 15, "pair_sum": 10,
         "pair_diff": 10}


@pytest.mark.parametrize("name", sorted(_operator_zoo(
    np.random.default_rng(0)).keys()))
def test_firm_nonexpansiveness(name, rng):
    ops = _operator_zoo(rng)
    fn = ProxFn(prox=ops[name])
    verify_prox_fn(fn, _DIMS.get(name, 5), rng, n_pairs=200)
