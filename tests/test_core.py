"""Problem model: residual map examples against the 1-D grid oracle,
objective evaluation, the signed gap surrogate, and handle validation."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import abs_prox_fn, grid_prox_scalar, make_quadratic_term, \
    simple_problem, tiny_svm
from proxsplit.core import (ConvergenceError, NumericalError, ProblemSpec,
                            ProxFn, SmoothFn, SolverState, _checked,
                            chunked_row_mean, initial_state, objective,
                            objective_gap, residual_map, verify_batched,
                            verify_smooth_fn, zero_prox, zero_smooth)


def state_for(problem, z, alpha):
    z = np.asarray(z, dtype=float).reshape(problem.n, problem.dim)
    return SolverState(z=z.copy(),
                       zbar=chunked_row_mean(z, problem.reduce_chunks),
                       alpha=alpha)


class TestResidualMap:
    def test_reduces_to_gradient_step(self):
        # n=1, r=0, g=0, f(x)=x^2/2, alpha=0.5, z=1: the term point is one
        # forward step from 1, so the residual recovers the gradient.
        fn = SmoothFn(value=lambda x: 0.5 * float(x @ x),
                      gradient=lambda x: np.asarray(x, dtype=float),
                      lipschitz=1.0)
        problem = simple_problem([zero_prox()], dim=1, terms_f=[fn])
        st = state_for(problem, [[1.0]], alpha=0.5)
        p, x_half, x_terms = residual_map(st, problem)
        assert x_half[0] == 1.0
        assert x_terms[0, 0] == 0.5
        assert p[0, 0] == 1.0

    def test_two_abs_terms_against_oracle(self):
        # r=0, f=0, g1=|x|, g2=|x-2|, alpha=1
        problem = simple_problem([abs_prox_fn(0.0), abs_prox_fn(2.0)], dim=1)

        def expected(z):
            zbar = 0.5 * (z[0] + z[1])
            x_half = zbar  # r = 0
            t1 = grid_prox_scalar(np.abs, 2 * x_half - z[0], 1.0)
            t2 = 2.0 + grid_prox_scalar(np.abs, (2 * x_half - z[1]) - 2.0, 1.0)
            return x_half, t1, t2

        for z, frozen in [((0.0, 2.0), (1.0, 1.0, 1.0, 0.0, 0.0)),
                          ((0.0, 1.0), (0.5, 0.0, 1.0, 0.5, -0.5))]:
            st = state_for(problem, [[z[0]], [z[1]]], alpha=1.0)
            p, x_half, x_terms = residual_map(st, problem)
            xh, t1, t2 = expected(z)
            assert x_half[0] == pytest.approx(xh, abs=1e-12)
            assert x_terms[0, 0] == pytest.approx(t1, abs=1e-6)
            assert x_terms[1, 0] == pytest.approx(t2, abs=1e-6)
            want = (frozen[0], frozen[1], frozen[2], frozen[3], frozen[4])
            assert (x_half[0], x_terms[0, 0], x_terms[1, 0], p[0, 0], p[1, 0]) \
                == pytest.approx(want, abs=1e-12)

    def test_fixed_point_has_zero_residual(self):
        problem = simple_problem([abs_prox_fn(0.0), abs_prox_fn(2.0)], dim=1)
        st = state_for(problem, [[0.0], [2.0]], alpha=1.0)
        p, _, _ = residual_map(st, problem)
        assert np.linalg.norm(p) == 0.0

    def test_pure_and_deterministic(self, rng):
        problem = simple_problem([abs_prox_fn(0.0), abs_prox_fn(2.0)], dim=1)
        st = state_for(problem, rng.standard_normal((2, 1)), alpha=0.7)
        z_before = st.z.copy()
        zbar_before = st.zbar.copy()
        p1, xh1, xt1 = residual_map(st, problem)
        p2, xh2, xt2 = residual_map(st, problem)
        assert np.array_equal(st.z, z_before)
        assert np.array_equal(st.zbar, zbar_before)
        assert np.array_equal(p1, p2)
        assert np.array_equal(xh1, xh2)
        assert np.array_equal(xt1, xt2)

    def test_concurrent_calls_on_distinct_states(self, rng):
        from concurrent.futures import ThreadPoolExecutor
        problem = simple_problem([abs_prox_fn(0.0), abs_prox_fn(2.0)], dim=1)
        states = [state_for(problem, rng.standard_normal((2, 1)), 0.7)
                  for _ in range(16)]
        serial = [residual_map(st, problem) for st in states]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(
                lambda st: residual_map(st, problem), states))
        for (p1, xh1, xt1), (p2, xh2, xt2) in zip(serial, parallel):
            assert np.array_equal(p1, p2)
            assert np.array_equal(xh1, xh2)
            assert np.array_equal(xt1, xt2)

    def test_nonfinite_names_term(self):
        bad = ProxFn(prox=lambda x0, a: np.full_like(x0, np.nan))
        problem = simple_problem([abs_prox_fn(0.0), bad], dim=1)
        st = state_for(problem, [[0.0], [1.0]], alpha=1.0)
        with pytest.raises(NumericalError, match="term 1"):
            residual_map(st, problem)

    @pytest.mark.parametrize("handle", ["prox", "gradient"])
    def test_raising_handle_names_term(self, handle):
        # a SolverError raised inside a per-term handle gains its index
        def fail(*args):
            raise ConvergenceError("inner solve failed")

        g = [abs_prox_fn(0.0)] * 3
        f = [make_quadratic_term(np.ones(1), 0.0)] * 3
        if handle == "prox":
            g[2] = ProxFn(prox=fail)
        else:
            f[2] = SmoothFn(value=lambda x: 0.0, gradient=fail, lipschitz=1.0)
        problem = simple_problem(g, dim=1, terms_f=f)
        st = state_for(problem, np.zeros((3, 1)), alpha=0.5)
        with pytest.raises(ConvergenceError,
                           match=r"^inner solve failed \(term 2\)$"):
            residual_map(st, problem)

    def test_batched_nonfinite_names_term(self):
        # an inf feature makes the batched hinge prox of that row NaN
        from proxsplit.problems import SvmData, build_svm
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, np.inf],
                          [1.0, 1.0]])
        problem = build_svm(SvmData(feats, np.array([1.0, -1.0, 1.0, -1.0]),
                                    lam=0.1))
        st = state_for(problem, np.zeros((4, 2)), alpha=1.0)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError, match=r"\(term 2\)"):
                residual_map(st, problem)

    def test_alpha_validation(self):
        problem = simple_problem([abs_prox_fn(0.0)], dim=1)
        st = state_for(problem, [[0.0]], alpha=1.0)
        st.alpha = 0.0
        with pytest.raises(ValueError):
            residual_map(st, problem)

    def test_stationarity_at_fixed_point(self, rng):
        # wherever the residual vanishes, the recovered point cannot be
        # improved by small perturbations
        problem = simple_problem([abs_prox_fn(0.0), abs_prox_fn(2.0)], dim=1)
        st = state_for(problem, [[0.0], [2.0]], alpha=1.0)
        p, x_half, _ = residual_map(st, problem)
        assert np.linalg.norm(p) <= 1e-12
        base = objective(x_half, problem)
        for _ in range(100):
            delta = rng.standard_normal(1)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert base <= objective(x_half + delta, problem) + 1e-12


class TestObjective:
    def test_zero_problem(self, rng):
        problem = simple_problem([zero_prox(), zero_prox()], dim=3)
        assert objective(rng.standard_normal(3), problem) == 0.0

    def test_hinge_at_origin(self):
        from proxsplit.problems import SvmData, build_svm
        feats = np.array([[1.0, 0.5], [-0.3, 1.0], [0.7, -0.2]])
        labels = np.array([1.0, -1.0, 1.0])
        problem = build_svm(SvmData(feats, labels, lam=0.1))
        assert objective(np.zeros(2), problem) == pytest.approx(1.0, abs=0)

    def test_unavailable_marker(self, rng):
        no_value = ProxFn(prox=lambda x0, a: np.array(x0, copy=True))
        problem = simple_problem([no_value], dim=2)
        assert objective(rng.standard_normal(2), problem) is None

    def test_indicator_can_be_infinite(self):
        from proxsplit.problems import build_fused_lasso
        problem = build_fused_lasso(np.array([[1.0, 1.0]]), np.array([0.0]),
                                    lam=0.0, eps=0.1)
        assert objective(np.array([0.0, 5.0]), problem) == np.inf

    def test_averages_terms(self, rng):
        f1 = make_quadratic_term([1.0, 0.0], 1.0)
        f2 = make_quadratic_term([0.0, 2.0], -1.0)
        problem = simple_problem([abs_prox_fn(0.0), abs_prox_fn(0.0)],
                                 dim=2, terms_f=[f1, f2])
        x = rng.standard_normal(2)
        want = 0.5 * (f1.value(x) + f2.value(x)
                      + 2.0 * float(np.abs(x).sum()))
        assert objective(x, problem) == pytest.approx(want, rel=1e-12)


class TestObjectiveGap:
    def test_zero_at_solution(self):
        problem = simple_problem([abs_prox_fn(0.0)], dim=2)
        x_star = np.zeros(2)
        ref = objective(x_star, problem)
        gap = objective_gap(x_star, x_star[None, :], ref, problem)
        assert gap == 0.0

    def test_can_be_negative(self):
        # smooth part evaluated at 1, nonsmooth at 0: both vanish, while the
        # reference optimum is 0.5, so the surrogate dips below zero
        fn = SmoothFn(value=lambda x: 0.5 * float((x[0] - 1.0) ** 2),
                      gradient=lambda x: np.array([x[0] - 1.0]),
                      lipschitz=1.0)
        problem = simple_problem([abs_prox_fn(0.0)], dim=1, terms_f=[fn])
        gap = objective_gap(np.array([1.0]), np.array([[0.0]]), 0.5, problem)
        assert gap == pytest.approx(-0.5, abs=1e-12)

    def test_unavailable(self):
        no_value = ProxFn(prox=lambda x0, a: np.array(x0, copy=True))
        problem = simple_problem([no_value], dim=1)
        assert objective_gap(np.zeros(1), np.zeros((1, 1)), 0.0, problem) is None


class TestValidators:
    def test_smooth_fn_passes(self, rng):
        fn = make_quadratic_term(rng.standard_normal(4), 0.3)
        verify_smooth_fn(fn, 4, rng)

    def test_bad_gradient_caught(self, rng):
        fn = SmoothFn(value=lambda x: 0.5 * float(x @ x),
                      gradient=lambda x: 1.01 * np.asarray(x),
                      lipschitz=1.1)
        with pytest.raises(AssertionError):
            verify_smooth_fn(fn, 3, rng)

    def test_bad_lipschitz_caught(self, rng):
        fn = SmoothFn(value=lambda x: 0.5 * float(x @ x),
                      gradient=lambda x: np.asarray(x, dtype=float),
                      lipschitz=0.5)
        with pytest.raises(AssertionError):
            verify_smooth_fn(fn, 3, rng)


class TestProblemSpec:
    def test_term_count_checked(self):
        with pytest.raises(ValueError, match="^f must hold as many terms as "
                                             "g: f holds 1, g holds 2$"):
            ProblemSpec(dim=2, r=zero_prox(), f=(zero_smooth(),),
                        g=(zero_prox(), zero_prox()))

    def test_positive_dims(self):
        with pytest.raises(ValueError):
            ProblemSpec(dim=0, r=zero_prox(), f=(zero_smooth(),),
                        g=(zero_prox(),))

    def test_empty_g_rejected(self):
        with pytest.raises(ValueError, match="^g must hold at least one"):
            ProblemSpec(dim=2, r=zero_prox(), f=(), g=())

    def test_n_counts_the_terms(self, rng):
        problem = simple_problem([zero_prox()] * 3, dim=2)
        assert problem.n == 3 and problem.reduce_chunks == 3
        with pytest.raises(TypeError):
            ProblemSpec(dim=2, n=3, r=zero_prox(), f=problem.f, g=problem.g)
        # replace, as the benchmark's tracer calls it, counts them again
        fewer = replace(problem, f=problem.f[:2], g=problem.g[:2])
        assert fewer.n == 2 and fewer.reduce_chunks == 2
        svm = tiny_svm(rng, n=5, d=3)
        assert svm.n == 5 and replace(svm, kind="copy").n == 5

    def test_warm_start_shape(self):
        problem = simple_problem([zero_prox()], dim=2)
        with pytest.raises(ValueError):
            initial_state(problem, 1.0, warm_start=np.zeros((2, 2)))

    def test_chunked_mean_matches_plain_mean(self, rng):
        z = rng.standard_normal((37, 4))
        for chunks in (1, 2, 5, 16, 37):
            got = chunked_row_mean(z, chunks)
            assert np.allclose(got, z.mean(axis=0), rtol=1e-13, atol=1e-15)

    def test_chunked_mean_is_chunk_count_stable(self, rng):
        # same chunk count must give bitwise equal results on repeat calls
        z = rng.standard_normal((23, 3))
        assert np.array_equal(chunked_row_mean(z, 7), chunked_row_mean(z, 7))


class TestChecked:
    def test_makes_no_array_sized_mask(self):
        # np.isfinite(arr).all() made an n x d bool mask (1 MB here)
        arr = np.ones((8192, 128))
        tracemalloc.start()
        try:
            assert _checked(arr, arr.shape, "warm_start") is arr
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * arr.nbytes

    @pytest.mark.parametrize("fill, ok", [(np.nan, False), (np.inf, False),
                                          (-np.inf, False), (1e308, True)])
    def test_nonfinite_entries_named(self, fill, ok):
        # finite entries whose sum overflows (1e308 each) still pass
        arr = np.full((6, 4), 1e308) if ok else np.zeros((6, 4))
        arr[4, 1] = fill
        if ok:
            assert _checked(arr, (6, 4), "z0") is arr
        else:
            with pytest.raises(ValueError,
                               match="^z0 has non-finite entries$"):
                _checked(arr, (6, 4), "z0")


class TestVerifyBatched:
    @staticmethod
    def _problem(rng):
        from proxsplit.problems import build_fused_lasso
        return build_fused_lasso(rng.standard_normal((3, 4)),
                                 rng.standard_normal(3), 0.1, 0.5)

    def test_consistent_hooks_pass(self, rng):
        verify_batched(self._problem(rng), rng)

    def test_wrong_prox_caught(self, rng):
        problem = self._problem(rng)
        wrong = replace(problem, batched_g_prox=lambda v, a: (
            problem.batched_g_prox(v, a) * (1.0 + 1e-9)))
        with pytest.raises(AssertionError, match="batched_g_prox"):
            verify_batched(wrong, rng)

    def test_wrong_gradient_caught(self, rng):
        problem = self._problem(rng)

        def half_step(v, x, a):
            problem.batched_f_grad(v, x, 0.5 * a)

        with pytest.raises(AssertionError, match="batched_f_grad"):
            verify_batched(replace(problem, batched_f_grad=half_step), rng)

    def test_wrong_objective_caught(self, rng):
        problem = self._problem(rng)
        wrong = replace(problem, batched_objective=lambda x: (
            problem.batched_objective(x) + 1e-6))
        with pytest.raises(AssertionError, match="batched_objective"):
            verify_batched(wrong, rng)
