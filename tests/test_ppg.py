"""Full-sweep solver: step algebra, reductions to classical methods,
monotonicity, and run options."""

import math
import warnings

import numpy as np
import pytest

from conftest import abs_prox_fn, lasso_problem, make_quadratic_term, \
    prox_only_problem, simple_problem
from proxsplit.baselines import consensus_admm_run, proximal_gradient_run
from proxsplit.core import SmoothFn, SolverState, chunked_row_mean, \
    initial_state, residual_map, zero_prox
from proxsplit.ppg import SolveOptions, ppg_run, ppg_step, resolve_alpha


class TestStepAlgebra:
    def test_update_identity(self, rng):
        # one sweep advances z by exactly -alpha * p(z), up to rounding
        problem = lasso_problem(rng)
        state = initial_state(problem, 0.1, rng.standard_normal(
            (problem.n, problem.dim)))
        p, _, _ = residual_map(state, problem)
        z_before = state.z.copy()
        ppg_step(state, problem)
        assert np.allclose(state.z, z_before - state.alpha * p, atol=1e-12)

    def test_fixed_point_is_invariant(self):
        problem = simple_problem([abs_prox_fn(0.0), abs_prox_fn(2.0)], dim=1)
        state = SolverState(z=np.array([[0.0], [2.0]]), zbar=np.array([1.0]),
                            alpha=1.0)
        z_before = state.z.copy()
        _, report = ppg_step(state, problem)
        assert report.residual_norm <= 1e-12
        assert np.allclose(state.z, z_before, atol=1e-12)

    def test_report_indexes_prestep_iterate(self, rng):
        problem = lasso_problem(rng)
        state = initial_state(problem, 0.05)
        _, r0 = ppg_step(state, problem)
        _, r1 = ppg_step(state, problem)
        assert (r0.k, r1.k) == (0, 1)


class TestReductions:
    def test_matches_proximal_gradient_when_g_zero(self, rng):
        problem = lasso_problem(rng, m=6, d=5, lam=0.2)
        alpha = 0.4 / problem.lipschitz_bound()
        for iters in (1, 3, 10, 50):
            opts = SolveOptions(alpha=alpha, max_iters=iters)
            x_split = ppg_run(problem, opts).x
            x_fb = proximal_gradient_run(problem, opts).x
            assert np.allclose(x_split, x_fb, atol=1e-12)

    def test_matches_consensus_admm_when_f_r_zero(self, rng):
        problem = prox_only_problem(rng, n=3, d=2)
        for iters in (1, 5, 50):
            opts = SolveOptions(alpha=0.8, max_iters=iters)
            x_split = ppg_run(problem, opts).x
            x_admm = consensus_admm_run(problem, opts).x
            assert np.allclose(x_split, x_admm, atol=1e-12)

    def test_admm_variable_substitution(self, rng):
        # with f = r = 0 the sweep is dual ascent on per-term copies:
        # the averaged state equals the mean term point, each term point is
        # the prox at (average + alpha*dual), and duals ascend with rate
        # 1/alpha on the consensus gap
        problem = prox_only_problem(rng, n=3, d=2)
        alpha = 0.8
        state = initial_state(problem, alpha)
        trace = []
        for _ in range(6):
            x_half = problem.r.prox(state.zbar, alpha)
            z_snapshot = state.z.copy()
            _, _ = ppg_step(state, problem)
            _, _, x_terms = residual_map(
                SolverState(z=z_snapshot,
                            zbar=chunked_row_mean(
                                z_snapshot, problem.reduce_chunks),
                            alpha=alpha), problem)
            trace.append((x_half, z_snapshot, x_terms))
        # x_half^k equals the mean of the term points produced at step k-1
        for k in range(1, 6):
            x_half_k = trace[k][0]
            prev_terms = trace[k - 1][2]
            assert np.allclose(x_half_k, prev_terms.mean(axis=0), atol=1e-12)
        # dual ascent: y^{k+1} = y^k + (1/alpha)*(x_half^{k+1} - X^{k+1})
        for k in range(0, 5):
            x_half_k, z_k, terms_k1 = trace[k]
            x_half_k1, z_k1, _ = trace[k + 1]
            y_k = (x_half_k[None, :] - z_k) / alpha
            y_k1 = (x_half_k1[None, :] - z_k1) / alpha
            want = y_k + (x_half_k1[None, :] - terms_k1) / alpha
            assert np.allclose(y_k1, want, atol=1e-12)
        # term points are the prox evaluations of the dual-shifted average
        for k in range(0, 5):
            x_half_k, z_k, terms_k1 = trace[k]
            y_k = (x_half_k[None, :] - z_k) / alpha
            for i, gi in enumerate(problem.g):
                want = gi.prox(x_half_k + alpha * y_k[i], alpha)
                assert np.allclose(terms_k1[i], want, atol=1e-12)

    def test_single_quadratic_is_gradient_descent(self, rng):
        # n=1, r=g=0: iterates contract along each eigenmode by (1-alpha*s)
        h = np.array([[2.0, 0.0], [0.0, 0.5]])
        fn_value = lambda x: 0.5 * float(x @ h @ x)
        from proxsplit.core import SmoothFn
        fn = SmoothFn(value=fn_value, gradient=lambda x: h @ x, lipschitz=2.0)
        problem = simple_problem([zero_prox()], dim=2, terms_f=[fn])
        alpha = 0.5
        x0 = np.array([1.0, 1.0])
        res = ppg_run(problem, SolveOptions(alpha=alpha, max_iters=7),
                      warm_start=x0[None, :])
        want = (1.0 - alpha * np.diag(h)) ** 7 * x0
        assert np.allclose(res.x, want, atol=1e-12)


class TestRunBehavior:
    def test_monotone_residual(self, rng):
        problem = lasso_problem(rng, m=10, d=8)
        res = ppg_run(problem, SolveOptions(max_iters=300))
        resids = [r.residual_norm for r in res.log.rows]
        assert all(b <= a + 1e-12 for a, b in zip(resids, resids[1:]))

    def test_fejer_monotone(self, rng):
        problem = lasso_problem(rng, m=6, d=5)
        alpha = 0.5 / problem.lipschitz_bound()
        ref = ppg_run(problem, SolveOptions(alpha=alpha, max_iters=6000,
                                            record_every=6000))
        z_star = ref.state.z
        state = initial_state(problem, alpha)
        prev = np.linalg.norm(state.z - z_star)
        for _ in range(300):
            ppg_step(state, problem)
            cur = np.linalg.norm(state.z - z_star)
            assert cur <= prev + 1e-10
            prev = cur

    def test_rate_envelope(self, rng):
        problem = lasso_problem(rng, m=8, d=6)
        res = ppg_run(problem, SolveOptions(max_iters=600))
        resids = np.array([r.residual_norm for r in res.log.rows])
        ks = np.array([r.k for r in res.log.rows])
        running_min = np.minimum.accumulate(resids ** 2)
        stat = ks * running_min
        window = stat[(ks >= 100) & (ks <= 600)]
        assert window.max() <= 3.0 * window[0] + 1e-30

    def test_tol_stops_early(self, rng):
        problem = lasso_problem(rng)
        res = ppg_run(problem, SolveOptions(max_iters=5000, tol=1e-6))
        assert res.converged
        assert res.log.rows[-1].k < 4999

    def test_not_converged_flag(self, rng):
        problem = lasso_problem(rng)
        res = ppg_run(problem, SolveOptions(max_iters=3, tol=1e-14))
        assert not res.converged

    def test_stop_reason_tol(self, rng):
        res = ppg_run(lasso_problem(rng), SolveOptions(max_iters=5000,
                                                       tol=1e-6))
        assert res.converged and res.log.metadata["stop"] == "tol"

    @pytest.mark.parametrize("tol", [0.0, 1e-14])
    def test_stop_reason_budget(self, rng, tol):
        res = ppg_run(lasso_problem(rng), SolveOptions(max_iters=3, tol=tol))
        assert len(res.log.rows) == 3
        assert res.log.metadata["stop"] == "budget"

    def test_per_term_sweep_names_failing_term(self, rng):
        from proxsplit.core import ConvergenceError, ProxFn

        def fail(x0, a):
            raise ConvergenceError("inner solve failed")

        g = [abs_prox_fn(0.0)] * 4
        g[3] = ProxFn(prox=fail)
        problem = simple_problem(g, dim=2)
        with pytest.raises(ConvergenceError, match=r"\(term 3\)$"):
            ppg_run(problem, SolveOptions(alpha=1.0, max_iters=2))

    def test_ergodic_average(self, rng):
        problem = lasso_problem(rng, m=5, d=4)
        alpha = 0.3 / problem.lipschitz_bound()
        res = ppg_run(problem, SolveOptions(alpha=alpha, max_iters=20,
                                            ergodic=True))
        state = initial_state(problem, alpha)
        halves = []
        for _ in range(20):
            x_half = problem.r.prox(state.zbar, alpha)
            halves.append(x_half)
            ppg_step(state, problem)
        assert np.allclose(res.ergodic, np.mean(halves, axis=0), atol=1e-12)

    def test_linear_rate_when_strongly_convex(self, rng):
        # strongly convex global term: the distance to the fixed point
        # contracts geometrically
        from proxsplit.prox import prox_scaled_sq_norm
        from proxsplit.core import ProxFn
        problem_base = lasso_problem(rng, m=6, d=5)
        mu = 0.5
        r = ProxFn(prox=lambda x0, a: prox_scaled_sq_norm(x0, mu, a),
                   value=lambda x: 0.5 * mu * float(x @ x))
        from proxsplit.core import ProblemSpec
        problem = ProblemSpec(dim=problem_base.dim, n=problem_base.n, r=r,
                              f=problem_base.f, g=problem_base.g)
        alpha = 1.0 / problem.lipschitz_bound()
        ref = ppg_run(problem, SolveOptions(alpha=alpha, max_iters=4000,
                                            record_every=4000))
        z_star = ref.state.z
        state = initial_state(problem, alpha)
        dists = []
        for _ in range(200):
            ppg_step(state, problem)
            dists.append(np.linalg.norm(state.z - z_star))
        dists = np.array(dists)
        ratios = dists[1:] / dists[:-1]
        assert np.median(ratios) < 0.999


class TestErgodicDiagnostics:
    def test_averaged_gap_decays_like_one_over_k(self, rng):
        # the averaged iterates' objective-gap surrogate decays at 1/k:
        # k * |gap| stays flat while the gap itself shrinks
        from proxsplit.core import initial_state, objective, objective_gap, \
            residual_map
        problem = prox_only_problem(np.random.default_rng(5), n=4, d=3)
        alpha = 0.8
        ref = ppg_run(problem, SolveOptions(alpha=alpha, max_iters=20000,
                                            record_every=20000))
        ref_obj = objective(ref.x, problem)
        state = initial_state(problem, alpha)
        sum_x_half, sum_x_terms = np.zeros(3), np.zeros((4, 3))
        gaps = []
        for k in range(1, 801):
            _, x_half, x_terms = residual_map(state, problem)
            ppg_step(state, problem)
            sum_x_half += x_half
            sum_x_terms += x_terms
            gaps.append(abs(objective_gap(sum_x_half / k, sum_x_terms / k,
                                          ref_obj, problem)))
        gaps = np.array(gaps)
        ks = np.arange(1, 801)
        stat = (ks * gaps)[99:]
        assert stat.max() <= 3.0 * stat[0] + 1e-12
        assert gaps[799] <= 0.2 * gaps[99]


class TestStronglyConvexSingleTerm:
    def test_geometric_decrease_of_distance(self, rng):
        # strongly convex global term with one smooth row: the distance to
        # the reference point shrinks geometrically
        from proxsplit.core import ProblemSpec, ProxFn
        from proxsplit.prox import prox_scaled_sq_norm
        fn = make_quadratic_term(np.array([1.0, 0.4]), 0.8)
        r = ProxFn(prox=lambda x0, a: prox_scaled_sq_norm(x0, 0.3, a),
                   value=lambda x: 0.15 * float(x @ x))
        problem = ProblemSpec(dim=2, n=1, r=r, f=(fn,), g=(zero_prox(),))
        alpha = 1.0 / problem.lipschitz_bound()
        ref = ppg_run(problem, SolveOptions(alpha=alpha, max_iters=8000,
                                            record_every=8000))
        res = ppg_run(problem, SolveOptions(alpha=alpha, max_iters=60,
                                            record_every=1), x_ref=ref.x)
        dists = np.array([row.dist_to_ref for row in res.log.rows])
        dists = dists[dists > 1e-13]
        ratios = dists[1:] / dists[:-1]
        assert np.all(ratios <= 0.98)


class TestOptions:
    def test_alpha_zero_rejected(self, rng):
        problem = lasso_problem(rng)
        with pytest.raises(ValueError):
            ppg_run(problem, SolveOptions(alpha=0.0, max_iters=1))

    @pytest.mark.parametrize("every", [0, -2])
    def test_record_every_below_one_rejected(self, every):
        with pytest.raises(ValueError, match="record_every"):
            SolveOptions(record_every=every)

    @pytest.mark.parametrize("every", [2.5, True, "3", np.float64(2.0)])
    def test_record_every_not_int_rejected(self, every):
        # 2.5 made ppg record k = 0, 5, 10 and sppg fail inside numpy;
        # True was taken as 1
        with pytest.raises(ValueError, match="record_every"):
            SolveOptions(record_every=every)

    def test_numpy_int_record_every_accepted(self):
        assert SolveOptions(record_every=np.int64(3)).record_every == 3

    @pytest.mark.parametrize("iters", [-3, 2.5, "10", True, None])
    def test_bad_max_iters_rejected(self, iters):
        # -3 used to report converged=True after zero iterations
        with pytest.raises(ValueError, match="max_iters"):
            SolveOptions(max_iters=iters)

    @pytest.mark.parametrize("tol", [math.nan, -1e-8, math.inf])
    def test_bad_tol_rejected(self, tol):
        # inf stopped after one sweep with converged=True; NaN never stopped
        with pytest.raises(ValueError, match="tol"):
            SolveOptions(tol=tol)

    def test_zero_budget_accepted(self, rng):
        res = ppg_run(lasso_problem(rng), SolveOptions(alpha=0.1, max_iters=0))
        assert res.state.k == 0 and res.log.rows == []

    def test_alpha_beyond_two_over_l_rejected(self, rng):
        problem = lasso_problem(rng)
        lip = problem.lipschitz_bound()
        with pytest.raises(ValueError, match="2/L"):
            resolve_alpha(problem, 2.0 / lip)

    def test_alpha_warning_band(self, rng):
        problem = lasso_problem(rng)
        lip = problem.lipschitz_bound()
        with pytest.warns(UserWarning):
            resolve_alpha(problem, 1.8 / lip)

    def test_default_alpha_is_inverse_l(self, rng):
        problem = lasso_problem(rng)
        assert resolve_alpha(problem, None) == 1.0 / problem.lipschitz_bound()

    def test_default_alpha_silent_without_smooth_terms(self, rng):
        # every f_i is zero, so any alpha > 0 converges: nothing to warn of
        from proxsplit.problems import build_glm, glm_family
        problem = build_glm(rng.standard_normal((6, 3)), rng.uniform(0, 1, 6),
                            glm_family("logistic"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_alpha(problem, None) == 1.0

    def test_default_alpha_warns_for_unbounded_smooth_term(self):
        # a nonzero f that reports no Lipschitz bound keeps the warning
        unbounded = SmoothFn(value=lambda x: float(np.sum(x ** 4)),
                             gradient=lambda x: 4.0 * x ** 3)
        problem = simple_problem([abs_prox_fn(1.0)], terms_f=[unbounded])
        with pytest.warns(UserWarning, match="no Lipschitz bound"):
            assert resolve_alpha(problem, None) == 1.0
