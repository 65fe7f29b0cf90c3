"""Full-sweep solver: step algebra, reductions to classical methods,
monotonicity, and run options."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import abs_prox_fn, lasso_problem, make_quadratic_term, \
    prox_only_problem, simple_problem
from proxsplit import core, kernels
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
        problem = ProblemSpec(dim=problem_base.dim, r=r, f=problem_base.f,
                              g=problem_base.g)
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
        problem = ProblemSpec(dim=2, r=r, f=(fn,), g=(zero_prox(),))
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

    def test_lipschitz_bound_found_once(self):
        # the problem reads each term's bound at construction; choosing or
        # checking a step reads none again
        reads = []

        class Term:
            is_zero = False

            @property
            def lipschitz(self):
                reads.append(1)
                return 2.0

        problem = core.ProblemSpec(dim=2, r=zero_prox(),
                                   f=[Term() for _ in range(3)],
                                   g=[zero_prox()] * 3)
        assert len(reads) == 3
        assert resolve_alpha(problem, None) == 0.5
        assert resolve_alpha(problem, 0.4) == 0.4
        assert problem.lipschitz_bound() == 2.0
        assert len(reads) == 3

    def test_default_alpha_silent_without_smooth_terms(self, rng):
        # every f_i is zero, so any alpha > 0 converges: nothing to warn of
        from proxsplit.problems import build_glm, glm_family
        problem = build_glm(rng.standard_normal((6, 3)), rng.uniform(0, 1, 6),
                            glm_family("logistic"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_alpha(problem, None) == 1.0

    @pytest.mark.parametrize("lip", [math.nan, -1.0])
    def test_nan_or_negative_lipschitz_bound_rejected(self, lip):
        # NaN was read as a missing bound (alpha 1.0 with a warning) and
        # -1.0 passed with no message at all
        with pytest.raises(ValueError, match="^lipschitz must be "
                                             "nonnegative"):
            SmoothFn(value=lambda x: 0.0, gradient=np.zeros_like,
                     lipschitz=lip)

    def test_default_alpha_refuses_infinite_bound(self, rng):
        # a bound that overflowed: 1/inf gave alpha 0.0, and the first
        # sweep divided by it
        term = SmoothFn(value=lambda x: 0.0, gradient=np.zeros_like,
                        lipschitz=math.inf)
        problem = simple_problem([abs_prox_fn(1.0)], terms_f=[term])
        with pytest.raises(ValueError, match="infinite.*rescale"):
            resolve_alpha(problem, None)
        with pytest.raises(ValueError, match="infinite"):
            ppg_run(problem, SolveOptions(max_iters=1))

    def test_default_alpha_warns_for_unbounded_smooth_term(self):
        # a nonzero f that reports no Lipschitz bound keeps the warning
        unbounded = SmoothFn(value=lambda x: float(np.sum(x ** 4)),
                             gradient=lambda x: 4.0 * x ** 3)
        problem = simple_problem([abs_prox_fn(1.0)], terms_f=[unbounded])
        with pytest.warns(UserWarning, match="no Lipschitz bound"):
            assert resolve_alpha(problem, None) == 1.0


class TestRowBlockedSweep:
    """Sweeps and probes run a block of z's rows at a time; with several
    blocks they must give what one block gives."""

    @staticmethod
    def _problems(rng):
        from conftest import tiny_glm, tiny_svm
        from proxsplit.problems import (build_fused_lasso, build_group_lasso,
                                        staggered_partition)
        svm = tiny_svm(rng, n=40, d=4)
        # 5 data rows make 10 fused terms: a 3-row block straddles row 5
        fused = build_fused_lasso(rng.standard_normal((5, 6)),
                                  rng.standard_normal(5), 0.1, 0.3)
        return {
            "svm": svm,
            "glm": tiny_glm(rng, "logistic", n=40, d=4),
            "group-lasso": build_group_lasso(
                rng.standard_normal((20, 12)), rng.standard_normal(20), 0.05,
                staggered_partition(12, 8, group_size=3, stagger=1),
                alpha=1.0),
            "fused-lasso": fused,
            "per-term": dataclasses.replace(svm, batched_g_prox=None),
            "per-term-smooth": dataclasses.replace(
                fused, batched_g_prox=None, batched_f_grad=None),
            # the ridge folded into the terms: the prox shrinks each row
            "svm-folded": tiny_svm(rng, n=40, d=4, fold_ridge=True),
        }

    @staticmethod
    def _budget(problem, rows):
        return rows * 8 * problem.dim

    @pytest.mark.parametrize("kind", ["svm", "svm-folded", "glm",
                                      "group-lasso", "fused-lasso",
                                      "per-term", "per-term-smooth"])
    def test_several_blocks_match_one(self, monkeypatch, kind):
        problem = self._problems(np.random.default_rng(3))[kind]
        opts = SolveOptions(alpha=resolve_alpha(problem, None), max_iters=6)
        # ppg_run sweeps the split SVM and GLMs in scalar coordinates; the
        # row-blocked sweep is checked on them here
        monkeypatch.setattr(kernels, "rank_one_rows",
                            lambda problem, kernel: None)
        monkeypatch.setattr(core, "SWEEP_BLOCK_BYTES", 1 << 40)
        whole = ppg_run(problem, opts)
        # budgets of one, two and three rows of z
        for rows in (1, 2, 3):
            monkeypatch.setattr(core, "SWEEP_BLOCK_BYTES",
                                self._budget(problem, rows))
            blocks = core._row_blocks(problem.n, problem.dim,
                                      problem.reduce_chunks,
                                      core.SWEEP_BLOCK_BYTES)
            assert len(blocks) > 1
            if kind == "fused-lasso" and rows > 1:
                # a block holds odd-pair and even-pair terms
                assert any(lo < problem.n // 2 < hi for lo, hi, _ in blocks)
            many = ppg_run(problem, opts)
            assert np.array_equal(many.state.z, whole.state.z)
            assert np.array_equal(many.state.zbar, whole.state.zbar)
            assert np.array_equal(many.x, whole.x)
            for a, b in zip(many.log.rows, whole.log.rows, strict=True):
                assert a.residual_norm == pytest.approx(b.residual_norm,
                                                        rel=1e-13)

    @pytest.mark.parametrize("kind", ["svm", "svm-folded", "fused-lasso",
                                      "per-term-smooth"])
    def test_probe_leaves_state_and_matches_sweep(self, monkeypatch, kind):
        problem = self._problems(np.random.default_rng(4))[kind]
        monkeypatch.setattr(core, "SWEEP_BLOCK_BYTES",
                            self._budget(problem, 3))
        state = initial_state(problem, 0.05, np.random.default_rng(5)
                              .standard_normal((problem.n, problem.dim)))
        z, zbar = state.z.copy(), state.zbar.copy()
        resid, x_half = core._sweep_blocks(state, problem, advance=False)
        assert np.array_equal(state.z, z) and np.array_equal(state.zbar, zbar)
        p, want_x, _ = residual_map(state, problem)
        assert np.array_equal(x_half, want_x)
        assert resid == pytest.approx(float(np.linalg.norm(p)), rel=1e-12)
        _, report = ppg_step(state, problem)
        assert report.residual_norm == resid

    @pytest.mark.parametrize("solver", ["admm-prox-only", "admm-svm",
                                        "prox-grad"])
    def test_reference_solvers_blocks_match_one(self, monkeypatch, tmp_path,
                                                solver):
        # ADMM and prox-grad run the sweep's blocks on per-term problems;
        # every CSV byte must be what one block gives
        from conftest import lasso_problem, prox_only_problem, tiny_svm
        from proxsplit.io import write_metrics_csv
        rng = np.random.default_rng(8)
        if solver == "prox-grad":
            problem, run = lasso_problem(rng, m=40), proximal_gradient_run
        else:
            problem = (prox_only_problem(rng, n=40)
                       if solver == "admm-prox-only" else
                       dataclasses.replace(tiny_svm(rng, n=40, d=4),
                                           batched_g_prox=None))
            run = consensus_admm_run
        opts = SolveOptions(max_iters=8)

        def csv_bytes(rows):
            monkeypatch.setattr(core, "SWEEP_BLOCK_BYTES",
                                self._budget(problem, rows))
            res = run(problem, opts)
            assert res.log.metadata["sweep"] == "per-term"
            for row in res.log.rows:
                row.wall_time_s = None
            path = tmp_path / f"{rows}.csv"
            write_metrics_csv(res.log, path)
            return path.read_bytes(), res.x

        whole, x = csv_bytes(problem.n)
        for rows in (1, 2, 3):
            many, x_many = csv_bytes(rows)
            assert len(core._row_blocks(problem.n, problem.dim,
                                        problem.reduce_chunks,
                                        core.SWEEP_BLOCK_BYTES)) > 1
            assert many == whole and np.array_equal(x_many, x)

    @pytest.mark.parametrize("kind, what", [("svm", "prox of g"),
                                            ("glm", "prox of g"),
                                            ("per-term", "prox of g"),
                                            ("fused-lasso", "gradient of f"),
                                            ("per-term-smooth",
                                             "gradient of f")])
    def test_nonfinite_row_in_later_block_named(self, monkeypatch, kind,
                                                what):
        from proxsplit.core import NumericalError
        from proxsplit.problems import (SvmData, build_fused_lasso,
                                        build_glm, build_svm, glm_family)
        rng = np.random.default_rng(6)
        if kind in ("svm", "per-term"):
            feats = rng.standard_normal((40, 4))
            feats[33] = np.inf
            problem = build_svm(SvmData(feats, np.ones(40), lam=0.1))
            if kind == "per-term":
                problem = dataclasses.replace(problem, batched_g_prox=None)
            bad = 33
        elif kind == "glm":
            t_vec = rng.random(40)
            t_vec[29] = np.nan
            problem = build_glm(rng.standard_normal((40, 4)), t_vec,
                                glm_family("logistic"))
            bad = 29
        else:
            y = rng.standard_normal(5)
            y[4] = np.nan  # data row 4: terms 4 and 9, in the 2nd block
            problem = build_fused_lasso(rng.standard_normal((5, 6)), y, 0.1,
                                        0.3)
            if kind == "per-term-smooth":
                problem = dataclasses.replace(
                    problem, batched_g_prox=None, batched_f_grad=None)
            bad = 4
        monkeypatch.setattr(core, "SWEEP_BLOCK_BYTES",
                            self._budget(problem, 3))
        lo = min(lo for lo, hi, _ in core._row_blocks(
            problem.n, problem.dim, problem.reduce_chunks,
            core.SWEEP_BLOCK_BYTES) if hi > bad)
        assert lo > 0
        # ADMM takes the same term points wherever f is zero
        for run in [ppg_run] + [consensus_admm_run] * problem.all_f_zero():
            with pytest.raises(NumericalError,
                               match=rf"^non-finite values from {what} "
                                     rf"\(term {bad}\)$"):
                run(problem, SolveOptions(alpha=0.01, max_iters=2))


def test_sweep_allocates_no_n_by_d_temporary():
    # one ppg sweep and one sppg probe on the SVM desk shape: a whole-array
    # temporary (8 MiB here) must not come back
    import tracemalloc
    from conftest import tiny_svm
    problem = tiny_svm(np.random.default_rng(0), n=8192, d=128)
    state = initial_state(problem, 10.0)
    whole = problem.n * problem.dim * 8
    for advance in (True, False):
        core._sweep_blocks(state, problem, advance)
        tracemalloc.start()
        try:
            core._sweep_blocks(state, problem, advance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < whole / 4


def test_fused_lasso_sweep_holds_one_scratch_block():
    # the fused lasso's twin of the test above: a sweep and a probe hold
    # one scratch block, and its hooks' gradient step and pair projection
    # make temporaries of at most ROW_CHUNK rows, never one of a block
    import tracemalloc
    from proxsplit.problems import build_fused_lasso
    rng = np.random.default_rng(0)
    problem = build_fused_lasso(rng.standard_normal((1000, 100)),
                                rng.standard_normal(1000), 0.1, 0.1)
    n, d = problem.n, problem.dim
    blocks = core._row_blocks(n, d, problem.reduce_chunks,
                              core.SWEEP_BLOCK_BYTES)
    assert len(blocks) > 1
    scratch = max(hi - lo for lo, hi, _ in blocks) * d * 8
    bound = scratch + 2 * core.ROW_CHUNK * d * 8 + 0.1e6
    state = initial_state(problem, resolve_alpha(problem, None))
    for advance in (True, False):
        core._sweep_blocks(state, problem, advance)
        tracemalloc.start()
        try:
            core._sweep_blocks(state, problem, advance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def test_fortran_ordered_warm_start_is_checked_in_place():
    # the finiteness test is one reduction over the start's memory: a
    # Fortran-ordered start is not copied to C order to be tested.
    # initial_state keeps its own copy of z (in the start's order), and
    # ppg on rank-one rows reads the start where it lies
    import tracemalloc
    from conftest import tiny_svm
    rng = np.random.default_rng(0)
    problem = tiny_svm(rng, n=4096, d=128)
    whole = problem.n * problem.dim * 8
    start = np.asfortranarray(rng.standard_normal((problem.n, problem.dim)))
    for run, kept in (
            (lambda: initial_state(problem, 10.0, start), whole),
            (lambda: ppg_run(problem, SolveOptions(alpha=10.0, max_iters=1),
                             warm_start=start), 0)):
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - kept < whole / 4


def test_reference_solvers_allocate_no_n_by_d_temporary():
    # at the SVM desk shape, ADMM's only n x d arrays are its x and u, and
    # prox-grad makes none: both take the term points a sweep block at a
    # time and sum them by the reduce chunks
    import tracemalloc
    from conftest import tiny_svm
    rng = np.random.default_rng(0)
    n, d = 8192, 128
    svm = tiny_svm(rng, n=n, d=d)
    a_mat = rng.standard_normal((n, d)) / np.sqrt(d)
    smooth = simple_problem([], dim=d, terms_f=[
        make_quadratic_term(a_mat[i], y) for i, y in
        enumerate(rng.standard_normal(n))])
    whole = n * d * 8
    for run, bound in (
            (lambda: consensus_admm_run(svm, SolveOptions(max_iters=2)),
             2.25 * whole),
            (lambda: proximal_gradient_run(smooth, SolveOptions(max_iters=2)),
             whole / 4)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def test_spi_probe_allocates_no_n_by_d_temporary():
    # spi's residual probe on the folded SVM at the desk shape runs the
    # sweep's block loop: no whole-array temporary of the moved points
    import tracemalloc
    from conftest import tiny_svm
    from proxsplit.baselines import (DiminishingStep,
                                     stochastic_prox_iteration_run)
    from proxsplit.sppg import IndexSampler
    rng = np.random.default_rng(0)
    problem = tiny_svm(rng, n=8192, d=128, fold_ridge=True)
    x0 = rng.standard_normal(problem.dim)

    def probe():
        # max_iters=0: the run is its one probe at k=0
        return stochastic_prox_iteration_run(
            problem, DiminishingStep(2.0), IndexSampler(0, problem.n),
            SolveOptions(max_iters=0), x0=x0)

    probe()
    tracemalloc.start()
    try:
        res = probe()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [row.k for row in res.log.rows] == [0]
    assert res.log.rows[0].residual_norm > 0
    assert peak < problem.n * problem.dim * 8 / 4
