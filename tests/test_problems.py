"""Application builders: recast identities, validation, and agreement with
independent references on each application."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import (GLM_GRID_AQ, GLM_GRID_RESPONSES, GLM_GRID_S0,
                      make_quadratic_term)
from proxsplit.core import (NumericalError, ProblemSpec, SmoothFn,
                            objective, verify_batched, verify_problem,
                            zero_prox)
from proxsplit.ppg import SolveOptions, ppg_run
from proxsplit.problems import (EdgeColoring, GroupPartition, SvmData,
                                build_fused_lasso, build_glm,
                                build_group_lasso, build_network_lasso,
                                build_svm, glm_family, greedy_edge_coloring,
                                recast_symmetric, recast_weighted,
                                staggered_partition)
from proxsplit.prox import soft_threshold_scalar, soft_threshold_vector


def _terms(rng, n_smooth, n_prox, d):
    from conftest import abs_prox_fn
    fs = [make_quadratic_term(rng.standard_normal(d),
                              float(rng.standard_normal()))
          for _ in range(n_smooth)]
    gs = [abs_prox_fn(float(rng.standard_normal())) for _ in range(n_prox)]
    return fs, gs


def _original_objective(r, fs, gs, x):
    val = r.value(x) if r.value else 0.0
    val += sum(f.value(x) for f in fs) / len(fs)
    val += sum(g.value(x) for g in gs) / len(gs)
    return val


def _close_runs(fast, slow):
    """Two runs of one problem, batched and per-term, agree row by row."""
    assert len(fast.log.rows) == len(slow.log.rows)
    for a, b in zip(fast.log.rows, slow.log.rows):
        assert a.k == b.k
        assert a.residual_norm == pytest.approx(b.residual_norm, rel=1e-12)
        assert a.objective == pytest.approx(b.objective, rel=1e-12)
    assert np.allclose(fast.x, slow.x, rtol=0.0, atol=1e-12)


def _counting_handles(problem):
    """A copy of ``problem`` whose per-term g.prox and f.gradient handles
    count their calls into the returned dict."""
    calls = {"prox": 0, "grad": 0}

    def counted(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    counting = dataclasses.replace(
        problem,
        g=tuple(dataclasses.replace(gi, prox=counted("prox", gi.prox))
                for gi in problem.g),
        f=tuple(dataclasses.replace(fi, gradient=counted("grad", fi.gradient))
                for fi in problem.f))
    return counting, calls


class TestRecasts:
    def test_symmetric_counts(self, rng):
        fs, gs = _terms(rng, 1, 3, 2)
        assert recast_symmetric(zero_prox(), fs, gs, 2).n == 3
        fs, gs = _terms(rng, 2, 2, 2)
        assert recast_symmetric(zero_prox(), fs, gs, 2).n == 4

    def test_symmetric_preserves_objective(self, rng):
        fs, gs = _terms(rng, 3, 2, 4)
        problem = recast_symmetric(zero_prox(), fs, gs, 4)
        for _ in range(100):
            x = rng.standard_normal(4)
            want = _original_objective(zero_prox(), fs, gs, x)
            got = objective(x, problem)
            assert abs(got - want) <= 1e-10 * (1.0 + abs(want))

    def test_symmetric_cap(self, rng):
        fs, gs = _terms(rng, 2, 2, 1)
        with pytest.raises(ValueError, match="cap"):
            recast_symmetric(zero_prox(), fs, gs, 1, cap=3)

    def test_weighted_preserves_objective(self, rng):
        fs, gs = _terms(rng, 3, 2, 4)
        problem = recast_weighted(zero_prox(), fs, gs, 4)
        assert problem.n == 5
        for _ in range(100):
            x = rng.standard_normal(4)
            want = _original_objective(zero_prox(), fs, gs, x)
            got = objective(x, problem)
            assert abs(got - want) <= 1e-10 * (1.0 + abs(want))

    def test_weighted_equal_counts_weight_two(self, rng):
        fs, gs = _terms(rng, 2, 2, 3)
        problem = recast_weighted(zero_prox(), fs, gs, 3)
        x = rng.standard_normal(3)
        assert problem.f[0].value(x) == pytest.approx(2.0 * fs[0].value(x))

    def test_weighted_rescales_lipschitz(self, rng):
        fs, gs = _terms(rng, 2, 4, 3)
        problem = recast_weighted(zero_prox(), fs, gs, 3)
        assert problem.f[0].lipschitz == pytest.approx(3.0 * fs[0].lipschitz)

    def test_recast_solutions_agree(self, rng):
        fs, gs = _terms(rng, 2, 3, 2)
        sym = recast_symmetric(zero_prox(), fs, gs, 2)
        wgt = recast_weighted(zero_prox(), fs, gs, 2)
        opts = SolveOptions(max_iters=3000, record_every=3000)
        x_sym = ppg_run(sym, opts).x
        x_wgt = ppg_run(wgt, opts).x
        assert np.allclose(x_sym, x_wgt, atol=1e-4)


class TestGroupPartition:
    def test_staggered_matches_expected_shape(self):
        part = staggered_partition(42, 3)
        assert len(part.collections) == 3
        assert all(len(c) == 4 for c in part.collections)
        assert part.collections[0][0] == tuple(range(0, 9))
        assert part.collections[1][0] == tuple(range(3, 12))
        assert part.collections[2][3] == tuple(range(33, 42))

    def test_overlap_within_collection_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            GroupPartition(collections=(((0, 1), (1, 2)),))

    def test_out_of_range_rejected(self):
        part = GroupPartition(collections=(((0, 5),),))
        with pytest.raises(ValueError, match="range"):
            part.validate_dim(3)


class TestGroupLasso:
    def test_lambda_zero_is_least_squares(self, rng):
        a_mat = rng.standard_normal((30, 8))
        b = rng.standard_normal(30)
        part = GroupPartition(collections=(((0, 1, 2), (3, 4)),))
        problem = build_group_lasso(a_mat, b, 0.0, part)
        res = ppg_run(problem, SolveOptions(alpha=1.0, max_iters=600,
                                            record_every=600))
        want = np.linalg.solve(a_mat.T @ a_mat, a_mat.T @ b)
        assert np.linalg.norm(res.x - want) <= 1e-8

    def test_single_group_matches_forward_backward_reference(self, rng):
        a_mat = rng.standard_normal((20, 5))
        b = rng.standard_normal(20)
        lam = 0.3
        part = GroupPartition(collections=((tuple(range(5)),),))
        problem = build_group_lasso(a_mat, b, lam, part)
        res = ppg_run(problem, SolveOptions(alpha=0.5, max_iters=4000,
                                            record_every=4000))
        # independent reference: forward-backward on the same objective
        lip = float(np.linalg.norm(a_mat.T @ a_mat, 2))
        step = 1.0 / lip
        x = np.zeros(5)
        for _ in range(20000):
            v = x - step * (a_mat.T @ (a_mat @ x - b))
            nrm = np.linalg.norm(v)
            x = np.maximum(1.0 - step * lam / nrm, 0.0) * v if nrm > 0 else v * 0
        assert np.linalg.norm(res.x - x) <= 1e-6

    def test_objective_at_solver_output_vs_reference(self, rng):
        from proxsplit.baselines import consensus_admm_run
        a_mat = rng.standard_normal((40, 12))
        b = rng.standard_normal(40)
        problem = build_group_lasso(a_mat, b, 0.05,
                                    staggered_partition(12, 2, group_size=4,
                                                        stagger=2))
        opts = SolveOptions(alpha=1.0, max_iters=1500, record_every=1500)
        x_split = ppg_run(problem, opts).x
        ref = consensus_admm_run(problem, SolveOptions(
            alpha=1.0, max_iters=15000, record_every=15000)).x
        num = objective(x_split, problem)
        den = objective(ref, problem)
        assert abs(num - den) <= 1e-6 * (1.0 + abs(den))

    def test_invariant_suite(self, rng):
        a_mat = rng.standard_normal((10, 6))
        b = rng.standard_normal(10)
        problem = build_group_lasso(a_mat, b, 0.2,
                                    staggered_partition(6, 2, group_size=2,
                                                        stagger=1))
        verify_problem(problem, rng, n_pairs=150)

    @pytest.mark.parametrize("prewarm", [False, True])
    def test_overflowing_step_names_the_prox_of_r(self, rng, prewarm):
        # alpha*A'A overflows: the factorization leaked two RuntimeWarnings
        # and the run failed with "array must not contain infs or NaNs"
        a_mat = rng.standard_normal((30, 8))
        b = rng.standard_normal(30)
        part = GroupPartition(collections=(((0, 1, 2), (3, 4)),))
        with pytest.raises(NumericalError,
                           match="^non-finite values from prox of r$"):
            problem = build_group_lasso(a_mat, b, 0.1, part,
                                        alpha=1e308 if prewarm else None)
            ppg_run(problem, SolveOptions(alpha=1e308, max_iters=2))

    def test_cached_factorization_tracks_alpha(self, rng):
        # the quadratic prox cache is keyed by the step size: calling with a
        # new alpha must rebuild rather than reuse the stale factor
        from proxsplit.prox import CachedQuadraticProx, prox_quadratic
        a_mat = rng.standard_normal((9, 4))
        b = rng.standard_normal(9)
        problem = build_group_lasso(a_mat, b, 0.1,
                                    GroupPartition(collections=(((0, 1),),)),
                                    alpha=0.5)
        v = rng.standard_normal(4)
        for alpha in (0.5, 1.25, 0.5):
            got = problem.r.prox(v, alpha)
            want = prox_quadratic(
                CachedQuadraticProx.from_data(a_mat, b, alpha), v)
            assert np.allclose(got, want, atol=1e-12)

    @staticmethod
    def _group_pair(rng, lambda1=0.1):
        a_mat = rng.standard_normal((60, 18))
        b = rng.standard_normal(60)
        problem = build_group_lasso(a_mat, b, lambda1,
                                    staggered_partition(18, 3, group_size=4,
                                                        stagger=2))
        termwise = dataclasses.replace(problem, batched_g_prox=None,
                                       batched_objective=None)
        return problem, termwise

    def test_ppg_matches_per_term_path(self, rng):
        # short runs: near a tight tol the residual is a difference of
        # nearly equal points, and the group norms' summation orders differ
        problem, termwise = self._group_pair(rng)
        opts = SolveOptions(alpha=1.0, max_iters=60)
        fast, slow = ppg_run(problem, opts), ppg_run(termwise, opts)
        _close_runs(fast, slow)
        assert fast.log.metadata["sweep"] == "batched"
        assert slow.log.metadata["sweep"] == "per-term"

    def test_sppg_matches_per_term_path(self, rng):
        from proxsplit.sppg import IndexSampler, sppg_run
        problem, termwise = self._group_pair(rng)
        opts = SolveOptions(alpha=1.0, max_iters=6 * problem.n)
        _close_runs(sppg_run(problem, opts, IndexSampler(5, problem.n)),
                    sppg_run(termwise, opts, IndexSampler(5, problem.n)))

    def test_full_sweeps_bypass_per_term_handles(self, rng):
        from proxsplit.sppg import IndexSampler, sppg_run
        problem, _ = self._group_pair(rng)
        counting, calls = _counting_handles(problem)
        res = ppg_run(counting, SolveOptions(alpha=1.0, max_iters=5))
        assert res.log.metadata["sweep"] == "batched"
        assert calls == {"prox": 0, "grad": 0}
        steps = 4 * problem.n
        sppg_run(counting, SolveOptions(alpha=1.0, max_iters=steps),
                 IndexSampler(0, problem.n))
        assert calls == {"prox": steps, "grad": 0}

    # group sizes 1 to 5; the collections hold 3, 1 and 2 groups, and
    # coordinates 9-10 belong to no group
    UNEVEN = GroupPartition(collections=(
        ((0, 1, 2), (3,), (4, 5, 6, 7, 8)),
        ((2, 3, 4, 5),),
        ((0, 8), (5, 6, 7))))

    @classmethod
    def _uneven(cls, lambda1):
        a_mat = np.random.default_rng(7).standard_normal((20, 11))
        return build_group_lasso(a_mat, np.ones(20), lambda1, cls.UNEVEN)

    @classmethod
    def _group_oracle(cls, i, x0, thr):
        """Collection i's prox at x0: soft_threshold_vector on each of its
        groups, the identity elsewhere."""
        out = x0.copy()
        for grp in cls.UNEVEN.collections[i]:
            out[list(grp)] = soft_threshold_vector(x0[list(grp)], thr)
        return out

    @pytest.mark.parametrize("lambda1", [0.0, 0.05, 0.4, 2.0 / 3.0])
    def test_per_term_handles_match_group_oracle(self, rng, lambda1):
        # lambda1 = 2/3 with n = 3 and a = 2.5 puts the threshold at 5.0,
        # the exact norm of group (0, 8) in row 2; group (2, 3, 4, 5) of
        # collection 1 holds a NaN in the last draw
        problem = self._uneven(lambda1)
        for draw in range(6):
            v = rng.standard_normal((3, 11)) * 2.0
            v[2, [0, 8]] = 3.0, -4.0
            if draw == 5:
                v[1, 3] = np.nan
            for a in (0.3, 2.5):
                thr = a * 3 * lambda1
                for i, gi in enumerate(problem.g):
                    want = self._group_oracle(i, v[i], thr)
                    got = gi.prox(v[i], a)
                    # 1 - thr/norm cancels near the threshold: the bound
                    # is absolute there
                    np.testing.assert_allclose(got, want, rtol=1e-14,
                                               atol=1e-14, equal_nan=True)
                    if draw < 5:
                        norms = sum(float(np.linalg.norm(v[i][list(grp)]))
                                    for grp in self.UNEVEN.collections[i])
                        assert gi.value(v[i]) == pytest.approx(
                            3 * lambda1 * norms, rel=1e-14, abs=0.0)
                if lambda1 == 2.0 / 3.0 and a == 2.5:
                    assert np.all(problem.g[2].prox(v[2], a)[[0, 8]] == 0.0)

    @pytest.mark.parametrize("lambda1, alpha", [(1e308, 1.0),
                                                (1e300, 1e10)])
    def test_overflowing_threshold_zeroes_groups(self, rng, lambda1, alpha):
        # a * n * lambda1 overflows to inf: both paths zero every group
        # whose norm is not NaN, and neither warns (a RuntimeWarning is an
        # error in this suite)
        problem = self._uneven(lambda1)
        v = rng.standard_normal((3, 11))
        v[1, 3] = np.nan
        want = np.array([gi.prox(v[i], alpha)
                         for i, gi in enumerate(problem.g)])
        got = problem.batched_g_prox(v.copy(), alpha)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.all(np.isnan(got[1, [2, 3, 4, 5]]))
        grouped = [[0, 1, 2, 3, 4, 5, 6, 7, 8], [], [0, 5, 6, 7, 8]]
        for i, cols in enumerate(grouped):
            assert np.all(got[i, cols] == 0.0)
            assert np.array_equal(got[i, 9:], v[i, 9:])

    def test_overflowing_threshold_ppg_on_both_paths(self):
        problem = self._uneven(1e300)
        termwise = dataclasses.replace(problem, batched_g_prox=None)
        opts = SolveOptions(alpha=1e10, max_iters=5)
        fast, slow = ppg_run(problem, opts), ppg_run(termwise, opts)
        assert np.array_equal(fast.x, slow.x)
        assert np.array_equal(fast.state.z, slow.state.z)
        assert [r.residual_norm for r in fast.log.rows] == \
            [r.residual_norm for r in slow.log.rows]

    def test_overflowing_weight_zero_groups_add_nothing(self, rng):
        # n * lambda1 overflows to inf with 2 collections: a zero group sum
        # adds 0 (not inf * 0 = NaN) on the batched and per-term paths
        a_mat, b = rng.standard_normal((12, 6)), rng.standard_normal(12)
        partition = GroupPartition(collections=(((0, 1, 2), (3, 4, 5)),
                                                ((1, 2, 3),)))
        problem = build_group_lasso(a_mat, b, 1e308, partition)
        termwise = dataclasses.replace(problem, batched_objective=None)
        zeros = np.zeros(6)
        assert [gi.value(zeros) for gi in problem.g] == [0.0, 0.0]
        for p in (problem, termwise):
            assert objective(zeros, p) == 0.5 * float(np.sum(b ** 2))
            assert objective(np.ones(6), p) == np.inf

    @pytest.mark.parametrize("name, at, value", [
        ("A", (3, 2), np.nan), ("A", (0, 7), -np.inf), ("b", (0,), np.inf)])
    def test_nonfinite_data_rejected(self, rng, name, at, value):
        # the factorization of the r prox used to fail at the first prox,
        # with a message that named no input
        data = {"A": rng.standard_normal((30, 8)),
                "b": rng.standard_normal(30)}
        data[name][at] = value
        part = GroupPartition(collections=(((0, 1, 2), (3, 4)),))
        where = ", ".join(map(str, at))
        with pytest.raises(ValueError, match=rf"^{name} has a non-finite "
                                             rf"entry at \({where}\)$"):
            build_group_lasso(data["A"], data["b"], 0.1, part, alpha=1.0)

    @pytest.mark.parametrize("lambda1", [-0.1, np.nan, np.inf])
    def test_bad_weight_rejected(self, lambda1):
        # a NaN weight used to pass the sign check, and an infinite one
        # makes the batched threshold inf/inf
        with pytest.raises(ValueError, match="lambda1"):
            self._uneven(lambda1)

    @pytest.mark.parametrize("lambda1", [0.0, 0.05, 0.4])
    def test_batched_hooks_uneven_groups(self, rng, lambda1):
        verify_batched(self._uneven(lambda1), rng, n_points=10)

    def test_batched_prox_norm_at_threshold(self, rng):
        # lambda1 = 2/3 with n = 3 gives the weight 2.0; at a = 2.5 the
        # threshold is 5.0, the exact norm of group (0, 8) in row 2 below
        problem = self._uneven(2.0 / 3.0)
        v = rng.standard_normal((3, 11))
        v[2, [0, 8]] = 3.0, -4.0
        want = np.array([gi.prox(v[i], 2.5) for i, gi in enumerate(problem.g)])
        assert np.all(want[2, [0, 8]] == 0.0)
        got = problem.batched_g_prox(v, 2.5)
        assert got is v
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("nan_row, inf_row", [(0, 2), (2, 1)])
    def test_nonfinite_group_named_on_both_paths(self, rng, nan_row,
                                                 inf_row):
        # a NaN group must stay NaN, not shrink to zeros, so that both
        # paths stop at the same first bad term
        from proxsplit.core import SolverState, residual_map
        problem = self._uneven(0.05)
        termwise = dataclasses.replace(problem, batched_g_prox=None)
        z = rng.standard_normal((3, 11))
        # coordinate 5 lies in a group of every collection
        z[nan_row, 5] = np.nan
        z[inf_row, 5] = np.inf
        messages = []
        for p in (problem, termwise):
            state = SolverState(z=z.copy(), zbar=np.zeros(11), alpha=1.0)
            with pytest.raises(NumericalError,
                               match=r"prox of g \(term (\d)\)") as err:
                residual_map(state, p)
            messages.append(str(err.value))
        first = min(nan_row, inf_row)
        assert messages[0] == messages[1]
        assert messages[0].endswith(f"(term {first})")


class TestSvm:
    def test_two_point_max_margin(self):
        data = SvmData(features=np.array([[2.0, 0.0], [-2.0, 0.0]]),
                       labels=np.array([1.0, -1.0]), lam=0.1)
        problem = build_svm(data)
        res = ppg_run(problem, SolveOptions(alpha=1.0, max_iters=3000,
                                            record_every=3000))
        margins = data.labels * (data.features @ res.x)
        assert np.all(margins >= 1.0 - 1e-3)
        assert np.allclose(res.x, [0.5, 0.0], atol=1e-3)

    def test_heavy_regularization_drives_to_zero(self, rng):
        feats = rng.standard_normal((20, 4))
        labels = np.sign(feats[:, 0])
        labels[labels == 0] = 1.0
        problem = build_svm(SvmData(feats, labels, lam=1e6))
        res = ppg_run(problem, SolveOptions(alpha=1e-6, max_iters=400,
                                            record_every=400))
        assert np.linalg.norm(res.x) <= 1e-3
        assert objective(res.x, problem) == pytest.approx(1.0, abs=1e-3)

    def test_paper_scale_shape_accepted(self):
        n, d = 2 ** 17, 512
        feats = np.ones((n, d))
        labels = np.ones(n)
        labels[::2] = -1.0
        problem = build_svm(SvmData(feats, labels, lam=0.1))
        assert problem.n == n and problem.dim == d
        del problem, feats

    def test_zero_row_rejected(self):
        feats = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="zero"):
            SvmData(feats, np.array([1.0, -1.0]), lam=0.1)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            SvmData(np.ones((2, 2)), np.array([1.0, 2.0]), lam=0.1)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
    def test_bad_weight_rejected(self, lam):
        # lam=inf used to build a problem whose objective reads NaN
        with pytest.raises(ValueError, match="lam must be positive and "
                                             "finite"):
            SvmData(np.eye(2), np.array([1.0, -1.0]), lam=lam)

    def test_batched_prox_matches_rowwise(self, rng):
        from conftest import tiny_svm
        problem = tiny_svm(rng, n=9, d=4)
        v = rng.standard_normal((9, 4))
        batched = problem.batched_g_prox(v.copy(), 0.7)
        for i, gi in enumerate(problem.g):
            assert np.allclose(batched[i], gi.prox(v[i], 0.7), atol=1e-13)

    def test_batched_prox_overwrites_its_input(self, rng):
        # the sweep's scratch block is updated in place, not copied
        from conftest import tiny_svm
        problem = tiny_svm(rng, n=9, d=4)
        v = rng.standard_normal((9, 4))
        assert problem.batched_g_prox(v, 0.7) is v

    def test_folded_form_same_objective(self, rng):
        # fold_ridge has no effect: the keyword builds the one form, whose
        # ridge is r, with the same objective bit for bit
        from conftest import tiny_svm
        split_form = tiny_svm(rng, n=8, d=3)
        folded = build_svm(SvmData(split_form.structure.features,
                                   split_form.structure.labels, lam=0.1),
                           fold_ridge=True)
        assert folded.r.weight == 0.1 and folded.all_f_zero()
        for _ in range(20):
            x = rng.standard_normal(3)
            assert objective(x, folded) == objective(x, split_form)

    def test_invariant_suite(self, rng):
        from conftest import tiny_svm
        verify_problem(tiny_svm(rng, n=5, d=3), rng, n_pairs=150)

    def test_invariant_suite_folded(self, rng):
        # the problem the inert fold_ridge keyword builds
        from conftest import tiny_svm
        verify_problem(tiny_svm(rng, n=5, d=3, fold_ridge=True), rng,
                       n_pairs=150)


class TestFusedLasso:
    def test_unbounded_eps_matches_plain_lasso(self, rng):
        a_mat = rng.standard_normal((15, 6))
        y = rng.standard_normal(15)
        lam = 0.1
        problem = build_fused_lasso(a_mat, y, lam, np.inf)
        res = ppg_run(problem, SolveOptions(max_iters=4000,
                                            record_every=4000))
        # reference: forward-backward on lam*||x||_1 + mean of the rows
        lip = float(np.linalg.norm(a_mat.T @ a_mat, 2)) / 15
        step = 1.0 / lip
        x = np.zeros(6)
        for _ in range(20000):
            grad = a_mat.T @ (a_mat @ x - y) / 15
            x = soft_threshold_scalar(x - step * grad, step * lam)
        assert np.linalg.norm(res.x - x) <= 1e-6

    def test_eps_zero_forces_equal_coordinates(self, rng):
        a_mat = rng.standard_normal((12, 5))
        y = rng.standard_normal(12)
        problem = build_fused_lasso(a_mat, y, 0.01, 0.0)
        res = ppg_run(problem, SolveOptions(max_iters=6000,
                                            record_every=6000))
        assert np.max(res.x) - np.min(res.x) <= 1e-6

    @pytest.mark.parametrize("lam,eps,name", [
        (np.nan, 0.1, "lam"), (np.inf, 0.1, "lam"), (-0.1, 0.1, "lam"),
        (0.1, np.nan, "eps"), (0.1, -0.1, "eps")])
    def test_bad_weight_rejected(self, lam, eps, name):
        # a NaN lam or eps used to build a problem whose runs fail late
        # ("non-finite values from prox of r") or report NaN
        with pytest.raises(ValueError, match=f"^{name} must be"):
            build_fused_lasso(np.ones((2, 4)), np.zeros(2), lam, eps)

    def test_pair_prox_matches_coupling_lemma(self, rng):
        from proxsplit.prox import prox_sum_coupling
        from proxsplit.core import ProxFn
        from proxsplit.prox import project_interval, Interval
        eps = 0.1
        problem = build_fused_lasso(np.ones((2, 4)), np.zeros(2), 0.0, eps)
        g_odd = problem.g[0]
        x0 = rng.standard_normal(4)
        got = g_odd.prox(x0, 0.8)
        proj = ProxFn(prox=lambda v, t: np.asarray(
            project_interval(v, Interval(-eps, eps))))
        for pair in ((0, 1), (2, 3)):
            block = np.stack([x0[pair[1]], x0[pair[0]]])[:, None]
            out = prox_sum_coupling(np.array([1.0, -1.0]), proj, block, 0.8)
            assert got[pair[1]] == pytest.approx(out[0, 0], abs=1e-12)
            assert got[pair[0]] == pytest.approx(out[1, 0], abs=1e-12)

    def test_term_layout(self, rng):
        problem = build_fused_lasso(rng.standard_normal((3, 4)),
                                    rng.standard_normal(3), 0.1, 0.2)
        assert problem.n == 6
        x = rng.standard_normal(4)
        assert problem.f[0].value(x) == problem.f[3].value(x)

    def test_invariant_suite(self, rng):
        problem = build_fused_lasso(rng.standard_normal((4, 5)),
                                    rng.standard_normal(4), 0.1, 0.3)
        verify_problem(problem, rng, n_pairs=150)

    def test_invariant_suite_unbounded_eps(self, rng):
        problem = build_fused_lasso(rng.standard_normal((4, 5)),
                                    rng.standard_normal(4), 0.1, np.inf)
        verify_problem(problem, rng, n_pairs=150)

    def test_batched_objective_infeasible_is_inf(self, rng):
        problem = build_fused_lasso(rng.standard_normal((4, 5)),
                                    rng.standard_normal(4), 0.1, 0.3)
        termwise = dataclasses.replace(problem, batched_objective=None)
        x = np.array([0.0, 0.1, 0.2, 0.3, 0.61])  # only the last jump
        assert objective(x, problem) == objective(x, termwise) == math.inf
        x[4] = 0.6 + 1e-10  # within the reporting slack
        assert objective(x, problem) == pytest.approx(
            objective(x, termwise), rel=1e-12)
        assert math.isfinite(objective(x, problem))

    def test_batched_hooks_step_their_input(self, rng):
        problem = build_fused_lasso(rng.standard_normal((3, 6)),
                                    rng.standard_normal(3), 0.1, 0.2)
        v = rng.standard_normal((6, 6))
        x = rng.standard_normal(6)
        want = v - 0.5 * np.array([fi.gradient(x) for fi in problem.f])
        assert problem.batched_f_grad(v, x, 0.5) is None
        assert np.allclose(v, want, rtol=1e-14, atol=0.0)
        assert problem.batched_g_prox(v, 0.5) is v

    @staticmethod
    def _pairs_formula(x, eps, start):
        # the projection's closed form, a fresh array per step: clip the
        # difference w, then 0.5 (t -/+ w) for the pair's sum t
        d = x.shape[-1]
        u = x[..., start:d - 1:2]
        v = x[..., start + 1:d:2]
        w = np.clip(v - u, -eps, eps)
        total = u + v
        u[...] = 0.5 * (total - w)
        v[...] = 0.5 * (total + w)

    @pytest.mark.parametrize("shape", [(7,), (8,), (5, 7), (5, 8)])
    @pytest.mark.parametrize("start", [0, 1])
    @pytest.mark.parametrize("eps", [0.0, 0.3, np.inf])
    @pytest.mark.parametrize("nan", [False, True])
    def test_pair_projection_is_the_formula_bitwise(self, rng, shape, start,
                                                    eps, nan):
        from proxsplit.problems import _project_pairs
        x = rng.standard_normal(shape)
        x[..., :6] = [0.0, -0.0, -0.0, 0.0, -0.0, -0.0]  # signed zeros
        if nan:
            x[..., start + 3] = np.nan
        want = x.copy()
        self._pairs_formula(want, eps, start)
        got = x.copy()
        _project_pairs(got, eps, start)
        assert got.tobytes() == want.tobytes()
        if nan:
            # the pair stays NaN, so the sweep's finiteness check names
            # its term
            assert np.isnan(got[..., start + 2:start + 4]).all()

    def test_hooks_over_many_row_chunks_are_bitwise_exact(self, rng):
        # a block of 450 terms from 150 on crosses ROW_CHUNK boundaries
        # and the switch from odd to even pairs at term n = 300
        from proxsplit.core import ROW_CHUNK
        a_mat, y = rng.standard_normal((300, 7)), rng.standard_normal(300)
        problem = build_fused_lasso(a_mat, y, 0.1, 0.2)
        lo, a = 150, 0.7
        v = rng.standard_normal((problem.n - lo, 7))
        assert v.shape[0] > ROW_CHUNK
        got = v.copy()
        assert problem.batched_g_prox(got, a, lo) is got
        want = np.array([problem.g[lo + k].prox(row, a)
                         for k, row in enumerate(v)])
        assert got.tobytes() == want.tobytes()
        x = rng.standard_normal(7)
        res = np.concatenate([a_mat @ x - y] * 2)[lo:]
        want = v - res[:, None] * np.concatenate([a_mat] * 2)[lo:] * a
        got = v.copy()
        problem.batched_f_grad(got, x, a, lo)
        assert got.tobytes() == want.tobytes()

    def test_overflowing_lipschitz_bound_is_inf_without_a_warning(self):
        # pytest turns numpy's "overflow encountered" into an error
        problem = build_fused_lasso(np.full((2, 4), 1e200), np.zeros(2),
                                    0.1, 0.2)
        assert problem.lipschitz_bound() == math.inf

    @staticmethod
    def _fused_pair(rng, n=30, d=12, eps=0.2):
        problem = build_fused_lasso(rng.standard_normal((n, d)),
                                    rng.standard_normal(n), 0.05, eps)
        termwise = dataclasses.replace(problem, batched_g_prox=None,
                                       batched_f_grad=None,
                                       batched_objective=None)
        return problem, termwise

    @pytest.mark.parametrize("eps", [0.2, np.inf])
    def test_ppg_matches_per_term_path(self, rng, eps):
        problem, termwise = self._fused_pair(rng, eps=eps)
        opts = SolveOptions(max_iters=60)
        fast, slow = ppg_run(problem, opts), ppg_run(termwise, opts)
        _close_runs(fast, slow)
        assert fast.log.metadata["sweep"] == "batched"
        assert slow.log.metadata["sweep"] == "per-term"

    def test_sppg_matches_per_term_path(self, rng):
        from proxsplit.sppg import IndexSampler, sppg_run
        problem, termwise = self._fused_pair(rng)
        opts = SolveOptions(max_iters=6 * problem.n)
        _close_runs(
            sppg_run(problem, opts, IndexSampler(3, problem.n)),
            sppg_run(termwise, opts, IndexSampler(3, problem.n)))

    def test_full_sweeps_bypass_per_term_handles(self, rng):
        # every full sweep, and sppg's per-epoch probe, must run through
        # the batched hooks; only sppg's single-term steps use the handles
        from proxsplit.sppg import IndexSampler, sppg_run
        problem, _ = self._fused_pair(rng)
        counting, calls = _counting_handles(problem)
        res = ppg_run(counting, SolveOptions(max_iters=5))
        assert res.log.metadata["sweep"] == "batched"
        assert calls == {"prox": 0, "grad": 0}
        steps = 3 * problem.n
        sppg_run(counting, SolveOptions(max_iters=steps),
                 IndexSampler(0, problem.n))
        assert calls == {"prox": steps, "grad": steps}


def _hypercube_q3():
    edges = []
    for u in range(8):
        for bit in range(3):
            v = u ^ (1 << bit)
            if u < v:
                edges.append((u, v))
    return edges


class TestEdgeColoring:
    def test_hypercube(self):
        edges = _hypercube_q3()
        coloring = greedy_edge_coloring(8, edges)
        coloring.verify_partition(edges)
        assert len(coloring.classes) <= 5

    def test_single_edge(self):
        coloring = greedy_edge_coloring(2, [(0, 1)])
        assert len(coloring.classes) == 1

    def test_star_needs_hub_degree_colors(self):
        k = 6
        edges = [(0, i) for i in range(1, k + 1)]
        coloring = greedy_edge_coloring(k + 1, edges)
        coloring.verify_partition(edges)
        assert len(coloring.classes) == k

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            greedy_edge_coloring(3, [(1, 1)])

    def test_shared_vertex_within_class_rejected(self):
        with pytest.raises(ValueError, match="share"):
            EdgeColoring(classes=(((0, 1), (1, 2)),))

    def test_partition_check_catches_missing_edge(self):
        coloring = greedy_edge_coloring(3, [(0, 1)])
        with pytest.raises(ValueError, match="cover"):
            coloring.verify_partition([(0, 1), (1, 2)])

    def test_color_count_bound(self, rng):
        # first-fit never needs more than 2*max_degree - 1 colors
        for trial in range(5):
            n_v = 20
            edges = [(u, v) for u in range(n_v) for v in range(u + 1, n_v)
                     if rng.random() < 0.3]
            if not edges:
                continue
            deg = np.zeros(n_v, dtype=int)
            for (u, v) in edges:
                deg[u] += 1
                deg[v] += 1
            coloring = greedy_edge_coloring(n_v, edges)
            coloring.verify_partition(edges)
            assert len(coloring.classes) <= 2 * deg.max() - 1

    def test_builder_rejects_stale_coloring(self, rng):
        targets = rng.standard_normal((3, 1))
        stale = greedy_edge_coloring(3, [(0, 1)])
        with pytest.raises(ValueError, match="cover"):
            build_network_lasso(targets, [(0, 1), (1, 2)], lambda1=0.1,
                                lambda2=0.1, coloring=stale)


class TestNetworkLasso:
    def test_zero_coupling_decouples(self, rng):
        targets = rng.standard_normal((3, 2))
        problem = build_network_lasso(targets, [(0, 1), (1, 2)],
                                      lambda1=0.1, lambda2=0.0)
        res = ppg_run(problem, SolveOptions(max_iters=2000,
                                            record_every=2000))
        for v in range(3):
            # per-vertex reference: soft threshold of the pull target
            want = soft_threshold_scalar(targets[v], 0.1)
            assert np.allclose(res.x[2 * v:2 * v + 2], want, atol=1e-6)

    def test_two_vertices_strong_coupling_agree(self):
        problem = build_network_lasso([[0.0], [1.0]], [(0, 1)], lambda1=0.01,
                                      lambda2=5.0)
        res = ppg_run(problem, SolveOptions(max_iters=4000,
                                            record_every=4000))
        assert abs(res.x[0] - res.x[1]) <= 1e-4
        # brute-force grid over the two scalars
        grid = np.linspace(-0.5, 1.5, 801)
        xu, xv = np.meshgrid(grid, grid, indexing="ij")
        vals = (0.01 * (np.abs(xu) + np.abs(xv)) + 0.5 * xu ** 2
                + 0.5 * (xv - 1.0) ** 2 + 5.0 * np.abs(xu - xv))
        j = np.unravel_index(np.argmin(vals), vals.shape)
        best = np.array([grid[j[0]], grid[j[1]]])
        assert np.allclose(res.x, best, atol=5e-3)

    def test_identical_losses_all_equal(self, rng):
        target = rng.standard_normal(2)
        problem = build_network_lasso(np.tile(target, (4, 1)),
                                      [(0, 1), (1, 2), (2, 3), (3, 0)],
                                      lambda1=0.05, lambda2=0.7)
        res = ppg_run(problem, SolveOptions(max_iters=3000,
                                            record_every=3000))
        blocks = res.x.reshape(4, 2)
        assert np.allclose(blocks, blocks[0][None, :], atol=1e-6)

    def test_color_terms_match_per_edge_formula(self, rng):
        # each edge (u, v) of a color moves x_u and x_v to their midpoint
        # plus and minus their half-difference, whose norm shrinks by
        # a * n_colors * lambda2; vertices off the color stay
        n_v, block, lam2 = 5, 3, 0.4
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (4, 1)]
        targets = rng.standard_normal((n_v, block))
        problem = build_network_lasso(targets, edges, lambda1=0.1,
                                      lambda2=lam2)
        classes = greedy_edge_coloring(n_v, edges).classes
        assert problem.n == len(classes) > 1
        for a in (0.05, 0.7, 30.0):  # 30 closes every difference
            for g, cls in zip(problem.g, classes):
                x0 = 2.0 * rng.standard_normal(n_v * block)
                blocks = x0.reshape(n_v, block)
                want = blocks.copy()
                for (u, v) in cls:
                    mid = 0.5 * (blocks[u] + blocks[v])
                    half = 0.5 * (blocks[u] - blocks[v])
                    thr = a * len(classes) * lam2
                    half *= max(1.0 - thr / np.linalg.norm(half), 0.0)
                    want[u], want[v] = mid + half, mid - half
                got = g.prox(x0, a)
                assert np.allclose(got, want.ravel(), rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("block", [1, 5, 40])
    def test_pull_matches_per_vertex_reference(self, rng, block):
        # the stacked pull against one 0.5*||x_v - theta_v||^2 per vertex,
        # summed in vertex order, with the same color terms: bitwise
        n_v = 9
        edges = [(v, (v + 1) % n_v) for v in range(n_v)] + [(0, 4), (2, 7)]
        targets = 3.0 * rng.standard_normal((n_v, block))
        problem = build_network_lasso(targets, edges, lambda1=0.2,
                                      lambda2=0.3)

        def blk(v):
            return slice(v * block, (v + 1) * block)

        ref_pull = SmoothFn(
            value=lambda x: sum(
                0.5 * float(np.sum((x[blk(v)] - targets[v]) ** 2))
                for v in range(n_v)),
            gradient=lambda x: np.concatenate(
                [x[blk(v)] - targets[v] for v in range(n_v)]),
            lipschitz=1.0)
        ref = ProblemSpec(dim=n_v * block, r=problem.r,
                          f=(ref_pull,) * problem.n, g=problem.g)
        assert problem.dim == n_v * block and problem.n > 1
        assert all(fi is problem.f[0] for fi in problem.f)
        assert problem.lipschitz_bound() == 1.0
        for scale in (1e-3, 1.0, 1e3):
            x = scale * rng.standard_normal(n_v * block)
            assert objective(x, problem) == objective(x, ref)
            assert problem.f[0].value(x) == ref_pull.value(x)
            assert np.array_equal(problem.f[0].gradient(x),
                                  ref_pull.gradient(x))

    @pytest.mark.parametrize("targets, message", [
        (np.zeros(6), r"^targets must be a nonempty \(vertices x block\) "
                      r"array, got shape \(6,\)$"),
        (np.zeros((0, 2)), r"got shape \(0, 2\)$"),
        (np.zeros((3, 0)), r"got shape \(3, 0\)$"),
        ([[0.0, 1.0], [2.0, np.nan], [np.inf, 0.0]],
         r"^targets has a non-finite entry at \(1, 1\)$"),
    ])
    def test_bad_targets_rejected(self, targets, message):
        with pytest.raises(ValueError, match=message):
            build_network_lasso(targets, [(0, 1)], lambda1=0.1, lambda2=0.3)

    @pytest.mark.parametrize("colored", [False, True])
    def test_no_edges_rejected(self, rng, colored):
        # the edgeless problem used to fail in ProblemSpec with "g must
        # hold at least one term", which names nothing passed here
        coloring = EdgeColoring(classes=()) if colored else None
        with pytest.raises(ValueError,
                           match="^edges must hold at least one edge$"):
            build_network_lasso(rng.standard_normal((3, 2)), [],
                                lambda1=0.1, lambda2=0.3, coloring=coloring)

    def test_invariant_suite(self, rng):
        targets = rng.standard_normal((3, 2))
        problem = build_network_lasso(targets, [(0, 1), (1, 2)],
                                      lambda1=0.1, lambda2=0.3)
        verify_problem(problem, rng, n_pairs=100)

    @pytest.mark.parametrize("weights,name", [
        ((np.nan, 0.3), "lambda1"), ((-0.1, 0.3), "lambda1"),
        ((np.inf, 0.3), "lambda1"), ((0.1, np.nan), "lambda2"),
        ((0.1, -0.3), "lambda2")])
    def test_bad_weight_rejected(self, rng, weights, name):
        targets = rng.standard_normal((3, 2))
        with pytest.raises(ValueError, match=f"^{name} must be"):
            build_network_lasso(targets, [(0, 1), (1, 2)],
                                lambda1=weights[0], lambda2=weights[1])

    @pytest.mark.parametrize("edge", [(0, -2), (0, 5), (3, 1)])
    @pytest.mark.parametrize("colored", [False, True])
    def test_edge_out_of_range_rejected(self, rng, edge, colored):
        # with a caller's coloring, (0, -2) used to act as edge (0, 1) and
        # (0, 5) to fail at the first prox with a broadcast error
        targets = rng.standard_normal((3, 2))
        coloring = EdgeColoring(classes=((edge,),)) if colored else None
        with pytest.raises(ValueError,
                           match=r"^edge \(%d, %d\) out of range$" % edge):
            build_network_lasso(targets, [edge], lambda1=0.1, lambda2=0.3,
                                coloring=coloring)


class TestGlm:
    def test_gaussian_full_rank_matches_least_squares(self, rng):
        x_mat = rng.standard_normal((40, 4))
        beta_true = rng.standard_normal(4)
        t_vec = x_mat @ beta_true + 0.05 * rng.standard_normal(40)
        problem = build_glm(x_mat, t_vec, glm_family("gaussian"))
        res = ppg_run(problem, SolveOptions(alpha=0.5, max_iters=4000,
                                            record_every=4000))
        want = np.linalg.solve(x_mat.T @ x_mat, x_mat.T @ t_vec)
        assert np.linalg.norm(res.x - want) <= 1e-6
        assert res.log.metadata["sweep"] == "rank-one"

    def test_single_term_minimizes_it(self, rng):
        x_mat = np.array([[1.0, 2.0]])
        t_vec = np.array([0.7])
        problem = build_glm(x_mat, t_vec, glm_family("gaussian"))
        res = ppg_run(problem, SolveOptions(alpha=1.0, max_iters=2000,
                                            record_every=2000))
        # any beta with x'beta = t minimizes the single Gaussian term
        assert float(x_mat[0] @ res.x) == pytest.approx(0.7, abs=1e-6)

    def test_logistic_separable_objective_decreases(self, rng):
        x_mat = np.array([[1.0], [2.0], [-1.0], [-2.0]])
        t_vec = np.array([1.0, 1.0, 0.0, 0.0])
        problem = build_glm(x_mat, t_vec, glm_family("logistic"))
        res = ppg_run(problem, SolveOptions(alpha=1.0, max_iters=60))
        objs = [r.objective for r in res.log.rows]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_invariant_suite(self, rng):
        x_mat = rng.standard_normal((5, 3))
        t_vec = rng.standard_normal(5)
        problem = build_glm(x_mat, t_vec, glm_family("gaussian"))
        verify_problem(problem, rng, n_pairs=100)

    @pytest.mark.parametrize("family", ["logistic", "poisson"])
    def test_invariant_suite_other_families(self, rng, family):
        problem = build_glm(rng.standard_normal((5, 3)),
                            rng.uniform(0, 3, 5), glm_family(family))
        with np.errstate(over="ignore"):
            verify_problem(problem, rng, n_pairs=100)

    def test_poisson_matches_smooth_reference(self, rng):
        import scipy.optimize
        x_mat = rng.standard_normal((30, 3)) / np.sqrt(3)
        beta_true = rng.standard_normal(3) * 0.5
        t_vec = rng.poisson(np.exp(x_mat @ beta_true)).astype(float)
        fam = glm_family("poisson")
        problem = build_glm(x_mat, t_vec, fam)
        res = ppg_run(problem, SolveOptions(alpha=0.5, max_iters=4000,
                                            record_every=4000))

        def smooth_obj(beta):
            eta = x_mat @ beta
            return float(np.mean(np.exp(eta) - t_vec * eta))

        ref = scipy.optimize.minimize(smooth_obj, np.zeros(3),
                                      method="BFGS", tol=1e-12)
        assert np.linalg.norm(res.x - ref.x) <= 1e-5

    @pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson"])
    @pytest.mark.parametrize("alpha", [1e-2, 1.0, 1e2])
    def test_batched_prox_matches_per_term(self, rng, family, alpha):
        x_mat = rng.standard_normal((40, 4))
        x_mat[5] = 0.0  # a zero data row leaves its input unchanged
        t_vec = rng.uniform(-2, 2, 40) if family == "gaussian" \
            else rng.uniform(0, 3, 40)
        problem = build_glm(x_mat, t_vec, glm_family(family))
        v = rng.standard_normal((40, 4)) * 2.0
        with np.errstate(over="ignore"):
            want = np.array([gi.prox(v[i], alpha)
                             for i, gi in enumerate(problem.g)])
        got = problem.batched_g_prox(v.copy(), alpha)
        assert np.allclose(got, want, rtol=0.0, atol=1e-11)
        assert np.array_equal(got[5], v[5])

    def test_batched_prox_survives_steep_inputs(self):
        # s0 = 795: exp overflows at once, as in the per-term test below
        from proxsplit.prox import prox_glm_1d
        fam = glm_family("poisson")
        x_mat = np.array([[20.0, -5.0], [1.0, 0.5]])
        t_vec = np.array([2.0, 1.0])
        problem = build_glm(x_mat, t_vec, fam)
        v = np.array([[40.0, 1.0], [0.3, -0.2]])
        got = problem.batched_g_prox(v.copy(), 1.0)
        with np.errstate(over="ignore"):
            want = prox_glm_1d(v[0], x_mat[0], 2.0, fam, 1.0)
        assert np.all(np.isfinite(got))
        assert np.allclose(got[0], want, rtol=0.0, atol=1e-11)

    def test_batched_prox_near_exp_overflow(self):
        # aq*(exp(s0) - ti) overflows at s0 = 707: both paths bracket the
        # root by [-DBL_MAX, s0] and close that bracket in the asinh scale
        fam = glm_family("poisson")
        problem = build_glm(np.array([[1.0, 0.0], [0.5, 1.0]]),
                            np.array([1.0, 2.0]), fam)
        v = np.array([[707.0, 0.0], [0.3, -0.2]])
        got = problem.batched_g_prox(v.copy(), 2000.0)
        with np.errstate(over="ignore"):
            want = np.array([gi.prox(v[i], 2000.0)
                             for i, gi in enumerate(problem.g)])
        assert np.all(np.isfinite(got))
        assert np.allclose(got, want, rtol=0.0, atol=1e-11)

    def test_batched_prox_wide_roots(self):
        # roots near 2e4 sit on a float grid coarser than 1e-12, so |psi|
        # may never reach 1e-12; the root solve stops when no float is left
        # between the ends of its bracket
        from proxsplit.prox import prox_glm_1d
        fam = glm_family("gaussian")
        x_mat = np.array([[100.0, 0.0], [0.0, 150.0]])
        t_vec = np.array([0.0, 1.0])
        problem = build_glm(x_mat, t_vec, fam)
        v = np.array([[200.0, 3.0], [-1.0, 160.0]])
        got = problem.batched_g_prox(v.copy(), 1e-6)
        for i in range(2):
            want = prox_glm_1d(v[i], x_mat[i], t_vec[i], fam, 1e-6)
            assert np.allclose(got[i], want, rtol=1e-13, atol=0.0)

    def test_batched_prox_overwrites_its_input(self, rng):
        problem = build_glm(rng.standard_normal((6, 3)),
                            rng.uniform(0, 1, 6), glm_family("logistic"))
        v = rng.standard_normal((6, 3))
        assert problem.batched_g_prox(v, 1.0) is v

    @pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson"])
    def test_batched_objective_matches_term_sum(self, rng, family):
        x_mat = rng.standard_normal((50, 5)) / np.sqrt(5)
        t_vec = rng.uniform(0, 3, 50)
        problem = build_glm(x_mat, t_vec, glm_family(family))
        termwise = dataclasses.replace(problem, batched_objective=None)
        for _ in range(5):
            beta = rng.standard_normal(5)
            want = objective(beta, termwise)
            assert objective(beta, problem) == pytest.approx(want, rel=1e-12)

    def test_nonfinite_row_named(self, rng):
        x_mat = rng.standard_normal((6, 3))
        t_vec = rng.uniform(0, 1, 6)
        t_vec[4] = np.inf
        problem = build_glm(x_mat, t_vec, glm_family("logistic"))
        with pytest.raises(NumericalError, match=r"\(term 4\)"):
            ppg_run(problem, SolveOptions(alpha=1.0, max_iters=3))

    @pytest.mark.parametrize("handle", ["value", "deriv", "variance"])
    def test_scalar_only_cumulant_rejected(self, handle):
        fam = glm_family("poisson")
        scalar_only = dataclasses.replace(
            fam, **{handle: lambda t: math.exp(t)})
        with pytest.raises(ValueError, match="elementwise"):
            build_glm(np.ones((2, 2)), np.ones(2), scalar_only)

    def test_cumulant_without_variance_rejected(self):
        # the roots take their Newton steps' curvature from the variance
        fam = dataclasses.replace(glm_family("poisson"), variance=None)
        with pytest.raises(ValueError, match="must supply a variance handle"):
            build_glm(np.ones((2, 2)), np.ones(2), fam)

    def test_poisson_prox_survives_steep_inputs(self, rng):
        # exponential cumulants overflow above the root; with psi(s0) = inf
        # the bracket runs from -DBL_MAX to s0, and the root solve must
        # still land on the solution
        from proxsplit.prox import prox_glm_1d
        from conftest import prox_objective
        fam = glm_family("poisson")
        xi = np.array([20.0, -5.0])
        x0 = np.array([40.0, 1.0])  # s0 = 795: exp overflows immediately
        out = prox_glm_1d(x0, xi, 2.0, fam, 1.0)
        assert np.all(np.isfinite(out))

        def g_val(beta):
            s = float(xi @ beta)
            return fam.value(s) - 2.0 * s

        base = prox_objective(g_val, out, x0, 1.0)
        direction = xi / np.linalg.norm(xi)
        for step in (-1e-5, 1e-5):
            assert base <= prox_objective(g_val, out + step * direction,
                                          x0, 1.0) + 1e-9


class TestGlmExtremeInputs:
    @pytest.mark.parametrize("family", sorted(GLM_GRID_RESPONSES))
    def test_grid_solves_on_both_paths(self, family):
        # unit data rows make aq = alpha and s0 the row's input; the bound
        # is set by the cancellation in x0 + ((t - s0)/q)*x_i
        cases = [(s0, ti) for s0 in GLM_GRID_S0
                 for ti in GLM_GRID_RESPONSES[family]]
        problem = build_glm(np.ones((len(cases), 1)),
                            np.array([ti for _, ti in cases]),
                            glm_family(family))
        v = np.array([[s0] for s0, _ in cases])
        for aq in GLM_GRID_AQ:
            got = problem.batched_g_prox(v.copy(), aq)
            want = np.array([gi.prox(v[i], aq)
                             for i, gi in enumerate(problem.g)])
            assert np.all(np.isfinite(got)) and np.all(np.isfinite(want))
            assert np.all(np.abs(got - want) <= 1e-11 * (1.0 + np.abs(v)))

    def test_batched_poisson_row_from_s0_150(self):
        # psi(s0) = exp(150) - 1 is finite but about 1e65: regula falsi
        # creeps from the far end of that bracket until the stall rule
        # hands it to asinh-scale bisection, which closes it in ~20 steps
        problem = build_glm(np.array([[1.0]]), np.array([1.0]),
                            glm_family("poisson"))
        got = problem.batched_g_prox(np.array([[150.0]]), 1.0)
        t = float(got[0, 0])
        assert abs(t - 150.0 + math.exp(t) - 1.0) <= 1e-9
        assert got[0, 0] == pytest.approx(
            problem.g[0].prox(np.array([150.0]), 1.0)[0], abs=1e-12)

    def test_gaussian_response_1e10_at_alpha_1e300(self):
        # psi(0) = 1e300*(0 - 1e10) overflows to -inf; the root is
        # 1e10*aq/(1 + aq), 1e10 to double precision
        problem = build_glm(np.array([[1.0, 0.0]]), np.array([1e10]),
                            glm_family("gaussian"))
        v = np.array([[0.0, 2.0]])
        for got in (problem.batched_g_prox(v.copy(), 1e300)[0],
                    problem.g[0].prox(v[0], 1e300)):
            assert got[0] == pytest.approx(1e10, rel=1e-15, abs=0.0)
            assert got[1] == 2.0
