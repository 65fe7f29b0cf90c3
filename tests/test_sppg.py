"""Single-term stochastic solver: sampler contract, O(d) update algebra,
reductions, and cache-drift accounting."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import abs_prox_fn, lasso_problem, make_quadratic_term, \
    prox_only_problem, simple_problem, tiny_svm
from proxsplit import sppg
from proxsplit.baselines import (DiminishingStep, finito_run,
                                 stochastic_prox_iteration_run)
from proxsplit.core import chunked_row_mean, initial_state, objective
from proxsplit.io import write_metrics_csv
from proxsplit.ppg import SolveOptions, ppg_run, ppg_step
from proxsplit.sppg import (IndexSampler, SequenceSampler, sppg_run,
                            sppg_step)


class TestIndexSampler:
    def test_same_seed_same_stream(self):
        a = IndexSampler(7, 5).take(100)
        b = IndexSampler(7, 5).take(100)
        assert np.array_equal(a, b)

    def test_take_continues_stream(self):
        whole = IndexSampler(7, 5).take(100)
        s = IndexSampler(7, 5)
        parts = np.concatenate([s.take(30), s.take(70)])
        assert np.array_equal(whole, parts)

    def test_range(self):
        idx = IndexSampler(0, 9).take(1000)
        assert idx.min() >= 0 and idx.max() < 9
        assert set(np.unique(idx)) == set(range(9))

    def test_documented_stream_vector(self):
        # counter-based stream pinned for cross-implementation portability:
        # raw 64-bit Philox words keyed by the seed, reduced mod n
        assert list(IndexSampler(42, 7).take(10)) == \
            [6, 2, 2, 0, 5, 5, 0, 6, 6, 2]
        assert list(IndexSampler(42, 5).take(4)) == [1, 0, 0, 4]


    @pytest.mark.parametrize("seed", [1.5, 2.0, True, "3", None])
    def test_seed_not_an_int_rejected(self, seed):
        # int() truncated 1.5 and read True as seed 1
        with pytest.raises(ValueError, match="seed must be an int"):
            IndexSampler(seed, 5)

    def test_numpy_int_seed_accepted(self):
        assert np.array_equal(IndexSampler(np.int64(7), 5).take(20),
                              IndexSampler(7, 5).take(20))


class _RecordingSampler(IndexSampler):
    """The seeded stream, remembering the largest block drawn at once."""

    def __init__(self, seed, n):
        super().__init__(seed, n)
        self.largest = 0

    def take(self, count):
        self.largest = max(self.largest, count)
        return super().take(count)


def _sampled_runs(rng, n):
    prox_only = prox_only_problem(rng, n=n, d=2)
    smooth = simple_problem([], dim=2, terms_f=[
        make_quadratic_term(rng.standard_normal(2), 0.0) for _ in range(n)])
    svm = tiny_svm(rng, n=n)
    folded = tiny_svm(rng, n=n, fold_ridge=True)
    step = DiminishingStep(1.0)
    return {
        "sppg": lambda s, o: sppg_run(prox_only, o, s),
        "sppg-hinge": lambda s, o: sppg_run(svm, o, s),
        "spi": lambda s, o: stochastic_prox_iteration_run(
            prox_only, step, s, o),
        "spi-hinge": lambda s, o: stochastic_prox_iteration_run(
            folded, step, s, o),
        "finito": lambda s, o: finito_run(smooth, s, replace(o, alpha=None)),
    }


_SOLVERS = ["sppg", "sppg-hinge", "spi", "spi-hinge", "finito"]


class TestIndexDraws:
    @pytest.mark.parametrize("record_every", [None, 1, 3, 12, 500])
    @pytest.mark.parametrize("solver", _SOLVERS)
    def test_draws_per_block_not_per_run(self, rng, solver, record_every):
        # memory must not grow with the step budget: indices are drawn one
        # block at a time, and no block crosses an epoch boundary
        n = 12
        sampler = _RecordingSampler(0, n)
        opts = SolveOptions(alpha=0.5, max_iters=40 * n,
                            record_every=record_every)
        _sampled_runs(rng, n)[solver](sampler, opts)
        assert 0 < sampler.largest <= min(record_every or n, n)

    @pytest.mark.parametrize("seq", [[0, -1, 1], [0, 45, 1]])
    @pytest.mark.parametrize("solver", _SOLVERS)
    def test_out_of_range_index_rejected(self, rng, solver, seq):
        # -1 used to update row n - 1 and 45 to fail inside numpy; the
        # block is rejected, naming its first bad index, on every path
        with pytest.raises(ValueError,
                           match=rf"sampled index {seq[1]} \(step 1\) is "
                                 r"not an integer in \[0, 12\)"):
            _sampled_runs(rng, 12)[solver](
                SequenceSampler(seq), SolveOptions(alpha=0.5, max_iters=3))

    @pytest.mark.parametrize("solver", _SOLVERS)
    def test_non_integer_block_rejected(self, rng, solver):
        class Floats:
            def take(self, count):
                return np.array([0.5, 1.0, 1.0])[:count]

        with pytest.raises(ValueError, match=r"sampled index 0\.5 \(step 0"):
            _sampled_runs(rng, 12)[solver](
                Floats(), SolveOptions(alpha=0.5, max_iters=3))

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_single_step_rejects_out_of_range_index(self, rng, bad):
        # -1 used to update row 4; the step is rejected before any update
        problem = prox_only_problem(rng, n=5, d=3)
        state = initial_state(problem, 0.7, rng.standard_normal((5, 3)))
        z, zbar = state.z.copy(), state.zbar.copy()
        with pytest.raises(ValueError,
                           match=rf"sampled index {bad} \(step 0\) is "
                                 r"not an integer in \[0, 5\)"):
            sppg_step(state, problem, SequenceSampler([bad]))
        assert np.array_equal(state.z, z) and state.k == 0
        assert np.array_equal(state.zbar, zbar)

    @pytest.mark.parametrize("seq", [[0.5, 1, 1], [0, 1.0], [True, False]])
    def test_sequence_sampler_rejects_non_integers(self, seq):
        # [0.5, 1, 1] used to replay as [0, 1, 1]
        with pytest.raises(ValueError, match="must be integers"):
            SequenceSampler(seq)


class TestStepAlgebra:
    def test_n1_equals_full_sweep_exactly(self, rng):
        problem = lasso_problem(rng, m=1, d=4)
        opts = SolveOptions(alpha=0.3 / problem.lipschitz_bound(),
                            max_iters=60)
        res_s = sppg_run(problem, opts, IndexSampler(0, 1))
        res_p = ppg_run(problem, opts)
        assert np.allclose(res_s.x, res_p.x, rtol=0, atol=1e-14)
        assert np.allclose(res_s.state.z, res_p.state.z, rtol=0, atol=1e-14)

    def test_untouched_rows_are_bitwise_identical(self, rng):
        problem = prox_only_problem(rng, n=5, d=3)
        state = initial_state(problem, 0.7,
                              rng.standard_normal((5, 3)))
        before = state.z.copy()
        sppg_step(state, problem, SequenceSampler([2]))
        for j in (0, 1, 3, 4):
            assert np.array_equal(state.z[j], before[j])
        assert not np.array_equal(state.z[2], before[2])

    def test_zbar_tracks_incremental_update(self, rng):
        problem = prox_only_problem(rng, n=6, d=2)
        state = initial_state(problem, 0.5)
        sampler = IndexSampler(3, 6)
        for _ in range(50):
            sppg_step(state, problem, sampler)
        exact = chunked_row_mean(state.z, problem.reduce_chunks)
        assert np.linalg.norm(state.zbar - exact) <= \
            1e-9 * (1.0 + np.linalg.norm(state.zbar))

    def test_expected_update_matches_full_sweep(self, rng):
        # averaging the n possible single-index updates from a fixed state
        # reproduces 1/n of the full-sweep displacement
        for n in (1, 2, 3, 5, 8):
            problem = prox_only_problem(rng, n=n, d=3)
            base = initial_state(problem, 0.6,
                                 rng.standard_normal((n, 3)))
            deltas = np.zeros((n, 3))
            for i in range(n):
                st = base.copy()
                sppg_step(st, problem, SequenceSampler([i]))
                deltas += st.z - base.z
            st_full = base.copy()
            ppg_step(st_full, problem)
            assert np.allclose(deltas / n, (st_full.z - base.z) / n,
                               atol=1e-12)

    def test_step_report_residual_on_request(self, rng):
        problem = prox_only_problem(rng, n=3, d=2)
        state = initial_state(problem, 0.5)
        _, rep = sppg_step(state, problem, SequenceSampler([0]),
                           compute_residual=True)
        assert rep is not None and rep.residual_norm >= 0
        _, rep2 = sppg_step(state, problem, SequenceSampler([1]))
        assert rep2 is None


class TestReductions:
    def test_matches_finito_on_smooth_only(self, rng):
        rows = [make_quadratic_term(rng.standard_normal(4),
                                    float(rng.standard_normal()))
                for _ in range(5)]
        problem = simple_problem([], dim=4, terms_f=rows)
        alpha = 0.5 / problem.lipschitz_bound()
        idx = list(np.random.default_rng(9).integers(0, 5, size=200))
        opts = SolveOptions(alpha=alpha, max_iters=200, record_every=50)
        res_s = sppg_run(problem, opts, SequenceSampler(idx))
        res_f = finito_run(problem, SequenceSampler(idx), opts)
        assert np.allclose(res_s.state.z, res_f.state.z, atol=1e-12)
        assert np.allclose(res_s.x, res_f.x, atol=1e-12)

    def test_finito_pairing_per_step(self, rng):
        rows = [make_quadratic_term(rng.standard_normal(3),
                                    float(rng.standard_normal()))
                for _ in range(4)]
        problem = simple_problem([], dim=3, terms_f=rows)
        alpha = 0.4 / problem.lipschitz_bound()
        idx = list(np.random.default_rng(4).integers(0, 4, size=40))
        for k in (1, 7, 40):
            opts = SolveOptions(alpha=alpha, max_iters=k, record_every=k)
            res_s = sppg_run(problem, opts, SequenceSampler(idx[:k]))
            res_f = finito_run(problem, SequenceSampler(idx[:k]), opts)
            assert np.allclose(res_s.state.z, res_f.state.z, atol=1e-12)


class TestRunBehavior:
    def test_stop_reason_tol(self, rng):
        problem = prox_only_problem(rng, n=3, d=2)
        res = sppg_run(problem, SolveOptions(alpha=1.0, max_iters=30000,
                                             tol=1e-3),
                       IndexSampler(0, problem.n))
        assert res.converged and res.state.k < 30000
        assert res.log.metadata["stop"] == "tol"

    @pytest.mark.parametrize("tol", [0.0, 1e-14])
    def test_stop_reason_budget(self, rng, tol):
        problem = prox_only_problem(rng, n=3, d=2)
        res = sppg_run(problem, SolveOptions(alpha=1.0, max_iters=7, tol=tol),
                       IndexSampler(0, problem.n))
        assert res.state.k == 7
        assert res.log.metadata["stop"] == "budget"

    @pytest.mark.parametrize("handle", ["prox", "gradient"])
    def test_single_step_names_failing_term(self, handle):
        from proxsplit.core import ConvergenceError, ProxFn, SmoothFn

        def fail(*args):
            raise ConvergenceError("inner solve failed")

        g = [abs_prox_fn(0.0)] * 3
        f = [make_quadratic_term(np.ones(2), 0.0)] * 3
        if handle == "prox":
            g[1] = ProxFn(prox=fail)
        else:
            f[1] = SmoothFn(value=lambda x: 0.0, gradient=fail, lipschitz=1.0)
        problem = simple_problem(g, dim=2, terms_f=f)
        state = initial_state(problem, 0.5)
        sppg_step(state, problem, SequenceSampler([0, 2]))
        sppg_step(state, problem, SequenceSampler([2]))
        with pytest.raises(ConvergenceError,
                           match=r"^inner solve failed \(term 1\)$"):
            sppg_step(state, problem, SequenceSampler([1]))

    def test_zero_problem_converges_immediately(self):
        problem = simple_problem([abs_prox_fn(0.0)], dim=2)
        res = sppg_run(problem, SolveOptions(alpha=1.0, max_iters=1),
                       IndexSampler(0, 1))
        assert np.allclose(res.x, np.zeros(2))

    def test_seed_reproducibility_bytes(self, rng, tmp_path):
        problem = tiny_svm(rng)
        outs = []
        for _ in range(2):
            res = sppg_run(problem, SolveOptions(max_iters=120, alpha=0.5),
                           IndexSampler(11, problem.n))
            for row in res.log.rows:
                row.wall_time_s = None
            path = tmp_path / "m.csv"
            write_metrics_csv(res.log, path)
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_different_seeds_differ(self, rng):
        problem = tiny_svm(rng)
        r1 = sppg_run(problem, SolveOptions(max_iters=60, alpha=0.5),
                      IndexSampler(1, problem.n))
        r2 = sppg_run(problem, SolveOptions(max_iters=60, alpha=0.5),
                      IndexSampler(2, problem.n))
        assert not np.allclose(r1.x, r2.x)

    def test_objective_parity_with_full_sweep(self, rng):
        # equal epoch budgets land both solvers at matching objectives
        problem = tiny_svm(rng, n=64, d=8)
        epochs = 300
        res_p = ppg_run(problem, SolveOptions(alpha=1.0, max_iters=epochs))
        res_s = sppg_run(problem,
                         SolveOptions(alpha=1.0, max_iters=epochs * problem.n),
                         IndexSampler(0, problem.n))
        obj_p = objective(res_p.x, problem)
        obj_s = objective(res_s.x, problem)
        assert abs(obj_s - obj_p) / abs(obj_p) <= 1e-3

    def test_resync_metadata_present(self, rng):
        problem = prox_only_problem(rng, n=4, d=2)
        res = sppg_run(problem, SolveOptions(alpha=0.5, max_iters=80),
                       IndexSampler(0, 4))
        assert "resyncs" in res.log.metadata
        assert res.log.metadata["resyncs"] >= 0

    @pytest.mark.parametrize("path", ["kernel", "per-term"])
    def test_drift_rebuilds_the_mean_every_epoch(self, rng, monkeypatch,
                                                 path):
        # a cached mean moved by 1e-6 after each block (one per epoch) is
        # caught and rebuilt at every epoch boundary
        problem = (tiny_svm(rng, n=12, d=3) if path == "kernel"
                   else prox_only_problem(rng, n=4, d=2))
        advance = sppg._advance_block

        def drifting(state, *args):
            advance(state, *args)
            state.zbar += 1e-6

        monkeypatch.setattr(sppg, "_advance_block", drifting)
        res = sppg_run(problem, SolveOptions(alpha=0.5,
                                             max_iters=5 * problem.n),
                       IndexSampler(0, problem.n))
        assert res.log.metadata["path"] == path
        assert res.log.metadata["resyncs"] == 5
        exact = chunked_row_mean(res.state.z, problem.reduce_chunks)
        assert res.state.zbar.tobytes() == exact.tobytes()

    def test_recording_cadence_defaults_to_epoch(self, rng):
        problem = prox_only_problem(rng, n=5, d=2)
        res = sppg_run(problem, SolveOptions(alpha=0.5, max_iters=20),
                       IndexSampler(0, 5))
        assert [r.k for r in res.log.rows] == [0, 5, 10, 15, 20]
        assert [r.epoch for r in res.log.rows] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_ergodic_average(self, rng):
        # n=1 with ergodic averaging matches the full-sweep solver's
        # averaged prox-r points
        problem = lasso_problem(rng, m=1, d=3)
        opts = SolveOptions(alpha=0.3 / problem.lipschitz_bound(),
                            max_iters=25, ergodic=True)
        res_s = sppg_run(problem, opts, IndexSampler(0, 1))
        res_p = ppg_run(problem, opts)
        assert res_s.ergodic is not None
        assert np.allclose(res_s.ergodic, res_p.ergodic, atol=1e-13)

    def test_constant_step_throughout(self, rng):
        problem = prox_only_problem(rng, n=3, d=2)
        res = sppg_run(problem, SolveOptions(alpha=0.7, max_iters=30),
                       IndexSampler(0, 3))
        assert res.state.alpha == 0.7
        assert res.log.metadata["alpha"] == 0.7


def _problem_whose_term_1_gives(what):
    """Three terms on R^3 whose term 1 (or r, for "inf prox of r") returns
    what ``what`` names; the other terms are finite."""
    from proxsplit.core import ProxFn, SmoothFn
    g, f, r = [abs_prox_fn(0.0)] * 3, [], None
    if what == "inf gradient, clipped by the prox":
        f = [make_quadratic_term(np.ones(3), 0.0),
             SmoothFn(value=lambda x: 0.0,
                      gradient=lambda x: np.full_like(x, np.inf),
                      lipschitz=1.0)]
        g[1] = ProxFn(prox=lambda x0, a: np.clip(x0, -1.0, 1.0))
    elif what == "nan prox of g":
        g[1] = ProxFn(prox=lambda x0, a: np.full_like(x0, np.nan))
    elif what == "inf prox of r":
        r = ProxFn(prox=lambda x0, a: np.full_like(x0, np.inf))
    else:
        # finite, but the squares overflow the finiteness test's reduction
        g[1] = ProxFn(prox=lambda x0, a: np.full_like(x0, 1e200))
    return simple_problem(g, dim=3, r=r, terms_f=f)


def _sppg_step_on_term_1(problem):
    state = initial_state(problem, 0.25)
    sppg_step(state, problem, SequenceSampler([1]))
    return state


def _ppg_sweeps(problem):
    return ppg_run(problem, SolveOptions(alpha=0.25, max_iters=2)).state


class TestPerTermChecks:
    """sppg's single-term step and ppg's per-term sweep test every handle's
    output with the one finiteness rule, and name what failed."""

    @pytest.mark.parametrize("run", [_sppg_step_on_term_1, _ppg_sweeps])
    @pytest.mark.parametrize("what, message", [
        ("inf gradient, clipped by the prox",
         r"^non-finite values from gradient of f \(term 1\)$"),
        ("nan prox of g", r"^non-finite values from prox of g \(term 1\)$"),
        ("inf prox of r", r"^non-finite values from prox of r$")])
    def test_nonfinite_output_named(self, run, what, message):
        from proxsplit.core import NumericalError
        with pytest.raises(NumericalError, match=message):
            run(_problem_whose_term_1_gives(what))

    @pytest.mark.parametrize("run", [_sppg_step_on_term_1, _ppg_sweeps])
    def test_output_whose_squares_overflow_accepted(self, run):
        # its sum of squares is inf, so the entries are scanned: all finite
        state = run(_problem_whose_term_1_gives("1e200 prox of g"))
        assert np.isfinite(state.z).all()
        assert np.abs(state.z[1]).max() >= 1e199
