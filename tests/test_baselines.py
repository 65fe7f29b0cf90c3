"""Reference solvers: domain validation, closed-form checks, and pairing
with the splitting solvers on their common ground."""

import dataclasses
from functools import partial

import numpy as np
import pytest

from conftest import abs_prox_fn, lasso_problem, make_quadratic_term, \
    prox_only_problem, simple_problem, tiny_svm
from proxsplit.baselines import (DiminishingStep, consensus_admm_run,
                                 finito_run, proximal_gradient_run,
                                 stochastic_prox_iteration_run)
from proxsplit.core import (ConvergenceError, ProxFn, SmoothFn, objective,
                            ridge_prox, zero_prox)
from proxsplit.ppg import SolveOptions, ppg_run
from proxsplit.sppg import IndexSampler, sppg_run


class TestProximalGradient:
    def test_rejects_nonsmooth_terms(self, rng):
        problem = prox_only_problem(rng, n=2, d=2)
        with pytest.raises(ValueError, match="nonsmooth"):
            proximal_gradient_run(problem, SolveOptions(max_iters=1))

    def test_gradient_descent_closed_form(self):
        h = np.diag([2.0, 0.5])
        fn = SmoothFn(value=lambda x: 0.5 * float(x @ h @ x),
                      gradient=lambda x: h @ x, lipschitz=2.0)
        problem = simple_problem([zero_prox()], dim=2, terms_f=[fn])
        alpha = 0.5
        x0 = np.array([1.0, -2.0])
        res = proximal_gradient_run(problem,
                                    SolveOptions(alpha=alpha, max_iters=9),
                                    x0=x0)
        want = (1.0 - alpha * np.diag(h)) ** 9 * x0
        assert np.allclose(res.x, want, atol=1e-12)

    def test_pairs_with_splitting_solver(self, rng):
        problem = lasso_problem(rng, m=7, d=5)
        opts = SolveOptions(alpha=0.7 / problem.lipschitz_bound(),
                            max_iters=50)
        assert np.allclose(proximal_gradient_run(problem, opts).x,
                           ppg_run(problem, opts).x, atol=1e-12)

    def test_step_bound_flagged(self, rng):
        problem = lasso_problem(rng)
        lip = problem.lipschitz_bound()
        with pytest.raises(ValueError, match="2/L"):
            proximal_gradient_run(problem,
                                  SolveOptions(alpha=2.1 / lip, max_iters=1))

    def test_state_counts_iterations_taken(self, rng):
        problem = lasso_problem(rng, m=7, d=5)
        res = proximal_gradient_run(problem,
                                    SolveOptions(max_iters=5000, tol=1e-8))
        assert res.converged
        assert res.state.k == res.log.rows[-1].k + 1 < 5000


class TestConsensusAdmm:
    def test_rejects_smooth_terms(self, rng):
        problem = lasso_problem(rng)
        with pytest.raises(ValueError, match="smooth"):
            consensus_admm_run(problem, SolveOptions(max_iters=1))

    def test_single_term_reaches_minimizer(self):
        # n=1 consensus is a two-operator splitting; |x| + |x-2| is
        # minimized on [0, 2] with value 2
        problem = simple_problem([abs_prox_fn(2.0)], dim=1,
                                 r=abs_prox_fn(0.0))
        res = consensus_admm_run(problem, SolveOptions(alpha=0.9,
                                                       max_iters=300))
        assert objective(res.x, problem) == pytest.approx(2.0, abs=1e-8)
        assert -1e-8 <= res.x[0] <= 2.0 + 1e-8

    def test_matches_splitting_solver_solution(self, rng):
        problem = prox_only_problem(rng, n=4, d=3)
        opts = SolveOptions(alpha=0.8, max_iters=4000, record_every=4000)
        x_admm = consensus_admm_run(problem, opts).x
        x_split = ppg_run(problem, opts).x
        assert np.allclose(x_admm, x_split, atol=1e-6)

    def test_metrics_schema_shared(self, rng):
        problem = prox_only_problem(rng, n=3, d=2)
        res = consensus_admm_run(problem, SolveOptions(alpha=1.0, max_iters=5))
        row = res.log.rows[0]
        assert row.residual_norm >= 0 and row.objective is not None

    def test_state_counts_iterations_taken(self, rng):
        problem = prox_only_problem(rng, n=4, d=3)
        res = consensus_admm_run(problem, SolveOptions(alpha=0.8,
                                                       max_iters=5000,
                                                       tol=1e-8))
        assert res.converged
        assert res.state.k == res.log.rows[-1].k + 1 < 5000

    @pytest.mark.parametrize("kind", ["prox-only", "svm"])
    def test_state_warm_starts_ppg(self, rng, kind):
        # the state is the splitting state z_i = u_i + zc: ppg started from
        # it after k iterations continues the ADMM run
        problem = (prox_only_problem(rng, n=5, d=3) if kind == "prox-only"
                   else tiny_svm(rng))
        k, m = 7, 9
        mid = consensus_admm_run(problem, SolveOptions(alpha=0.8,
                                                       max_iters=k))
        assert np.allclose(mid.state.zbar, mid.state.z.mean(axis=0),
                           rtol=0, atol=1e-12)
        resumed = ppg_run(problem, SolveOptions(alpha=0.8, max_iters=m),
                          warm_start=mid.state.z)
        whole = consensus_admm_run(problem, SolveOptions(alpha=0.8,
                                                         max_iters=k + m))
        assert np.max(np.abs(resumed.x - whole.x)) <= 1e-12

    @pytest.mark.parametrize("kind", ["svm", "gaussian", "logistic",
                                      "poisson", "group-lasso"])
    def test_batched_prox_matches_per_term(self, kind):
        # ADMM takes the batched prox where the problem has one; stripping
        # the hooks leaves the per-term handles, which agree to rounding
        from conftest import tiny_glm
        from proxsplit.problems import build_group_lasso, staggered_partition
        rng = np.random.default_rng(5)
        if kind == "svm":
            problem = tiny_svm(rng, n=40, d=4)
        elif kind == "group-lasso":
            problem = build_group_lasso(
                rng.standard_normal((20, 12)), rng.standard_normal(20), 0.05,
                staggered_partition(12, 8, group_size=3, stagger=1))
        else:
            problem = tiny_glm(rng, kind, n=40, d=4)
        per_term = dataclasses.replace(problem, batched_g_prox=None,
                                       structure=None)
        opts = SolveOptions(alpha=1.0, max_iters=20)
        fast = consensus_admm_run(problem, opts)
        slow = consensus_admm_run(per_term, opts)
        assert fast.log.metadata["sweep"] == "batched"
        assert slow.log.metadata["sweep"] == "per-term"
        assert np.max(np.abs(fast.x - slow.x)) <= 1e-12
        for a, b in zip(fast.log.rows, slow.log.rows, strict=True):
            assert a.residual_norm == pytest.approx(b.residual_norm,
                                                    rel=1e-12)
            assert a.objective == pytest.approx(b.objective, rel=1e-12)


class TestStochasticProxIteration:
    def test_rejects_constant_step(self, rng):
        problem = prox_only_problem(rng, n=2, d=2)
        with pytest.raises(TypeError, match="DiminishingStep"):
            stochastic_prox_iteration_run(problem, 0.5, IndexSampler(0, 2),
                                          SolveOptions(max_iters=1))

    def test_infinite_step_constant_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DiminishingStep(float("inf"))

    def test_rejects_smooth_or_global_terms(self, rng):
        smooth = lasso_problem(rng)
        with pytest.raises(ValueError):
            stochastic_prox_iteration_run(smooth, DiminishingStep(1.0),
                                          IndexSampler(0, smooth.n),
                                          SolveOptions(max_iters=1))
        # an r that is neither zero nor a ridge, here an L1 term
        l1 = dataclasses.replace(tiny_svm(rng), r=abs_prox_fn(weight=0.05))
        with pytest.raises(ValueError,
                           match="requires r to be zero or a ridge"):
            stochastic_prox_iteration_run(l1, DiminishingStep(1.0),
                                          IndexSampler(0, l1.n),
                                          SolveOptions(max_iters=1))

    def test_ridge_in_r_is_stepped_per_term(self):
        # |x - 1| + (w/2) x^2 with w = 2 is least at x = 1/2; the per-term
        # path takes each step as the prox of g at the shrunk point and step
        problem = dataclasses.replace(
            simple_problem([abs_prox_fn(1.0)], dim=1), r=ridge_prox(2.0))
        res = stochastic_prox_iteration_run(
            problem, DiminishingStep(5.0), IndexSampler(0, 1),
            SolveOptions(max_iters=500))
        assert res.log.metadata["path"] == "per-term"
        assert abs(res.x[0] - 0.5) <= 1e-6

    def test_single_term_converges(self):
        problem = simple_problem([abs_prox_fn(1.0)], dim=1)
        res = stochastic_prox_iteration_run(
            problem, DiminishingStep(5.0), IndexSampler(0, 1),
            SolveOptions(max_iters=500))
        assert abs(res.x[0] - 1.0) <= 1e-6

    def test_seed_reproducibility(self, rng):
        problem = tiny_svm(rng)
        runs = [stochastic_prox_iteration_run(
            problem, DiminishingStep(2.0), IndexSampler(5, problem.n),
            SolveOptions(max_iters=200)).x for _ in range(2)]
        assert np.array_equal(runs[0], runs[1])

    def test_reached_tol_stops_at_first_row(self, rng):
        problem = prox_only_problem(rng, n=4, d=3)
        res = stochastic_prox_iteration_run(
            problem, DiminishingStep(1.0), IndexSampler(0, 4),
            SolveOptions(max_iters=400, tol=1e3))
        assert res.converged
        assert [row.k for row in res.log.rows] == [0]
        assert res.state.k == 0
        assert np.array_equal(res.x, np.zeros(3))

    def test_unreached_tol_not_converged(self, rng):
        problem = prox_only_problem(rng, n=4, d=3)
        res = stochastic_prox_iteration_run(
            problem, DiminishingStep(1.0), IndexSampler(0, 4),
            SolveOptions(max_iters=40, tol=1e-30))
        assert not res.converged
        assert res.log.rows[-1].k == 40 == res.state.k

    def test_tol_bounds_rms_residual_per_entry(self, rng):
        # the residual is a mean over terms; the tolerance bounds it per
        # coordinate, as for the splitting solvers
        problem = prox_only_problem(rng, n=4, d=9)

        def run(tol):
            return stochastic_prox_iteration_run(
                problem, DiminishingStep(1.0), IndexSampler(0, 4),
                SolveOptions(max_iters=40, tol=tol))

        rms = run(0.0).log.rows[0].residual_norm / 3.0
        assert len(run(rms * (1 + 1e-9)).log.rows) == 1
        assert len(run(rms * (1 - 1e-9)).log.rows) > 1

    def test_diminishing_step_rule(self):
        step = DiminishingStep(3.0)
        assert step.at(1) == 3.0
        assert step.at(10) == pytest.approx(0.3)
        with pytest.raises(ValueError):
            DiminishingStep(0.0)


class TestFinito:
    def test_rejects_nonsmooth(self, rng):
        problem = prox_only_problem(rng, n=2, d=2)
        with pytest.raises(ValueError):
            finito_run(problem, IndexSampler(0, 2), SolveOptions(max_iters=1))

    def test_n1_is_gradient_descent(self):
        # one term: every step is a plain gradient step from the previous
        # point, so iterates contract along eigenmodes from the zero start
        h = np.diag([1.0, 0.25])
        c = np.array([2.0, -4.0])
        fn = SmoothFn(value=lambda x: 0.5 * float((x - c) @ h @ (x - c)),
                      gradient=lambda x: h @ (x - c), lipschitz=1.0)
        problem = simple_problem([], dim=2, terms_f=[fn])
        res = finito_run(problem, IndexSampler(0, 1),
                         SolveOptions(alpha=0.5, max_iters=6))
        want = c + (1.0 - 0.5 * np.diag(h)) ** 6 * (np.zeros(2) - c)
        assert np.allclose(res.x, want, atol=1e-12)

    def test_constant_step_metadata(self, rng):
        rows = [make_quadratic_term(rng.standard_normal(3), 0.0)
                for _ in range(3)]
        problem = simple_problem([], dim=3, terms_f=rows)
        res = finito_run(problem, IndexSampler(0, 3),
                         SolveOptions(max_iters=30))
        assert res.log.metadata["alpha"] == 1.0 / problem.lipschitz_bound()

    def test_tol_stops_early_and_counts_steps(self, rng):
        rows = [make_quadratic_term(rng.standard_normal(3), 1.0)
                for _ in range(3)]
        problem = simple_problem([], dim=3, terms_f=rows)
        res = finito_run(problem, IndexSampler(0, 3),
                         SolveOptions(max_iters=30000, tol=1e-6))
        assert res.converged
        assert res.state.k == res.log.rows[-1].k < 30000

    def test_unreached_tol_not_converged(self, rng):
        rows = [make_quadratic_term(rng.standard_normal(3), 1.0)
                for _ in range(3)]
        problem = simple_problem([], dim=3, terms_f=rows)
        res = finito_run(problem, IndexSampler(0, 3),
                         SolveOptions(max_iters=12, tol=1e-30))
        assert not res.converged
        assert res.log.rows[-1].k == 12 == res.state.k

    def test_reaches_least_squares_solution(self, rng):
        a_mat = rng.standard_normal((6, 3))
        y = rng.standard_normal(6)
        rows = [make_quadratic_term(a_mat[i], y[i]) for i in range(6)]
        problem = simple_problem([], dim=3, terms_f=rows)
        res = finito_run(problem, IndexSampler(0, 6),
                         SolveOptions(max_iters=6000))
        want = np.linalg.lstsq(a_mat, y, rcond=None)[0]
        assert np.allclose(res.x, want, atol=1e-6)


def test_all_baselines_share_metrics_schema(rng, tmp_path):
    from proxsplit.io import read_metrics_csv, write_metrics_csv
    runs = []
    smooth = lasso_problem(rng, m=4, d=3)
    runs.append(proximal_gradient_run(smooth, SolveOptions(max_iters=5)))
    prox_only = prox_only_problem(rng, n=3, d=2)
    runs.append(consensus_admm_run(prox_only,
                                   SolveOptions(alpha=1.0, max_iters=5)))
    runs.append(stochastic_prox_iteration_run(
        prox_only, DiminishingStep(1.0), IndexSampler(0, 3),
        SolveOptions(max_iters=5, record_every=1)))
    rows = [make_quadratic_term(rng.standard_normal(2), 0.0)
            for _ in range(3)]
    smooth_only = simple_problem([], dim=2, terms_f=rows)
    runs.append(finito_run(smooth_only, IndexSampler(0, 3),
                           SolveOptions(max_iters=5, record_every=1)))
    for i, res in enumerate(runs):
        path = tmp_path / f"log{i}.csv"
        write_metrics_csv(res.log, path)
        back = read_metrics_csv(path)
        assert len(back.rows) == len(res.log.rows)


def _failing(term, n, kind):
    """An n-term problem whose term ``term`` raises inside its prox (kind
    "prox", every f zero) or its gradient (kind "gradient", every g zero)."""
    def fail(*args):
        raise ConvergenceError("inner solve failed")

    if kind == "prox":
        g = [abs_prox_fn(0.0)] * n
        g[term] = ProxFn(prox=fail)
        return simple_problem(g, dim=2)
    f = [make_quadratic_term(np.ones(2), 0.0)] * n
    f[term] = SmoothFn(value=lambda x: 0.0, gradient=fail, lipschitz=1.0)
    return simple_problem([], dim=2, terms_f=f)


def _failing_run(solver, ergodic=False):
    """A 20-iteration run of baseline ``solver`` on a :func:`_failing`
    problem of its class, whose term 2 raises."""
    kind = "prox" if solver in ("admm", "spi") else "gradient"
    problem = _failing(2, 4, kind)
    opts = SolveOptions(alpha=0.5, max_iters=20, ergodic=ergodic)
    return {
        "admm": lambda: consensus_admm_run(problem, opts),
        "spi": lambda: stochastic_prox_iteration_run(
            problem, DiminishingStep(1.0), IndexSampler(0, 4), opts),
        "prox-grad": lambda: proximal_gradient_run(problem, opts),
        "finito": lambda: finito_run(problem, IndexSampler(0, 4), opts),
    }[solver]


@pytest.mark.parametrize("solver", ["admm", "spi", "prox-grad", "finito"])
def test_raising_handle_names_term(solver):
    # a SolverError from inside a per-term handle carries the term index
    with pytest.raises(ConvergenceError,
                       match=r"^inner solve failed \(term 2\)$"):
        _failing_run(solver)()


@pytest.mark.parametrize("solver, name", [
    ("admm", "consensus ADMM"), ("spi", "stochastic proximal iteration"),
    ("prox-grad", "proximal-gradient"), ("finito", "finito")])
def test_ergodic_refused(solver, name):
    # these keep no average and used to return ergodic=None without a
    # word; the failing term shows that the refusal comes before any step
    with pytest.raises(ValueError, match=f"^{name} returns no ergodic "
                                         "average; only ppg and sppg"):
        _failing_run(solver, ergodic=True)()


@pytest.mark.parametrize("solver, shape", [("spi-kernel", (4,)),
                                           ("spi-per-term", (3, 1)),
                                           ("prox-grad", (4,))])
def test_x0_of_wrong_shape_rejected(rng, solver, shape):
    # named up front, not a failure deep inside numpy
    opts = SolveOptions(max_iters=5)
    if solver == "prox-grad":
        problem = lasso_problem(rng, m=4, d=3)
        run = partial(proximal_gradient_run, problem, opts)
    else:
        problem = (tiny_svm(rng, n=4, d=3) if solver == "spi-kernel" else prox_only_problem(rng))
        run = partial(stochastic_prox_iteration_run, problem,
                      DiminishingStep(1.0), IndexSampler(0, problem.n), opts)
    assert problem.dim == 3
    with pytest.raises(ValueError, match=r"x0 must have shape \(3,\)"):
        run(x0=np.zeros(shape))


def test_spi_step_names_failing_term():
    # the probe at k=0 passes; the failure comes from a sampled step
    calls = []

    def fail_later(x0, a):
        calls.append(1)
        if len(calls) > 3:
            raise ConvergenceError("inner solve failed")
        return np.array(x0, dtype=float, copy=True)

    g = [abs_prox_fn(0.0)] * 3
    g[1] = ProxFn(prox=fail_later)
    problem = simple_problem(g, dim=2)
    with pytest.raises(ConvergenceError, match=r"\(term 1\)$"):
        stochastic_prox_iteration_run(
            problem, DiminishingStep(1.0), IndexSampler(0, 3),
            SolveOptions(max_iters=50))


def _every_solver(rng, opts):
    """Each of the six solvers on a tiny problem of its class, as
    ``name: (problem, run)``; ``run(**kwargs)`` passes its keyword
    arguments (``x_ref``, ``warm_start``, ``x0``) to the solver."""
    smooth = lasso_problem(rng, m=4, d=3)
    prox_only = prox_only_problem(rng, n=3, d=2)
    rows = [make_quadratic_term(rng.standard_normal(2), 0.0)
            for _ in range(3)]
    smooth_only = simple_problem([], dim=2, terms_f=rows)
    return {
        "ppg": (smooth, partial(ppg_run, smooth, opts)),
        "sppg": (smooth, lambda **kw: sppg_run(
            smooth, opts, IndexSampler(0, smooth.n), **kw)),
        "prox-grad": (smooth, partial(proximal_gradient_run, smooth, opts)),
        "admm": (prox_only, partial(consensus_admm_run, prox_only, opts)),
        "spi": (prox_only, lambda **kw: stochastic_prox_iteration_run(
            prox_only, DiminishingStep(1.0), IndexSampler(0, 3), opts, **kw)),
        "finito": (smooth_only, lambda **kw: finito_run(
            smooth_only, IndexSampler(0, 3), opts, **kw)),
    }


def test_every_solver_records_stop_reason(rng):
    # tol=1e3 is met at every solver's first check, tol=0 never
    for tol, stop in ((0.0, "budget"), (1e3, "tol")):
        opts = SolveOptions(max_iters=5, tol=tol)
        for name, (_, run) in _every_solver(rng, opts).items():
            res = run()
            assert res.log.metadata["stop"] == stop, (name, tol)
            assert res.converged


# every run records its solver, problem kind, n, dim and stop reason; full
# sweeps their sweep path; sampled runs their seed and path; then each
# solver its step and sppg its resyncs
_COMMON = {"solver", "problem_kind", "n", "dim", "stop"}
RECORD_KEYS = {
    "ppg": _COMMON | {"alpha", "sweep"},
    "prox-grad": _COMMON | {"alpha", "sweep"},
    "admm": _COMMON | {"alpha", "sweep"},
    "sppg": _COMMON | {"alpha", "seed", "path", "resyncs"},
    "spi": _COMMON | {"c", "seed", "path"},
    "finito": _COMMON | {"alpha", "seed", "path"},
}


def test_every_solver_writes_the_shared_record(rng):
    for name, (problem, run) in _every_solver(
            rng, SolveOptions(max_iters=5)).items():
        meta = run().log.metadata
        assert sorted(meta) == sorted(RECORD_KEYS[name]), name
        assert meta["solver"] == name
        assert (meta["n"], meta["dim"]) == (problem.n, problem.dim), name
        assert meta.get("seed", 0) == 0 and meta["stop"] == "budget"
        assert meta.get("path", "per-term") == "per-term", name
        assert meta.get("sweep", "per-term") == "per-term", name


@pytest.mark.parametrize("name", ["ppg", "sppg", "prox-grad", "admm", "spi",
                                  "finito"])
@pytest.mark.parametrize("bad", ["short", "nan"])
def test_bad_reference_point_named(rng, name, bad):
    problem, run = _every_solver(rng, SolveOptions(max_iters=5))[name]
    if bad == "short":
        x_ref = np.zeros(1)
        message = rf"^x_ref must have shape \({problem.dim},\), got \(1,\)$"
    else:
        x_ref, message = np.full(problem.dim, np.nan), "^x_ref has non-finite"
    with pytest.raises(ValueError, match=message):
        run(x_ref=x_ref)


@pytest.mark.parametrize("name, arg", [("ppg", "warm_start"),
                                       ("sppg", "warm_start"),
                                       ("prox-grad", "x0"), ("spi", "x0")])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nonfinite_start_named(rng, name, arg, value):
    problem, run = _every_solver(rng, SolveOptions(max_iters=5))[name]
    start = np.zeros((problem.n, problem.dim) if arg == "warm_start"
                     else problem.dim)
    start[-1, ...] = value
    with pytest.raises(ValueError, match=f"^{arg} has non-finite entries$"):
        run(**{arg: start})
