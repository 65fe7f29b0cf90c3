"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line.  Tolerances are fixed here, not calibrated at run time.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.
"""

import time
from functools import partial

import numpy as np
import pytest

from conftest import grid_prox_scalar, lasso_problem, make_quadratic_term, \
    simple_problem
from proxsplit.baselines import (DiminishingStep, _spi_step,
                                 consensus_admm_run, finito_run,
                                 proximal_gradient_run,
                                 stochastic_prox_iteration_run)
from proxsplit.core import (ProblemSpec, ProxFn, initial_state,
                            objective, verify_prox_fn, zero_prox)
from proxsplit.ppg import SolveOptions, ppg_run, ppg_step
from proxsplit.problems import SvmData, build_glm, build_group_lasso, \
    build_svm, glm_family, staggered_partition
from proxsplit.prox import (CachedQuadraticProx, hinge_scalar,
                            prox_affine_1d, prox_glm_1d, prox_hinge,
                            prox_pair_diff, prox_pair_sum, prox_quadratic,
                            prox_scaled_sq_norm, prox_sum_coupling,
                            soft_threshold_matrix, soft_threshold_scalar,
                            soft_threshold_vector)
from proxsplit.sppg import IndexSampler, SequenceSampler, sppg_run

_SUITE_T0 = time.perf_counter()


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def group_lasso_desk():
    rng = np.random.default_rng(0)
    m, d, n = 300, 42, 3
    a_mat = rng.standard_normal((m, d))
    support = rng.permutation(d)[:4]
    x_true = np.zeros(d)
    x_true[support] = rng.standard_normal(4)
    b = a_mat @ x_true + 0.1 * rng.standard_normal(m)
    problem = build_group_lasso(a_mat, b, 0.1, staggered_partition(d, n),
                                alpha=1.0)
    ref = ppg_run(problem, SolveOptions(alpha=1.0, max_iters=50000,
                                        record_every=50000, tol=1e-14))
    return problem, ref


@pytest.fixture(scope="module")
def svm_desk():
    rng = np.random.default_rng(0)
    n, d, lam = 8192, 128, 0.1
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    feats = rng.standard_normal((n, d)) + labels[:, None] * u[None, :]
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    data = SvmData(feats, labels, lam=lam)
    problem = build_svm(data)
    ref = ppg_run(problem, SolveOptions(alpha=10.0, max_iters=3000,
                                        record_every=3000, tol=1e-12))
    return data, problem, ref.x


def test_criterion_1_prox_oracle_suite(rng):
    t0 = time.perf_counter()
    n_inputs = 1000
    tol = 1e-6
    failures = []

    def draw(k=1):
        return rng.standard_normal(k) * 2.0

    # the per-term handles that the SVM and GLM builders derive from their
    # structures, on tiny problems: hinge rows, alone and in spi's step
    # with the ridge of r, and logistic rows
    rows, dim, ridge = 6, 3, 0.3
    feats = rng.standard_normal((rows, dim))
    labels = np.where(rng.random(rows) < 0.5, 1.0, -1.0)
    svm_split = build_svm(SvmData(feats, labels, lam=ridge))
    assert svm_split.r.weight == ridge
    responses = rng.uniform(0.0, 1.0, rows)
    glm = build_glm(feats, responses, glm_family("logistic"))

    def along_row(out, f, t_want, x0, shrink):
        """A derived prox output moves x0 along f to f'u = t_want and
        scales the rest of x0 by ``shrink``."""
        q = float(f @ f)
        t_got = float(f @ out)
        perp = (out - (t_got / q) * f) - shrink * (x0 - (float(f @ x0) / q)
                                                   * f)
        return abs(t_got - t_want) <= 1e-5 * q and \
            float(np.linalg.norm(perp)) <= tol

    # scalar-reducible operators checked against the grid oracle
    for _ in range(n_inputs):
        alpha = float(rng.uniform(0.1, 2.0))
        lam = float(rng.uniform(0.0, 2.0))
        x0 = float(draw()[0])
        if abs(soft_threshold_scalar(x0, lam)
               - grid_prox_scalar(np.abs, x0, lam)) > tol:
            failures.append("soft_scalar")
        v = draw(3)
        t_rad = grid_prox_scalar(np.abs, float(np.linalg.norm(v)), lam)
        out = soft_threshold_vector(v, lam)
        want = (t_rad / np.linalg.norm(v)) * v if t_rad > 0 else 0.0 * v
        if np.linalg.norm(out - want) > tol:
            failures.append("soft_vector")
        if abs(prox_scaled_sq_norm(np.array([x0]), lam, alpha)[0]
               - grid_prox_scalar(lambda t: 0.5 * lam * t * t, x0,
                                  alpha)) > tol:
            failures.append("scaled_sq_norm")
        a = draw(3)
        x3 = draw(3)
        y = float(rng.choice([-1.0, 1.0]))
        q = float(a @ a)
        s0 = float(a @ x3)
        t_hinge = grid_prox_scalar(
            lambda s: np.maximum(1.0 - y * s, 0.0), s0, alpha * q)
        if abs(float(a @ prox_hinge(x3, a, y, alpha)) - t_hinge) > 1e-5 * q:
            failures.append("hinge")
        if abs(float(a @ prox_affine_1d(a, hinge_scalar(y), x3, alpha))
               - t_hinge) > 1e-5 * q:
            failures.append("affine_1d")
        ti = float(rng.uniform(-1, 1))
        t_glm = grid_prox_scalar(
            lambda s: np.logaddexp(0.0, s) - ti * s, s0, alpha * q)
        if abs(float(a @ prox_glm_1d(x3, a, ti, glm_family("logistic"),
                                     alpha)) - t_glm) > 1e-5 * q:
            failures.append("glm")
        i = int(rng.integers(rows))
        f, yi = feats[i], labels[i]
        q = float(f @ f)
        s0 = float(f @ x3)
        hinge_i = lambda s: np.maximum(1.0 - yi * s, 0.0)
        if not along_row(svm_split.g[i].prox(x3, alpha), f,
                         grid_prox_scalar(hinge_i, s0, alpha * q), x3, 1.0):
            failures.append("svm_split_term")
        # spi's step on the term with the ridge of r: f'u solves the
        # scalar prox of h(t) + ridge t^2/(2q) at step alpha*q, and the
        # rest of x0 shrinks
        t_ridge = grid_prox_scalar(
            lambda s: hinge_i(s) + ridge * s * s / (2.0 * q), s0, alpha * q)
        if not along_row(_spi_step(svm_split.g[i].prox, x3, alpha, ridge),
                         f, t_ridge, x3, 1.0 / (1.0 + alpha * ridge)):
            failures.append("svm_spi_step")
        t_logit = grid_prox_scalar(
            lambda s: np.logaddexp(0.0, s) - responses[i] * s, s0, alpha * q)
        if not along_row(glm.g[i].prox(x3, alpha), f, t_logit, x3, 1.0):
            failures.append("glm_term")
        x2 = draw(1)
        y2 = draw(1)
        lamp = float(rng.uniform(0.1, 1.5))
        fabs = ProxFn(prox=lambda v0, t: soft_threshold_scalar(v0, t * lamp),
                      value=lambda v0: lamp * float(np.abs(v0).sum()))
        u_o, v_o = prox_pair_diff(fabs, x2, y2, alpha)
        s_or = grid_prox_scalar(lambda s: lamp * np.abs(s),
                                float(x2[0] - y2[0]), 2.0 * alpha)
        if abs(float(u_o[0] - v_o[0]) - s_or) > tol or \
                abs(float(u_o[0] + v_o[0]) - float(x2[0] + y2[0])) > tol:
            failures.append("pair_diff")
        u_s, v_s = prox_pair_sum(fabs, x2, y2, alpha)
        s_sum = grid_prox_scalar(lambda s: lamp * np.abs(s),
                                 float(x2[0] + y2[0]), 2.0 * alpha)
        if abs(float(u_s[0] + v_s[0]) - s_sum) > tol or \
                abs(float(u_s[0] - v_s[0]) - float(x2[0] - y2[0])) > tol:
            failures.append("pair_sum")
    oracle_failures = sorted(set(failures))

    # firm nonexpansiveness for every operator, 1000 pairs each
    quad_a = rng.standard_normal((6, 5))
    quad_b = rng.standard_normal(6)
    a5 = rng.standard_normal(5)
    xi5 = rng.standard_normal(5)
    fabs5 = ProxFn(prox=lambda v0, t: soft_threshold_scalar(v0, t * 1.3))
    zoo = {
        "soft_scalar": (5, lambda x0, t: soft_threshold_scalar(x0, 0.7 * t)),
        "soft_vector": (5, lambda x0, t: soft_threshold_vector(x0, 1.3 * t)),
        "soft_matrix": (15, lambda x0, t: soft_threshold_matrix(
            x0.reshape(5, 3), 0.9 * t).ravel()),
        "interval": (5, lambda x0, t: np.clip(x0, -0.5, 1.5)),
        "affine_1d": (5, lambda x0, t: prox_affine_1d(
            a5, hinge_scalar(1.0), x0, t)),
        "sum_coupling": (15, lambda x0, t: prox_sum_coupling(
            np.array([1.0, -2.0, 0.5]), fabs5, x0.reshape(3, 5), t).ravel()),
        "pair_sum": (10, lambda x0, t: np.concatenate(
            prox_pair_sum(fabs5, x0[:5], x0[5:], t))),
        "pair_diff": (10, lambda x0, t: np.concatenate(
            prox_pair_diff(fabs5, x0[:5], x0[5:], t))),
        "hinge": (5, lambda x0, t: prox_hinge(x0, a5, -1.0, t)),
        "scaled_sq_norm": (5, lambda x0, t: prox_scaled_sq_norm(x0, 0.8, t)),
        "quadratic": (5, lambda x0, t: prox_quadratic(
            CachedQuadraticProx.from_data(quad_a, quad_b, t), x0)),
        "glm": (5, lambda x0, t: prox_glm_1d(
            x0, xi5, 0.4, glm_family("logistic"), t)),
        "svm_split_term": (dim, svm_split.g[1].prox),
        "svm_spi_step": (dim, partial(_spi_step, svm_split.g[1].prox,
                                      weight=ridge)),
        "glm_term": (dim, glm.g[1].prox),
    }
    ne_failures = []
    for name, (dim, fn) in zoo.items():
        try:
            verify_prox_fn(ProxFn(prox=fn), dim, rng, n_pairs=1000,
                           slack=1e-10)
        except AssertionError:
            ne_failures.append(name)
    elapsed = time.perf_counter() - t0
    ok = not oracle_failures and not ne_failures and elapsed < 30.0
    _report(1, ok,
            f"prox oracle suite: oracle failures {oracle_failures or 'none'},"
            f" nonexpansiveness failures {ne_failures or 'none'},"
            f" runtime {elapsed:.1f}s (< 30s)")


def test_criterion_2_reduction_equivalences(rng):
    tol = 1e-12
    # full solver vs forward-backward when every g is zero
    problem = lasso_problem(rng, m=6, d=5, lam=0.2)
    alpha = 0.4 / problem.lipschitz_bound()
    worst_fb = 0.0
    for k in range(1, 51):
        opts = SolveOptions(alpha=alpha, max_iters=k, record_every=k)
        xa = ppg_run(problem, opts).x
        xb = proximal_gradient_run(problem, opts).x
        worst_fb = max(worst_fb, float(np.max(np.abs(xa - xb))))
    # stochastic solver vs the incremental-gradient table method
    rows = [make_quadratic_term(rng.standard_normal(4),
                                float(rng.standard_normal()))
            for _ in range(5)]
    smooth = simple_problem([], dim=4, terms_f=rows)
    alpha_s = 0.5 / smooth.lipschitz_bound()
    idx = list(np.random.default_rng(2).integers(0, 5, size=50))
    worst_fin = 0.0
    for k in range(1, 51):
        opts = SolveOptions(alpha=alpha_s, max_iters=k, record_every=k)
        za = sppg_run(smooth, opts, SequenceSampler(idx[:k])).state.z
        zb = finito_run(smooth, SequenceSampler(idx[:k]), opts).state.z
        worst_fin = max(worst_fin, float(np.max(np.abs(za - zb))))
    # stochastic solver vs full solver when n = 1
    single = lasso_problem(rng, m=1, d=4)
    alpha_1 = 0.3 / single.lipschitz_bound()
    worst_n1 = 0.0
    for k in (1, 10, 25, 50):
        opts = SolveOptions(alpha=alpha_1, max_iters=k, record_every=k)
        xa = sppg_run(single, opts, IndexSampler(0, 1)).x
        xb = ppg_run(single, opts).x
        worst_n1 = max(worst_n1, float(np.max(np.abs(xa - xb))))
    ok = worst_fb <= tol and worst_fin <= tol and worst_n1 <= tol
    _report(2, ok,
            f"reduction equivalences over 50 iterates: forward-backward "
            f"{worst_fb:.2e}, incremental-table {worst_fin:.2e}, "
            f"n=1 {worst_n1:.2e} (tol {tol})")


def test_criterion_3_monotone_residual(group_lasso_desk, svm_desk):
    problem_gl, _ = group_lasso_desk
    _, problem_svm, _ = svm_desk
    results = {}
    for name, problem, alpha in (("group-lasso", problem_gl, 1.0),
                                 ("svm", problem_svm, 10.0)):
        res = ppg_run(problem, SolveOptions(alpha=alpha, max_iters=2000,
                                            record_every=1))
        r = np.array([row.residual_norm for row in res.log.rows])
        results[name] = int(np.sum(r[1:] > r[:-1] + 1e-12))
    ok = all(v == 0 for v in results.values())
    _report(3, ok, f"monotone residual violations over k<=2000: {results}")


def test_criterion_4_fejer_monotonicity(group_lasso_desk):
    problem, ref = group_lasso_desk
    z_star = ref.state.z
    state = initial_state(problem, 1.0)
    prev = np.linalg.norm(state.z - z_star)
    violations = 0
    worst = 0.0
    for _ in range(2000):
        ppg_step(state, problem)
        cur = np.linalg.norm(state.z - z_star)
        if cur > prev + 1e-10:
            violations += 1
            worst = max(worst, cur - prev)
        prev = cur
    ok = violations == 0
    _report(4, ok, f"distance to the reference fixed point nonincreasing "
                   f"over 2000 iterations: {violations} violations "
                   f"(worst +{worst:.1e})")


def test_criterion_5_rate_envelope(group_lasso_desk):
    problem_gl, _ = group_lasso_desk

    def stat_ratio(sq_resids):
        ks = np.arange(len(sq_resids))
        stat = ks * np.minimum.accumulate(sq_resids)
        window = stat[100:2001]
        return float(window.max() / window[0])

    res_p = ppg_run(problem_gl, SolveOptions(alpha=1.0, max_iters=2000,
                                             record_every=1))
    ratio_pg = stat_ratio(np.array([r.residual_norm
                                    for r in res_p.log.rows]) ** 2)
    acc = None
    for seed in range(10):
        res_s = sppg_run(problem_gl,
                         SolveOptions(alpha=1.0, max_iters=2000,
                                      record_every=1),
                         IndexSampler(seed, problem_gl.n))
        sq = np.array([r.residual_norm for r in res_s.log.rows]) ** 2
        acc = sq if acc is None else acc + sq
    ratio_s = stat_ratio(acc / 10.0)
    ok = ratio_pg <= 3.0 and ratio_s <= 3.0
    _report(5, ok,
            f"k * min residual^2 stays within 3x of its k=100 value on the "
            f"desk instance: full-sweep {ratio_pg:.2f}, stochastic 10-seed "
            f"mean {ratio_s:.2f}")


def test_criterion_6_linear_convergence():
    rng = np.random.default_rng(3)
    n, d, mu = 12, 10, 0.02
    a_mat = rng.standard_normal((n, d)) * 0.3
    y = rng.standard_normal(n)
    fs = tuple(make_quadratic_term(a_mat[i], y[i]) for i in range(n))
    r = ProxFn(prox=lambda x0, t: prox_scaled_sq_norm(x0, mu, t),
               value=lambda x: 0.5 * mu * float(x @ x))
    problem = ProblemSpec(dim=d, r=r, f=fs,
                          g=tuple(zero_prox() for _ in range(n)))
    alpha = 1.0 / problem.lipschitz_bound()
    ref = ppg_run(problem, SolveOptions(alpha=alpha, max_iters=60000,
                                        record_every=60000))
    z_star = ref.state.z
    state = initial_state(problem, alpha)
    dists = []
    for _ in range(1000):
        ppg_step(state, problem)
        dists.append(np.linalg.norm(state.z - z_star))
    dists = np.array(dists)
    ratios = dists[100:1000] / dists[99:999]
    frac = float(np.mean(ratios <= 0.999))
    ks = np.arange(100, 1000)
    logd = np.log(dists[100:1000])
    coef = np.polyfit(ks, logd, 1)
    pred = np.polyval(coef, ks)
    r2 = 1.0 - float(np.sum((logd - pred) ** 2)
                     / np.sum((logd - logd.mean()) ** 2))
    ok = frac >= 0.95 and r2 >= 0.98
    _report(6, ok,
            f"strongly convex tail: contraction ratio <= 0.999 on "
            f"{100 * frac:.1f}% of k in [100,1000) (need 95%), log-error "
            f"line fit R^2 = {r2:.4f} (need 0.98), rate ~ "
            f"{np.exp(coef[0]):.5f}")


def test_criterion_7_group_lasso_experiment(group_lasso_desk):
    problem, ref = group_lasso_desk
    x_star = ref.x
    details = {}
    ok = True
    for name, runner in (("ppg", lambda: ppg_run(
            problem, SolveOptions(alpha=1.0, max_iters=5000, record_every=1),
            x_ref=x_star)),
            ("admm", lambda: consensus_admm_run(
                problem, SolveOptions(alpha=1.0, max_iters=5000,
                                      record_every=1), x_ref=x_star))):
        res = runner()
        d2 = np.array([r.dist_to_ref for r in res.log.rows]) ** 2
        reached = d2 <= 1e-10
        hit = int(np.argmax(reached)) if reached.any() else None
        burn = 100
        viol = int(np.sum(d2[burn + 1:] > d2[burn:-1] * (1 + 1e-9) + 1e-18))
        details[name] = (hit, viol)
        ok = ok and hit is not None and hit <= 5000 and viol == 0
    _report(7, ok,
            "group lasso m=300/d=42/n=3: squared distance reaches 1e-10 at "
            f"iteration {details['ppg'][0]} (full sweep) / "
            f"{details['admm'][0]} (consensus), post-burn-in monotonicity "
            f"violations {details['ppg'][1]}/{details['admm'][1]}")


def test_criterion_8_svm_experiment(svm_desk):
    data, problem, x_star = svm_desk
    n = problem.n
    epochs = 30
    alpha = 10.0
    res_p = ppg_run(problem, SolveOptions(alpha=alpha, max_iters=epochs))
    obj_p = objective(res_p.x, problem)
    sppg_errs = []
    obj_s_first = None
    for seed in range(10):
        res_s = sppg_run(problem,
                         SolveOptions(alpha=alpha, max_iters=epochs * n,
                                      record_every=epochs * n),
                         IndexSampler(seed, n))
        sppg_errs.append(float(np.sum((res_s.x - x_star) ** 2)))
        if obj_s_first is None:
            obj_s_first = objective(res_s.x, problem)
    parity = abs(obj_s_first - obj_p) / abs(obj_p)
    spi_means = {}
    for c in (1.0, 4.0, 16.0, 64.0, 256.0):
        errs = []
        for seed in range(10):
            res = stochastic_prox_iteration_run(
                problem, DiminishingStep(c), IndexSampler(seed, n),
                SolveOptions(max_iters=epochs * n, record_every=epochs * n))
            errs.append(float(np.sum((res.x - x_star) ** 2)))
        spi_means[c] = float(np.mean(errs))
    spi_best = min(spi_means.values())
    sppg_mean = float(np.mean(sppg_errs))
    ok = parity <= 1e-3 and spi_best > sppg_mean
    _report(8, ok,
            f"svm n=8192/d=128/lam=0.1, 30 epochs: objective parity "
            f"{parity:.2e} (need <= 1e-3); diminishing-step best error "
            f"{spi_best:.2e} vs constant-step stochastic error "
            f"{sppg_mean:.2e} over 10 seeds (must be larger)")


def test_criterion_9_determinism(tmp_path):
    from proxsplit.cli import main
    out = tmp_path / "prob"
    assert main(["gen", "group-lasso", "--out", str(out), "--seed", "0",
                 "--m", "300", "--d", "42", "--n", "3"]) == 0
    prob = str(out / "problem.json")
    blobs = []
    for rep in range(2):
        metrics = tmp_path / f"p{rep}.csv"
        code = main(["solve", "--problem", prob, "--algo", "ppg",
                     "--max-iters", "200", "--metrics", str(metrics)])
        assert code == 0
        blobs.append(metrics.read_bytes())
    sppg_blobs = []
    for rep in range(2):
        metrics = tmp_path / f"s{rep}.csv"
        code = main(["solve", "--problem", prob, "--algo", "sppg",
                     "--seed", "11", "--max-iters", "600",
                     "--metrics", str(metrics)])
        assert code == 0
        sppg_blobs.append(metrics.read_bytes())
    ok = blobs[0] == blobs[1] and sppg_blobs[0] == sppg_blobs[1]
    _report(9, ok,
            "metrics byte-identical across two reruns of the same ppg "
            "command and of the same sppg command with a fixed seed")


def test_desk_instance_residual_floor(group_lasso_desk):
    # supporting check: 2000 full sweeps on the desk instance reach the
    # 1e-8 residual floor established by the long reference run
    problem, _ = group_lasso_desk
    res = ppg_run(problem, SolveOptions(alpha=1.0, max_iters=2000,
                                        record_every=2000))
    assert res.log.rows[-1].residual_norm <= 1e-8


def test_desk_instance_objective_gap(group_lasso_desk):
    # supporting check: the split-point objective gap at k=1000 vs the
    # consensus reference objective is below 1e-6 in magnitude
    from proxsplit.core import objective_gap, residual_map
    problem, _ = group_lasso_desk
    admm_ref = consensus_admm_run(problem, SolveOptions(
        alpha=1.0, max_iters=10000, record_every=10000))
    ref_obj = objective(admm_ref.x, problem)
    state = initial_state(problem, 1.0)
    for _ in range(1000):
        ppg_step(state, problem)
    _, x_half, x_terms = residual_map(state, problem)
    gap = objective_gap(x_half, x_terms, ref_obj, problem)
    assert abs(gap) <= 1e-6


def test_acceptance_runtime_budget():
    elapsed = time.perf_counter() - _SUITE_T0
    ok = elapsed <= 300.0
    print(f"ACCEPTANCE runtime: {'PASS' if ok else 'FAIL'} - suite took "
          f"{elapsed:.0f}s (budget 300s)")
    assert ok
