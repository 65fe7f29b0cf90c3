"""Agreement between the blocked numpy kernels and the generic per-term
path they bypass."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import abs_prox_fn, tiny_glm, tiny_svm
from proxsplit import kernels
from proxsplit.baselines import (DiminishingStep, consensus_admm_run,
                                 stochastic_prox_iteration_run)
from proxsplit.core import (ConvergenceError, NumericalError, ProblemSpec,
                            RidgeProx, SmoothFn, initial_state, objective,
                            ridge_prox, zero_prox, zero_smooth)
from proxsplit.ppg import SolveOptions, ppg_run
from proxsplit.problems import SvmData, build_glm, build_svm, glm_family
from proxsplit.sppg import (IndexSampler, SequenceSampler, _advance_one,
                            sppg_run, sppg_step)


def _rel(a, b):
    """||a - b|| / ||b||, or ||a|| when b is zero."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.linalg.norm(b)
    return np.linalg.norm(a - b) / (scale if scale else 1.0)


def _row_values(res):
    return [[r.residual_norm, r.objective] for r in res.log.rows]


def _counting(monkeypatch, name):
    """Record the steps taken by each call of ``kernels.<name>``."""
    calls = []
    fn = getattr(kernels, name)

    def counted(*args, **kwargs):
        calls.append(len(args[4]))
        return fn(*args, **kwargs)

    monkeypatch.setattr(kernels, name, counted)
    return calls


def _sppg_pair(monkeypatch, problem, sampler, iters, record_every,
               ergodic=False, warm_start=None):
    """sppg through the numpy rank-one kernel against the same problem
    without its structure hint: the kernel takes every step, and z, x, the
    recorded rows and the ergodic average agree to 1e-12 relative."""
    opts = SolveOptions(alpha=1.0, max_iters=iters, record_every=record_every,
                        ergodic=ergodic)
    calls = _counting(monkeypatch, "rank_one_sppg_block")
    fast = sppg_run(problem, opts, sampler(), warm_start=warm_start)
    assert sum(calls) == iters
    generic = sppg_run(dataclasses.replace(problem, structure=None),
                       opts, sampler(), warm_start=warm_start)
    assert sum(calls) == iters
    assert fast.log.metadata["path"] == "kernel"
    assert generic.log.metadata["path"] == "per-term"
    assert len(fast.log.rows) == len(generic.log.rows)
    assert _rel(fast.state.z, generic.state.z) <= 1e-12
    assert _rel(fast.x, generic.x) <= 1e-12
    assert _rel(_row_values(fast), _row_values(generic)) <= 1e-12
    if ergodic:
        assert _rel(fast.ergodic, generic.ergodic) <= 1e-12
    else:
        assert fast.ergodic is None and generic.ergodic is None
    return fast


def _spi_pair(monkeypatch, problem, record_every):
    """spi through the rank-one kernel against the same problem without its
    structure hint or batched prox: the kernel takes every step, which is
    the per-term step g_i.prox(shr x, a_k shr) in the same arithmetic, so x
    agrees bitwise; the recorded rows, whose probes take s = f_i'v by a
    batched or a per-row product, agree to 1e-12 relative."""
    n = problem.n
    opts = SolveOptions(max_iters=10 * n + 3, record_every=record_every)

    def run(p):
        return stochastic_prox_iteration_run(
            p, DiminishingStep(2.0), IndexSampler(5, n), opts)

    calls = _counting(monkeypatch, "rank_one_spi_block")
    fast = run(problem)
    assert sum(calls) == opts.max_iters
    generic = run(dataclasses.replace(problem, structure=None,
                                      batched_g_prox=None))
    assert sum(calls) == opts.max_iters
    assert fast.log.metadata["path"] == "kernel"
    assert generic.log.metadata["path"] == "per-term"
    assert fast.x.tobytes() == generic.x.tobytes()
    assert _rel(_row_values(fast), _row_values(generic)) <= 1e-12


# epochs of 48 steps, so blocks outrun a 32-row run; repeats fall inside
# runs (5 after 0..19, 30 twice in a row) and straddle them
_REPEATS = np.concatenate([
    np.arange(20), [5], np.arange(20, 48), [30, 30],
    np.random.default_rng(2).integers(0, 48, 5 * 48),
    np.random.default_rng(3).permutation(48)])


def _nonfinite_row_case(problem, bad, generic_error):
    """Term ``bad`` is step 40 of a 64-step block, in the second 32-row
    run.  The kernel raises :class:`NumericalError` naming it with the 40
    steps before it applied, as the generic path applied them before
    raising ``generic_error``; a run's first probe already meets the row,
    on either path."""
    n = problem.n
    seq = np.random.default_rng(5).permutation(
        np.setdiff1d(np.arange(n), [bad]))[:63]
    seq = np.insert(seq, 40, bad)
    generic = dataclasses.replace(problem, structure=None)
    ref = initial_state(generic, 1.0)
    with pytest.raises(generic_error, match=rf"\(term {bad}\)"):
        for i in seq:
            _advance_one(ref, generic, int(i))
    assert ref.k == 40
    state = initial_state(problem, 1.0)
    with pytest.raises(NumericalError,
                       match=rf"prox of g \(term {bad}\)$"):
        kernels.rank_one_sppg_block(state.z, state.zbar, problem.structure,
                                    1.0, seq, kernels.ridge_weight(problem.r))
    assert _rel(state.z, ref.z) <= 1e-12
    assert _rel(state.zbar, ref.zbar) <= 1e-12
    for p in (problem, generic):
        with pytest.raises(NumericalError, match=rf"\(term {bad}\)"):
            sppg_run(p, SolveOptions(alpha=1.0, max_iters=64),
                     SequenceSampler(seq))


class TestNumpyHingeAgreement:
    """The numpy hinge twins against the per-term handles they bypass."""

    @pytest.mark.parametrize("record_every", [None, 1, 7])
    @pytest.mark.parametrize("n", [1, 2, 5, 48, 300])
    def test_sppg_matches_generic_path(self, monkeypatch, n, record_every):
        problem = tiny_svm(np.random.default_rng(n), n=n, d=4)
        iters = 6 * n + 5
        _sppg_pair(monkeypatch, problem, lambda: IndexSampler(11, n), iters,
                   record_every)

    @pytest.mark.parametrize("record_every", [None, 7])
    def test_sppg_sequence_with_repeats_and_long_blocks(self, monkeypatch,
                                                        record_every):
        problem = tiny_svm(np.random.default_rng(4), n=48, d=5)
        res = _sppg_pair(monkeypatch, problem,
                         lambda: SequenceSampler(_REPEATS), _REPEATS.size,
                         record_every)
        assert res.state.k == _REPEATS.size

    @pytest.mark.parametrize("record_every", [None, 7])
    @pytest.mark.parametrize("n", [1, 5, 48])
    def test_spi_matches_per_term_prox(self, monkeypatch, n, record_every):
        _spi_pair(monkeypatch, tiny_svm(np.random.default_rng(n), n=n, d=4),
                  record_every)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_row_inside_a_run(self):
        n, d, bad = 80, 5, 7
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((n, d))
        feats[bad] = np.inf
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        _nonfinite_row_case(build_svm(SvmData(feats, labels, lam=0.1)), bad,
                            NumericalError)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_spi_nonfinite_row(self):
        # the kernel path's first probe names the row, as the per-term
        # path's does, and neither path warns first
        n, d, bad = 40, 5, 7
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((n, d))
        feats[bad] = np.inf
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        problem = build_svm(SvmData(feats, labels, lam=0.1))
        for p in (problem, dataclasses.replace(problem, structure=None)):
            with pytest.raises(NumericalError,
                               match=rf"prox of g \(term {bad}\)"):
                stochastic_prox_iteration_run(
                    p, DiminishingStep(2.0), IndexSampler(5, n),
                    SolveOptions(max_iters=10 * n))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_spi_kernel_stops_at_a_nonfinite_row(self):
        # called directly, with no probe to meet the row first: the step on
        # it raises, and x keeps the steps before it
        feats = np.random.default_rng(7).standard_normal((8, 3))
        feats[3] = np.nan
        struct = kernels.HingeStructure(features=feats, labels=np.ones(8))
        seq = np.array([0, 5, 1, 3, 2])
        x, want = np.zeros(3), np.zeros(3)
        kernels.rank_one_spi_block(want, struct, 2.0, 4, seq[:3], 0.1)
        with pytest.raises(NumericalError,
                           match=r"^non-finite values from prox of g "
                                 r"\(term 3\)$"):
            kernels.rank_one_spi_block(x, struct, 2.0, 4, seq, 0.1)
        assert np.any(want) and x.tobytes() == want.tobytes()

    def test_zero_row_is_reported(self):
        # SvmData rejects zero rows; a hand-built structure divides by zero
        feats = np.random.default_rng(6).standard_normal((40, 3))
        feats[9] = 0.0
        struct = kernels.HingeStructure(features=feats, labels=np.ones(40))
        z, zbar = np.zeros((40, 3)), np.zeros(3)
        with pytest.raises(NumericalError, match=r"\(term 9\)$"):
            kernels.rank_one_sppg_block(z, zbar, struct, 1.0,
                                        np.roll(np.arange(40), -3), 0.1)
        # the six steps before row 9 are applied, and none from it on
        assert np.all(np.any(z[3:9] != 0.0, axis=1))
        assert not np.any(z[:3]) and not np.any(z[9:])
        assert _rel(zbar, z.mean(axis=0)) <= 1e-12


@pytest.mark.parametrize("kernel", ["sppg", "spi"])
def test_kernels_hold_no_list_of_the_drawn_block(kernel):
    # an svm-desk epoch is one block of 8192 steps; the kernels take its
    # indices, squared norms and constants into Python lists one run
    # window (sppg) or ROW_CHUNK steps (spi) at a time, not all at once.
    # Whole-block lists of 20000 steps peaked at 0.75 MB (sppg) and
    # 1.9 MB (spi), over the 0.16 MB of the indices themselves; a longer
    # block only costs time, which tracemalloc multiplies by 10 to 25
    import tracemalloc
    from conftest import tiny_svm
    rng = np.random.default_rng(0)
    problem = tiny_svm(rng, n=1000, d=3)
    struct = problem.structure
    idx = rng.integers(0, problem.n, 20_000)
    z, zbar, x = np.zeros((problem.n, problem.dim)), np.zeros(3), np.zeros(3)
    tracemalloc.start()
    try:
        if kernel == "sppg":
            kernels.rank_one_sppg_block(z, zbar, struct, 1.0, idx,
                                        problem.r.weight)
        else:
            kernels.rank_one_spi_block(x, struct, 1.0, 0, idx,
                                       problem.r.weight)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < idx.nbytes


def _rank_one_problem(kind, seed, n, d):
    rng = np.random.default_rng(seed)
    return (tiny_svm(rng, n=n, d=d) if kind == "svm"
            else tiny_glm(rng, kind, n=n, d=d))


_KINDS = ["svm", "logistic", "poisson", "gaussian"]


class TestErgodicOnTheKernel:
    """Ergodic sppg on the split SVM and the GLMs takes every step on the
    rank-one kernel, whose prox-r points sum to the per-term path's
    ergodic average."""

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("record_every", [None, 1, 7])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_matches_per_term_path(self, monkeypatch, kind, record_every,
                                   warm):
        # 6n + 5 steps: the budget ends mid-epoch
        n, d = 48, 5
        z0 = np.random.default_rng(9).standard_normal((n, d)) if warm \
            else None
        _sppg_pair(monkeypatch, _rank_one_problem(kind, n, n, d),
                   lambda: IndexSampler(11, n), 6 * n + 5, record_every,
                   ergodic=True, warm_start=z0)

    @pytest.mark.parametrize("record_every", [None, 7])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_repeated_indices(self, monkeypatch, kind, record_every):
        res = _sppg_pair(monkeypatch, _rank_one_problem(kind, 4, 48, 5),
                         lambda: SequenceSampler(_REPEATS), _REPEATS.size,
                         record_every, ergodic=True)
        assert res.state.k == _REPEATS.size

    def test_average_counts_every_step(self):
        # n=1: every step's prox-r point is the full sweep's, so the
        # kernel's average is ppg's over the same number of iterations
        problem = _rank_one_problem("svm", 2, 1, 4)
        opts = SolveOptions(alpha=1.0, max_iters=25, ergodic=True)
        res_s = sppg_run(problem, opts, IndexSampler(0, 1))
        assert res_s.log.metadata["path"] == "kernel"
        res_p = ppg_run(problem, opts)
        assert _rel(res_s.ergodic, res_p.ergodic) <= 1e-12


class TestNumpyGlmAgreement:
    """The rank-one kernel on GLM rows against the per-term prox."""

    @pytest.mark.parametrize("record_every", [None, 1, 7])
    @pytest.mark.parametrize("n", [1, 2, 5, 48, 300])
    @pytest.mark.parametrize("family", ["logistic", "poisson", "gaussian"])
    def test_sppg_matches_generic_path(self, monkeypatch, family, n,
                                       record_every):
        problem = tiny_glm(np.random.default_rng(n), family, n=n, d=4)
        iters = 6 * n + 5
        _sppg_pair(monkeypatch, problem, lambda: IndexSampler(11, n), iters,
                   record_every)

    @pytest.mark.parametrize("record_every", [None, 7])
    @pytest.mark.parametrize("family", ["logistic", "poisson", "gaussian"])
    def test_sppg_sequence_with_repeats_and_zero_row(self, monkeypatch,
                                                     family, record_every):
        # row 5, which repeats inside a run, is all zeros: its term is
        # constant and its steps leave the point where it is
        rows = tiny_glm(np.random.default_rng(4), family, n=48, d=5).structure
        x_mat = rows.features.copy()
        x_mat[5] = 0.0
        problem = build_glm(x_mat, rows.responses, glm_family(family))
        res = _sppg_pair(monkeypatch, problem,
                         lambda: SequenceSampler(_REPEATS), _REPEATS.size,
                         record_every)
        assert res.state.k == _REPEATS.size

    @pytest.mark.parametrize("record_every", [None, 7])
    @pytest.mark.parametrize("n", [1, 5, 48])
    @pytest.mark.parametrize("family", ["logistic", "poisson", "gaussian"])
    def test_spi_matches_per_term_prox(self, monkeypatch, family, n,
                                       record_every):
        _spi_pair(monkeypatch, tiny_glm(np.random.default_rng(n), family,
                                        n=n, d=4), record_every)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_response_inside_a_run(self):
        n, bad = 80, 7
        rows = tiny_glm(np.random.default_rng(0), "logistic", n=n,
                        d=5).structure
        t_vec = rows.responses.copy()
        t_vec[bad] = np.inf
        problem = build_glm(rows.features, t_vec, glm_family("logistic"))
        # one rule on both paths: the per-term prox and the kernel both
        # report the step as non-finite
        _nonfinite_row_case(problem, bad, NumericalError)

    def test_root_failure_names_the_term(self, monkeypatch):
        # a ConvergenceError from the per-row root gets the term index on
        # the sppg and spi kernels, as _call_term appends it per term
        problem = tiny_glm(np.random.default_rng(1), "logistic", n=16, d=3)

        def fails(*args):
            raise ConvergenceError("1-D prox root exceeded 200 steps")

        monkeypatch.setattr(kernels, "glm_root", fails)
        seq = np.array([4, 9, 2])
        state = initial_state(problem, 1.0)
        with pytest.raises(ConvergenceError, match=r"steps \(term 4\)$"):
            kernels.rank_one_sppg_block(state.z, state.zbar,
                                        problem.structure, 1.0, seq, 0.0)
        with pytest.raises(ConvergenceError, match=r"steps \(term 4\)$"):
            kernels.rank_one_spi_block(np.zeros(3), problem.structure, 2.0,
                                       0, seq, 0.0)


def _with_smooth_term(problem):
    """``problem`` with a nonzero f_0 swapped in."""
    f = list(problem.f)
    f[0] = SmoothFn(value=lambda x: 0.5 * float(x @ x),
                    gradient=lambda x: x, lipschitz=1.0)
    return dataclasses.replace(problem, f=tuple(f))


def _svm_without_ridge(rng):
    """Hinge rows with r zero: the SVM's terms and no ridge."""
    rows = tiny_svm(rng, n=12, d=3).structure
    return kernels.rank_one_problem(rows, zero_prox(), "svm")


def _l1(problem):
    """``problem`` with r = 0.05 ||x||_1, which no kernel but ppg's
    models."""
    return dataclasses.replace(problem, r=abs_prox_fn(weight=0.05))


# problem, whether RankOnePpg serves it, and whether the stepping kernels
# (sppg and spi) serve it: the two rules of kernels.rank_one_rows
_RULE_TABLE = {
    "split-svm": (lambda rng: tiny_svm(rng), True, True),
    "gaussian": (lambda rng: tiny_glm(rng, "gaussian"), True, True),
    "logistic": (lambda rng: tiny_glm(rng, "logistic"), True, True),
    "poisson": (lambda rng: tiny_glm(rng, "poisson"), True, True),
    "split-svm-smooth-f": (lambda rng: _with_smooth_term(tiny_svm(rng)),
                           False, False),
    "no-structure": (lambda rng: dataclasses.replace(
        tiny_svm(rng), structure=None), False, False),
    # a zero r is a ridge of weight 0, which the stepping kernels model too
    "svm-zero-r": (_svm_without_ridge, True, True),
    # ppg takes the prox of any r; sppg and spi model only a zero or ridge r
    "split-svm-l1-r": (lambda rng: _l1(tiny_svm(rng)), True, False),
    "logistic-l1-r": (lambda rng: _l1(tiny_glm(rng, "logistic")), True,
                      False),
}


def _generic(problem):
    """``problem`` with its structure and batched hooks removed."""
    return dataclasses.replace(problem, structure=None, batched_g_prox=None,
                               batched_objective=None)


class TestKernelRule:
    """kernels.rank_one_rows is the one rule for which problems each
    rank-one kernel serves."""

    @pytest.mark.parametrize("name", sorted(_RULE_TABLE))
    def test_rule_table(self, rng, name):
        make, ppg_served, stepping_served = _RULE_TABLE[name]
        problem = make(rng)
        for kernel, served in (("ppg", ppg_served), ("sppg", stepping_served),
                               ("spi", stepping_served)):
            got = kernels.rank_one_rows(problem, kernel)
            assert got is (problem.structure if served else None)

    @pytest.mark.parametrize("name", ["split-svm-l1-r", "logistic-l1-r"])
    def test_new_r_matches_the_generic_run(self, rng, name):
        # ppg and sppg on these problems give what the same problem gives
        # with its structure and batched hooks removed
        make, ppg_served, _ = _RULE_TABLE[name]
        problem = make(rng)
        opts = SolveOptions(alpha=0.5, max_iters=40, record_every=3)
        ppg_path = "rank-one" if ppg_served else "batched"
        for run, key, path in (
                (lambda p: ppg_run(p, opts), "sweep", ppg_path),
                (lambda p: sppg_run(p, opts, IndexSampler(4, problem.n)),
                 "path", "per-term")):
            fast, ref = run(problem), run(_generic(problem))
            assert fast.log.metadata[key] == path
            assert _rel(fast.x, ref.x) <= 1e-12
            assert _rel(fast.state.z, ref.state.z) <= 1e-12
            assert _rel(_row_values(fast), _row_values(ref)) <= 1e-12

    def test_svm_with_zero_r_runs_both_kernels(self, monkeypatch, rng):
        problem = _svm_without_ridge(rng)
        calls = _counting(monkeypatch, "rank_one_sppg_block")
        res = sppg_run(problem, SolveOptions(alpha=1.0, max_iters=24),
                       IndexSampler(3, 12))
        assert sum(calls) == 24 and res.log.metadata["path"] == "kernel"
        _spi_pair(monkeypatch, problem, None)

    @pytest.mark.parametrize("kind", _KINDS)
    def test_single_step_takes_the_kernel(self, monkeypatch, kind):
        # sppg_step follows the problem as sppg_run does; it used to take
        # every step through the per-term handles
        problem = _rank_one_problem(kind, 4, 12, 3)
        calls = _counting(monkeypatch, "rank_one_sppg_block")
        state, ref = initial_state(problem, 1.0), initial_state(problem, 1.0)
        sampler, draws = IndexSampler(8, 12), IndexSampler(8, 12)
        for _ in range(400):
            sppg_step(state, problem, sampler)
            _advance_one(ref, problem, int(draws.take(1)[0]))
        assert calls == [1] * 400 and state.k == ref.k == 400
        assert _rel(state.z, ref.z) <= 1e-12
        assert _rel(state.zbar, ref.zbar) <= 1e-12


@pytest.mark.parametrize("kind", ["svm", "logistic"])
def test_row_norms_derived_from_features(rng, kind):
    problem = tiny_glm(rng, kind) if kind == "logistic" else tiny_svm(rng)
    rows = problem.structure
    assert np.array_equal(rows.sqnorms,
                          np.einsum("ij,ij->i", rows.features, rows.features))
    with pytest.raises(TypeError, match="sqnorms"):
        type(rows)(**{f.name: getattr(rows, f.name)
                      for f in dataclasses.fields(rows)})


def test_split_ridge_is_stated_only_in_r(rng):
    split = tiny_svm(rng)
    assert isinstance(split.r, RidgeProx) and split.r.weight == 0.1
    assert kernels.ridge_weight(split.r) == 0.1
    for struct in (split.structure, tiny_glm(rng, "logistic").structure):
        assert not hasattr(struct, "ridge")
    assert kernels.ridge_weight(zero_prox()) == 0.0
    assert kernels.ridge_weight(abs_prox_fn(weight=0.05)) is None
    # an r rebuilt around a wrapped prox, as a tracer does, keeps its
    # weight, and with it the sppg and spi kernels
    wrapped = dataclasses.replace(
        split, r=dataclasses.replace(split.r, prox=split.r.prox))
    assert wrapped.r.weight == 0.1
    for kernel in ("sppg", "spi"):
        assert kernels.rank_one_rows(wrapped, kernel) is split.structure
    x = np.random.default_rng(2).standard_normal(3)
    assert np.array_equal(split.r.prox(x, 2.0), x / (1.0 + 2.0 * 0.1))


def _row_blocked_ppg(monkeypatch, problem, opts, warm_start=None):
    """ppg_run on ``problem`` with the rank-one sweep turned off, so that
    every sweep runs the row-blocked sweep of ppg_step."""
    with monkeypatch.context() as m:
        m.setattr(kernels, "rank_one_rows", lambda problem, kernel: None)
        res = ppg_run(problem, opts, warm_start=warm_start)
    assert res.log.metadata["sweep"] == "batched"
    return res


class TestRankOnePpg:
    """ppg on the split SVM and GLMs sweeps in scalar coordinates
    (kernels.RankOnePpg); it must give what the row-blocked sweep gives."""

    @pytest.mark.parametrize("record_every, warm, ergodic",
                             [(1, False, False), (3, True, False),
                              (1, False, True), (3, True, True)])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_matches_row_blocked_sweep(self, monkeypatch, kind, record_every,
                                       warm, ergodic):
        problem = _rank_one_problem(kind, 5, 40, 4)
        warm_start = (np.random.default_rng(9).standard_normal((40, 4))
                      if warm else None)
        opts = SolveOptions(alpha=1.0 if kind != "svm" else 10.0,
                            max_iters=25, record_every=record_every,
                            ergodic=ergodic)
        fast = ppg_run(problem, opts, warm_start=warm_start)
        ref = _row_blocked_ppg(monkeypatch, problem, opts, warm_start)
        assert fast.log.metadata["sweep"] == "rank-one"
        assert fast.state.k == ref.state.k == 25
        assert _rel(fast.x, ref.x) <= 1e-12
        assert _rel(fast.state.z, ref.state.z) <= 1e-12
        assert _rel(fast.state.zbar, ref.state.zbar) <= 1e-12
        if ergodic:
            assert _rel(fast.ergodic, ref.ergodic) <= 1e-12
        else:
            assert fast.ergodic is None and ref.ergodic is None
        assert [r.k for r in fast.log.rows] == [r.k for r in ref.log.rows]
        for a, b in zip(fast.log.rows, ref.log.rows):
            assert a.objective == pytest.approx(b.objective, rel=1e-12)
            assert a.residual_norm == pytest.approx(b.residual_norm,
                                                    rel=1e-8, abs=1e-13)

    @pytest.mark.parametrize("warm", [False, True])
    def test_zero_budget_returns_initial_state(self, warm):
        problem = _rank_one_problem("logistic", 2, 40, 4)
        warm_start = (np.random.default_rng(3).standard_normal((40, 4))
                      if warm else None)
        res = ppg_run(problem, SolveOptions(alpha=1.0, max_iters=0),
                      warm_start=warm_start)
        want = initial_state(problem, 1.0, warm_start)
        assert res.state.k == 0 and res.log.rows == []
        assert np.array_equal(res.state.z, want.z)
        assert np.array_equal(res.state.zbar, want.zbar)
        assert np.array_equal(res.x, problem.r.prox(want.zbar, 1.0))

    @pytest.mark.parametrize("kind", ["svm", "logistic"])
    def test_tol_stops_where_the_row_blocked_sweep_stops(self, monkeypatch,
                                                         kind):
        problem = _rank_one_problem(kind, 6, 40, 4)
        alpha = 10.0 if kind == "svm" else 1.0
        ref = _row_blocked_ppg(monkeypatch, problem,
                               SolveOptions(alpha=alpha, max_iters=40))
        scale = math.sqrt(problem.n * problem.dim)
        per_entry = [r.residual_norm / scale for r in ref.log.rows]
        # halfway, in log scale, between sweeps 11 and 12: the 12th stops
        assert per_entry[12] < per_entry[11]
        tol = math.sqrt(per_entry[11] * per_entry[12])
        opts = SolveOptions(alpha=alpha, max_iters=40, tol=tol)
        fast = ppg_run(problem, opts)
        ref = _row_blocked_ppg(monkeypatch, problem, opts)
        assert fast.converged and ref.converged
        assert fast.state.k == ref.state.k == 13
        assert fast.log.metadata["stop"] == "tol"
        assert _rel(fast.x, ref.x) <= 1e-12

    @pytest.mark.parametrize("case, bad", [("svm-inf-row", 33),
                                           ("svm-zero-row", 9),
                                           ("glm-nan-row", 21),
                                           ("glm-nan-response", 29),
                                           ("two-bad-rows", 17)])
    def test_bad_row_named_by_its_term(self, monkeypatch, case, bad):
        rng = np.random.default_rng(6)
        feats = rng.standard_normal((40, 4))
        if case.startswith("svm"):
            feats[bad] = np.inf if case == "svm-inf-row" else 0.0
            # SvmData rejects a zero row; a hand-built structure takes it
            struct = kernels.HingeStructure(features=feats,
                                            labels=np.ones(40))
            problem = kernels.rank_one_problem(struct, ridge_prox(0.1),
                                               "svm")
        else:
            t_vec = rng.random(40)
            if case == "glm-nan-row":
                feats[bad] = np.nan
            else:
                t_vec[29] = np.nan
            if case == "two-bad-rows":
                feats[17, 2] = -np.inf
            problem = build_glm(feats, t_vec, glm_family("logistic"))
        opts = SolveOptions(alpha=0.5, max_iters=3)
        message = rf"^non-finite values from prox of g \(term {bad}\)$"
        with pytest.raises(NumericalError, match=message):
            ppg_run(problem, opts)
        with pytest.raises(NumericalError, match=message):
            _row_blocked_ppg(monkeypatch, problem, opts)

    def test_residual_at_the_fixed_point_is_finite(self):
        # near the fixed point the closed form of the residual rounds to a
        # tiny negative sum on this problem (sweeps 200 to 260); it reads 0
        problem = _rank_one_problem("gaussian", 2, 40, 4)
        res = ppg_run(problem, SolveOptions(alpha=1.0, max_iters=300))
        resid = [row.residual_norm for row in res.log.rows]
        assert all(math.isfinite(v) and v >= 0.0 for v in resid)
        assert resid[-1] <= 1e-14 * resid[0]

    @pytest.mark.parametrize("name", ["split-svm-smooth-f"])
    def test_other_problems_keep_the_row_blocked_sweep(self, monkeypatch,
                                                       rng, name):
        def refuse(*args, **kwargs):
            raise AssertionError("RankOnePpg constructed")

        monkeypatch.setattr(kernels, "RankOnePpg", refuse)
        res = ppg_run(_RULE_TABLE[name][0](rng),
                      SolveOptions(alpha=0.5, max_iters=3))
        assert res.log.metadata["sweep"] == "batched"

    def test_allocates_no_n_by_d_array_beside_z(self, monkeypatch):
        # a full run at the SVM desk shape (n=8192, d=128, 30 sweeps) holds
        # z as x_half and n betas and makes no n x d array; the first read
        # of state.z builds one, bitwise z_i = w + beta_i f_i in chunks
        import tracemalloc
        problem = tiny_svm(np.random.default_rng(0), n=8192, d=128)
        opts = SolveOptions(alpha=10.0, max_iters=30)
        nd_bytes = problem.n * problem.dim * 8
        ppg_run(problem, opts)
        finished = []
        finish = kernels.RankOnePpg.finish

        def recording(self):
            finished.append(self)
            finish(self)

        monkeypatch.setattr(kernels.RankOnePpg, "finish", recording)
        tracemalloc.start()
        try:
            res = ppg_run(problem, opts)
            run_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            z = res.state.z
            kept, read_peak = tracemalloc.get_traced_memory()
            assert res.state.z is z
            again = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.log.metadata["sweep"] == "rank-one"
        assert res.state.k == 30
        assert run_peak < 0.1 * nd_bytes
        assert nd_bytes <= kept - before and read_peak - before < 1.05 \
            * nd_bytes
        assert again == read_peak
        (sweeps,) = finished
        feats = problem.structure.features
        want = np.empty_like(feats)
        for lo in range(0, problem.n, kernels.ROW_CHUNK):
            rows = slice(lo, lo + kernels.ROW_CHUNK)
            want[rows] = feats[rows] * sweeps.beta[rows, None]
            want[rows] += sweeps.w
        assert np.array_equal(z, want)

    @pytest.mark.parametrize("max_iters", [0, 3])
    def test_state_never_aliases_the_warm_start(self, max_iters):
        # the warm start is read where it lies: the run leaves it as it
        # was, and the returned z does not change when the caller's does
        problem = _rank_one_problem("logistic", 2, 40, 4)
        warm_start = np.random.default_rng(3).standard_normal((40, 4))
        keep = warm_start.copy()
        res = ppg_run(problem, SolveOptions(alpha=1.0, max_iters=max_iters),
                      warm_start=warm_start)
        assert np.array_equal(warm_start, keep)
        want = res.state.copy().z
        warm_start += 1.0
        assert res.state.k == max_iters
        assert np.array_equal(res.state.z, want)
        if not max_iters:
            assert np.array_equal(res.state.z, keep)

    @pytest.mark.parametrize("read_first", [False, True])
    def test_copy_gives_the_built_z(self, read_first):
        problem = _rank_one_problem("svm", 3, 40, 4)
        res = ppg_run(problem, SolveOptions(alpha=10.0, max_iters=5))
        if read_first:
            res.state.z
        dup = res.state.copy()
        assert np.array_equal(dup.z, res.state.z)
        assert dup.z is not res.state.z and dup.zbar is not res.state.zbar
        assert np.array_equal(dup.zbar, res.state.zbar)
        assert (dup.k, dup.alpha) == (res.state.k, res.state.alpha) == (5,
                                                                          10.0)
        dup.z[0] += 1.0
        assert not np.array_equal(dup.z, res.state.z)

    @pytest.mark.parametrize("first", ["ppg", "admm"])
    @pytest.mark.parametrize("kind", ["svm", "logistic"])
    def test_warm_start_chains_keep_their_iterates(self, kind, first):
        # the chained run reads the first run's z where it lies; it gives
        # bitwise what a run from a copy of that z gives, which is how the
        # warm start was read before the start was left uncopied
        problem = _rank_one_problem(kind, 5, 40, 4)
        alpha = 10.0 if kind == "svm" else 1.0
        opts = SolveOptions(alpha=alpha, max_iters=8, record_every=3)
        run = ppg_run if first == "ppg" else consensus_admm_run
        start = run(problem, opts).state.z
        keep = start.copy()
        chained = ppg_run(problem, opts, warm_start=start)
        ref = ppg_run(problem, opts, warm_start=keep.copy())
        assert chained.log.metadata["sweep"] == "rank-one"
        assert np.array_equal(start, keep)
        assert _row_values(chained) == _row_values(ref)
        assert np.array_equal(chained.x, ref.x)
        assert np.array_equal(chained.state.zbar, ref.state.zbar)
        assert np.array_equal(chained.state.z, ref.state.z)
        assert not np.shares_memory(chained.state.z, start)

    @pytest.mark.parametrize("r", ["problem's", "l1", "no value"])
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_recorded_objective_is_core_objective_bitwise(
            self, monkeypatch, kind, warm, r):
        # the rank-one sweep hands the loop its objective, taken from the
        # sweep's own F x_half; it must be the bits core.objective gives at
        # that x_half, on a cold start and warm-started from ADMM's state
        problem = _rank_one_problem(kind, 8, 40, 4)
        if r == "l1":
            problem = _l1(problem)
        elif r == "no value":
            problem = dataclasses.replace(
                problem, r=dataclasses.replace(problem.r, value=None))
        alpha = 10.0 if kind == "svm" else 1.0
        warm_start = None
        if warm:
            warm_start = consensus_admm_run(
                problem, SolveOptions(alpha=alpha, max_iters=4)).state.z
        points = []
        sweep = kernels.RankOnePpg.sweep

        def recording(self):
            resid, x = sweep(self)
            points.append(x.copy())
            return resid, x

        monkeypatch.setattr(kernels.RankOnePpg, "sweep", recording)
        res = ppg_run(problem, SolveOptions(alpha=alpha, max_iters=20,
                                            record_every=3),
                      warm_start=warm_start)
        assert res.log.metadata["sweep"] == "rank-one"
        assert len(points) == 20
        assert [row.k for row in res.log.rows] == [0, 3, 6, 9, 12, 15, 18,
                                                   19]
        for row in res.log.rows:
            want = objective(points[row.k], problem)
            if r == "no value":
                assert row.objective is None and want is None
            else:
                assert row.objective == want


class TestLazyTermHandles:
    """A rank-one problem's g builds term i's handle when it is indexed,
    and that handle is the one the per-term path always had."""

    @pytest.fixture(params=["split-svm", "logistic"])
    def problem(self, request):
        return _RULE_TABLE[request.param][0](np.random.default_rng(4))

    def test_handles_are_the_term_rules(self, problem):
        n, struct = problem.n, problem.structure
        assert len(problem.g) == n == 12
        rng = np.random.default_rng(5)
        v, x = rng.standard_normal((n, 3)) * 3.0, rng.standard_normal(3)

        def same(handle, i):
            return (np.array_equal(handle.prox(v[i], 0.7),
                                   kernels._term_prox(struct, i, v[i], 0.7))
                    and handle.value(x) == kernels._term_value(struct, i, x))

        assert all(same(problem.g[i], i) for i in range(n))
        assert same(problem.g[-1], n - 1) and same(problem.g[-n], 0)
        assert same(problem.g[np.int64(5)], 5)
        part = problem.g[3:8]
        assert isinstance(part, tuple) and len(part) == 5
        assert all(same(h, i) for h, i in zip(part, range(3, 8)))
        assert problem.g[8:3] == () and len(problem.g[::4]) == 3
        assert all(same(h, i) for i, h in enumerate(problem.g))
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                problem.g[bad]

    @pytest.mark.parametrize("name", ["split-svm", "logistic"])
    def test_building_makes_no_handle(self, monkeypatch, name):
        made, make = [], kernels.ProxFn

        def counted(*args, **kwargs):
            made.append(1)
            return make(*args, **kwargs)

        monkeypatch.setattr(kernels, "ProxFn", counted)
        problem = _RULE_TABLE[name][0](np.random.default_rng(4))
        assert not problem.all_g_zero()
        assert not made
        problem.g[3]
        assert len(made) == 1

    def test_per_term_ppg_reaches_the_same_x(self, monkeypatch, problem):
        opts = SolveOptions(alpha=1.0, max_iters=30)
        ref = ppg_run(problem, opts)
        with monkeypatch.context() as m:
            m.setattr(kernels, "rank_one_rows", lambda problem, kernel: None)
            res = ppg_run(dataclasses.replace(problem, batched_g_prox=None),
                          opts)
        assert res.log.metadata["sweep"] == "per-term"
        assert _rel(res.x, ref.x) <= 1e-12

    def test_other_sequences_are_kept_as_tuples(self):
        handles = [zero_prox(), abs_prox_fn()]
        for g in (handles, iter(handles), (h for h in handles)):
            problem = ProblemSpec(dim=1, r=zero_prox(),
                                  f=[zero_smooth()] * 2, g=g)
            assert isinstance(problem.g, tuple)
            assert isinstance(problem.f, tuple)
            assert problem.g == tuple(handles)
        assert ProblemSpec(dim=1, r=zero_prox(), f=[zero_smooth()] * 2,
                           g=[zero_prox()] * 2).all_g_zero()


class TestGlmStructureHandles:
    """A GLM structure takes a cumulant whose value, derivative and
    variance handles each map arrays elementwise, and refuses any other."""

    def test_missing_variance_rejected(self):
        rows = tiny_glm(np.random.default_rng(0), "logistic").structure
        with pytest.raises(ValueError, match="must supply a variance handle"):
            kernels.GlmStructure(features=rows.features,
                                 responses=rows.responses,
                                 deriv=rows.deriv, value=rows.value)

    def test_scalar_only_variance_rejected(self):
        rows = tiny_glm(np.random.default_rng(0), "logistic").structure
        with pytest.raises(ValueError,
                           match="variance handle must map an array"):
            dataclasses.replace(rows, variance=lambda mu: float(mu))


def test_glm_betas_of_zero_rows_only(rng):
    # no row has a root to solve, so the all-rows root gets empty arrays
    fam = glm_family("logistic")
    struct = kernels.GlmStructure(features=np.zeros((3, 2)),
                                  responses=np.ones(3), deriv=fam.deriv,
                                  value=fam.value, variance=fam.variance)
    assert np.array_equal(struct.betas(rng.standard_normal(3), 1.0),
                          np.zeros(3))


def _l1_problem(kind, built):
    """A rank-one problem with r = 0.05 ||x||_1: built by
    ``kernels.rank_one_problem`` from a fresh structure, or by swapping r
    into a builder's problem."""
    base = _rank_one_problem(kind, 7, 40, 4)
    if built == "replace":
        return _l1(base)
    rows = base.structure
    if kind == "svm":
        struct = kernels.HingeStructure(features=rows.features,
                                        labels=rows.labels)
    else:
        struct = kernels.GlmStructure(features=rows.features,
                                      responses=rows.responses,
                                      deriv=rows.deriv, value=rows.value,
                                      variance=rows.variance)
    return kernels.rank_one_problem(struct, abs_prox_fn(weight=0.05),
                                    base.kind)


@pytest.mark.parametrize("built", ["rank_one_problem", "replace"])
@pytest.mark.parametrize("kind", _KINDS)
class TestAnyR:
    """A rank-one problem with an r that no structure states: the
    objective adds r once, sppg takes the per-term path, and ppg's
    rank-one sweep takes r's prox."""

    def test_objective_is_the_per_term_sum(self, kind, built):
        problem = _l1_problem(kind, built)
        termwise = dataclasses.replace(problem, batched_objective=None)
        for x in np.random.default_rng(3).standard_normal((5, 4)):
            assert objective(x, problem) == pytest.approx(
                objective(x, termwise), rel=1e-12)

    def test_sppg_runs_per_term(self, kind, built):
        problem = _l1_problem(kind, built)
        opts = SolveOptions(alpha=1.0, max_iters=6 * 40 + 5, record_every=7)
        fast, ref = (sppg_run(p, opts, IndexSampler(11, 40))
                     for p in (problem, _generic(problem)))
        assert fast.log.metadata["path"] == "per-term"
        assert _rel(fast.x, ref.x) <= 1e-12
        assert _rel(fast.state.z, ref.state.z) <= 1e-12
        assert _rel(_row_values(fast), _row_values(ref)) <= 1e-12

    def test_ppg_keeps_the_rank_one_sweep(self, monkeypatch, kind, built):
        problem = _l1_problem(kind, built)
        opts = SolveOptions(alpha=1.0, max_iters=25, record_every=3)
        fast = ppg_run(problem, opts)
        ref = _row_blocked_ppg(monkeypatch, problem, opts)
        assert fast.log.metadata["sweep"] == "rank-one"
        assert _rel(fast.x, ref.x) <= 1e-12
        assert _rel(fast.state.z, ref.state.z) <= 1e-12
        assert _rel(fast.state.zbar, ref.state.zbar) <= 1e-12
        for a, b in zip(fast.log.rows, ref.log.rows):
            assert a.objective == pytest.approx(b.objective, rel=1e-12)


def _probe_problem(name):
    """The problems whose sppg residual probe runs from the structure:
    hinge rows with a ridge r, the three GLM families, and rank-one rows
    with an L1 r, which sppg steps per term."""
    kind, _, r = name.partition("-")
    problem = _rank_one_problem(kind, 12, 600, 5)
    return _l1(problem) if r == "l1" else problem


class TestStructureProbe:
    """sppg's residual probe on rank-one rows takes its betas and steps
    from the structure (kernels.rank_one_probe), a
    ROW_CHUNK of rows at a time, and must give what the row-blocked
    sweep gives."""

    @pytest.mark.parametrize("name", ["svm", "logistic", "poisson",
                                      "gaussian", "svm-l1", "logistic-l1"])
    def test_matches_row_blocked_probe(self, name):
        from proxsplit.core import _sweep_blocks
        from proxsplit.sppg import _probe
        problem = _probe_problem(name)
        struct = kernels.rank_one_rows(problem, "ppg")
        assert struct is problem.structure
        # 600 rows span three row chunks, the last one short
        assert problem.n > 2 * kernels.ROW_CHUNK
        alpha = 10.0 if problem.kind == "svm" else 1.0
        for seed in range(3):
            z = np.random.default_rng(seed).standard_normal((600, 5))
            state = initial_state(problem, alpha, z)
            keep = state.copy()
            resid, x_half = _probe(state, problem, struct)
            want, want_x = _sweep_blocks(state, problem, False)
            assert np.array_equal(x_half, want_x)
            assert resid == pytest.approx(want, rel=1e-12)
            assert np.array_equal(state.z, keep.z)
            assert np.array_equal(state.zbar, keep.zbar)
            assert state.k == keep.k

    @pytest.mark.parametrize("name", ["svm", "logistic", "svm-l1"])
    def test_runs_and_single_steps_take_the_structure_probe(
            self, monkeypatch, name):
        problem = _probe_problem(name)
        calls = []
        probe = kernels.rank_one_probe

        def counted(*args):
            calls.append(args[0])
            return probe(*args)

        def refuse(*args, **kwargs):
            raise AssertionError("batched_g_prox called")

        monkeypatch.setattr(kernels, "rank_one_probe", counted)
        problem = dataclasses.replace(problem, batched_g_prox=refuse)
        opts = SolveOptions(alpha=1.0, max_iters=2 * problem.n + 7,
                            record_every=problem.n // 2)
        res = sppg_run(problem, opts, IndexSampler(4, problem.n))
        assert len(calls) == len(res.log.rows) == 6
        assert all(s is problem.structure for s in calls)
        state = initial_state(problem, 1.0)
        _, report = sppg_step(state, problem, IndexSampler(4, problem.n),
                              compute_residual=True)
        assert len(calls) == 7
        assert report.residual_norm == res.log.rows[0].residual_norm

    @pytest.mark.parametrize("name", ["svm", "logistic", "logistic-l1"])
    @pytest.mark.parametrize("bad", [0, 300, 599])
    def test_nan_feature_row_named_by_its_term(self, name, bad):
        problem = _probe_problem(name)
        feats = problem.structure.features.copy()
        feats[bad, 1] = np.nan
        struct = dataclasses.replace(problem.structure, features=feats)
        problem = kernels.rank_one_problem(struct, problem.r, problem.kind)
        state = initial_state(problem, 1.0)
        message = rf"^non-finite values from prox of g \(term {bad}\)$"
        with pytest.raises(NumericalError, match=message):
            sppg_step(state, problem, SequenceSampler([0]),
                      compute_residual=True)
        assert state.k == 0 and not state.z.any()
        with pytest.raises(NumericalError, match=message):
            kernels.rank_one_probe(struct, state.z, np.ones(5), 1.0)

    def test_nonfinite_step_named_by_its_term(self):
        # every beta is finite (a hinge beta is clipped to [0, alpha]), but
        # row 301's step x - z_301 overflows: the chunk's sum of squares is
        # the check, and it names the row
        feats = np.random.default_rng(4).uniform(-0.5, 0.5, (600, 5))
        struct = kernels.HingeStructure(features=feats, labels=np.ones(600))
        x = np.zeros(5)
        x[0] = 1e307
        z = np.zeros((600, 5))
        z[301, 0] = -1.75e308
        s = 2.0 * (feats @ x) - np.einsum("ij,ij->i", feats, z)
        assert np.isfinite(struct.betas(s, 1.0)).all()
        with pytest.raises(NumericalError,
                           match=r"^non-finite values from prox of g "
                                 r"\(term 301\)$"):
            kernels.rank_one_probe(struct, z, x, 1.0)
