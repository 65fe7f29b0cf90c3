"""Agreement between the blocked numpy kernels and the generic per-term
path they bypass."""

import dataclasses

import numpy as np
import pytest

from conftest import tiny_glm, tiny_svm
from proxsplit import kernels
from proxsplit.baselines import DiminishingStep, stochastic_prox_iteration_run
from proxsplit.core import ConvergenceError, NumericalError, initial_state
from proxsplit.ppg import SolveOptions
from proxsplit.problems import SvmData, build_glm, build_svm, glm_family
from proxsplit.sppg import IndexSampler, SequenceSampler, _advance_one, sppg_run


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

    def counted(*args):
        calls.append(len(args[-1]))
        return fn(*args)

    monkeypatch.setattr(kernels, name, counted)
    return calls


def _sppg_pair(monkeypatch, problem, sampler, iters, record_every):
    """sppg through the numpy rank-one kernel against the same problem
    without its structure hint: the kernel takes every step, and z, x and
    the recorded rows agree to 1e-12 relative."""
    opts = SolveOptions(alpha=1.0, max_iters=iters, record_every=record_every)
    calls = _counting(monkeypatch, "rank_one_sppg_block")
    fast = sppg_run(problem, opts, sampler())
    assert sum(calls) == iters
    generic = sppg_run(dataclasses.replace(problem, structure=None),
                       opts, sampler())
    assert sum(calls) == iters
    assert fast.log.metadata["path"] == "kernel"
    assert generic.log.metadata["path"] == "per-term"
    assert len(fast.log.rows) == len(generic.log.rows)
    assert _rel(fast.state.z, generic.state.z) <= 1e-12
    assert _rel(fast.x, generic.x) <= 1e-12
    assert _rel(_row_values(fast), _row_values(generic)) <= 1e-12
    return fast


def _spi_pair(monkeypatch, problem, record_every):
    """spi through the rank-one kernel against the same problem without its
    structure hint: the kernel takes every step, and x and the recorded
    rows agree to 1e-12 relative."""
    n = problem.n
    opts = SolveOptions(max_iters=10 * n + 3, record_every=record_every)

    def run(p):
        return stochastic_prox_iteration_run(
            p, DiminishingStep(2.0), IndexSampler(5, n), opts)

    calls = _counting(monkeypatch, "rank_one_spi_block")
    fast = run(problem)
    assert sum(calls) == opts.max_iters
    generic = run(dataclasses.replace(problem, structure=None))
    assert sum(calls) == opts.max_iters
    assert fast.log.metadata["path"] == "kernel"
    assert generic.log.metadata["path"] == "per-term"
    assert _rel(fast.x, generic.x) <= 1e-12
    assert _rel(_row_values(fast), _row_values(generic)) <= 1e-12


# epochs of 48 steps, so blocks outrun a 32-row run; repeats fall inside
# runs (5 after 0..19, 30 twice in a row) and straddle them
_REPEATS = np.concatenate([
    np.arange(20), [5], np.arange(20, 48), [30, 30],
    np.random.default_rng(2).integers(0, 48, 5 * 48),
    np.random.default_rng(3).permutation(48)])


def _nonfinite_row_case(problem, bad, generic_error):
    """Term ``bad`` is step 40 of a 64-step block, in the second 32-row
    run.  The kernel returns it with the 40 steps before it applied, as
    the generic path applied them before raising ``generic_error``; a
    run's first probe already meets the row, on either path."""
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
    got = kernels.rank_one_sppg_block(state.z, state.zbar, problem.structure,
                                      1.0, seq)
    assert got == bad
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
        _spi_pair(monkeypatch, tiny_svm(np.random.default_rng(n), n=n, d=4,
                                        fold_ridge=True), record_every)

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
        problem = build_svm(SvmData(feats, labels, lam=0.1),
                            fold_ridge=True)
        for p in (problem, dataclasses.replace(problem, structure=None)):
            with pytest.raises(NumericalError,
                               match=rf"prox of g \(term {bad}\)"):
                stochastic_prox_iteration_run(
                    p, DiminishingStep(2.0), IndexSampler(5, n),
                    SolveOptions(max_iters=10 * n))

    def test_folded_structure_skips_sppg_kernel(self, monkeypatch, rng):
        # the ridge sits in every term, not in r, so sppg runs per term
        problem = tiny_svm(rng, n=16, d=4, fold_ridge=True)
        calls = _counting(monkeypatch, "rank_one_sppg_block")
        res = sppg_run(problem, SolveOptions(alpha=1.0, max_iters=32),
                       IndexSampler(3, 16))
        assert calls == []
        assert res.log.metadata["path"] == "per-term"

    def test_zero_row_is_reported(self):
        # SvmData rejects zero rows; a hand-built structure divides by zero
        feats = np.random.default_rng(6).standard_normal((40, 3))
        feats[9] = 0.0
        struct = kernels.HingeStructure(
            features=feats, labels=np.ones(40),
            sqnorms=np.einsum("ij,ij->i", feats, feats), ridge=0.1)
        z, zbar = np.zeros((40, 3)), np.zeros(3)
        assert kernels.rank_one_sppg_block(z, zbar, struct, 1.0,
                                           np.roll(np.arange(40), -3)) == 9


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
            raise ConvergenceError("GLM prox root exceeded 200 steps")

        monkeypatch.setattr(kernels, "glm_root", fails)
        seq = np.array([4, 9, 2])
        state = initial_state(problem, 1.0)
        with pytest.raises(ConvergenceError, match=r"steps \(term 4\)$"):
            kernels.rank_one_sppg_block(state.z, state.zbar,
                                        problem.structure, 1.0, seq)
        with pytest.raises(ConvergenceError, match=r"steps \(term 4\)$"):
            kernels.rank_one_spi_block(np.zeros(3), problem.structure, 2.0,
                                       0, seq)
