"""Backend selection and agreement between the compiled kernels, their
numpy twins, and the generic per-callable path."""

import dataclasses

import numpy as np
import pytest

from conftest import tiny_svm
from proxsplit import kernels
from proxsplit.baselines import DiminishingStep, stochastic_prox_iteration_run
from proxsplit.core import NumericalError, initial_state
from proxsplit.ppg import SolveOptions
from proxsplit.problems import SvmData, build_svm
from proxsplit.sppg import IndexSampler, SequenceSampler, _advance_one, sppg_run


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    kernels.set_backend(None)


class TestBackendSelection:
    def test_default_prefers_numba(self, monkeypatch):
        monkeypatch.delenv("PROXSPLIT_BACKEND", raising=False)
        expected = "numba" if kernels.numba_available() else "numpy"
        assert kernels.resolved_backend() == expected

    def test_env_forces_numpy(self, monkeypatch):
        monkeypatch.setenv("PROXSPLIT_BACKEND", "numpy")
        assert kernels.resolved_backend() == "numpy"

    def test_env_validated(self, monkeypatch):
        monkeypatch.setenv("PROXSPLIT_BACKEND", "cuda")
        with pytest.raises(ValueError, match="PROXSPLIT_BACKEND"):
            kernels.resolved_backend()

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("PROXSPLIT_BACKEND", "numpy")
        if kernels.numba_available():
            kernels.set_backend("numba")
            assert kernels.resolved_backend() == "numba"

    def test_override_validated(self):
        with pytest.raises(ValueError):
            kernels.set_backend("gpu")


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


class TestNumpyHingeAgreement:
    """The numpy hinge twins against the per-term handles they bypass."""

    @pytest.fixture(autouse=True)
    def _numpy_backend(self):
        kernels.set_backend("numpy")

    def _sppg_pair(self, monkeypatch, problem, sampler, iters, record_every):
        opts = SolveOptions(alpha=1.0, max_iters=iters,
                            record_every=record_every)
        calls = _counting(monkeypatch, "_hinge_sppg_block_numpy")
        fast = sppg_run(problem, opts, sampler())
        assert sum(calls) == iters
        generic = sppg_run(dataclasses.replace(problem, structure=None),
                           opts, sampler())
        assert sum(calls) == iters
        assert fast.log.metadata["backend"] == "numpy"
        assert len(fast.log.rows) == len(generic.log.rows)
        assert _rel(fast.state.z, generic.state.z) <= 1e-12
        assert _rel(fast.x, generic.x) <= 1e-12
        assert _rel(_row_values(fast), _row_values(generic)) <= 1e-12
        return fast

    @pytest.mark.parametrize("record_every", [None, 1, 7])
    @pytest.mark.parametrize("n", [1, 2, 5, 48, 300])
    def test_sppg_matches_generic_path(self, monkeypatch, n, record_every):
        problem = tiny_svm(np.random.default_rng(n), n=n, d=4)
        iters = 6 * n + 5
        self._sppg_pair(monkeypatch, problem,
                        lambda: IndexSampler(11, n), iters, record_every)

    @pytest.mark.parametrize("record_every", [None, 7])
    def test_sppg_sequence_with_repeats_and_long_blocks(self, monkeypatch,
                                                        record_every):
        # epochs of 48 steps, so blocks outrun a 32-row run; repeats fall
        # inside runs (5 after 0..19, 30 twice in a row) and straddle them
        n = 48
        seq = np.concatenate([
            np.arange(20), [5], np.arange(20, 48), [30, 30],
            np.random.default_rng(2).integers(0, n, 5 * n),
            np.random.default_rng(3).permutation(n)])
        problem = tiny_svm(np.random.default_rng(4), n=n, d=5)
        res = self._sppg_pair(monkeypatch, problem,
                              lambda: SequenceSampler(seq), seq.size,
                              record_every)
        assert res.state.k == seq.size

    @pytest.mark.parametrize("record_every", [None, 7])
    @pytest.mark.parametrize("n", [1, 5, 48])
    def test_spi_matches_per_term_prox(self, monkeypatch, n, record_every):
        problem = tiny_svm(np.random.default_rng(n), n=n, d=4,
                           fold_ridge=True)
        opts = SolveOptions(max_iters=10 * n + 3, record_every=record_every)

        def run(p):
            return stochastic_prox_iteration_run(
                p, DiminishingStep(2.0), IndexSampler(5, n), opts)

        calls = _counting(monkeypatch, "_hinge_spi_block_numpy")
        fast = run(problem)
        assert sum(calls) == opts.max_iters
        generic = run(dataclasses.replace(problem, structure=None))
        assert sum(calls) == opts.max_iters
        assert _rel(fast.x, generic.x) <= 1e-12
        assert _rel(_row_values(fast), _row_values(generic)) <= 1e-12

    def test_nonfinite_row_inside_a_run(self):
        # term 7 is step 40 of a 64-step block: the second 32-row run
        n, d, bad = 80, 5, 7
        seq = np.random.default_rng(5).permutation(
            np.setdiff1d(np.arange(n), [bad]))[:63]
        seq = np.insert(seq, 40, bad)
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((n, d))
        feats[bad] = np.inf
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        problem = build_svm(SvmData(feats, labels, lam=0.1))
        generic = dataclasses.replace(problem, structure=None)
        ref = initial_state(generic, 1.0)
        with pytest.raises(NumericalError, match=rf"\(term {bad}\)"):
            for i in seq:
                _advance_one(ref, generic, int(i))
        assert ref.k == 40
        state = initial_state(problem, 1.0)
        got = kernels.hinge_sppg_block(state.z, state.zbar,
                                       problem.structure, 1.0, seq)
        assert got == bad
        # the 40 steps before it are applied, as the generic path applied
        assert _rel(state.z, ref.z) <= 1e-12
        assert _rel(state.zbar, ref.zbar) <= 1e-12
        # a run's first probe already meets the row, on either path
        for p in (problem, generic):
            with pytest.raises(NumericalError, match=rf"\(term {bad}\)"):
                sppg_run(p, SolveOptions(alpha=1.0, max_iters=64),
                         SequenceSampler(seq))

    def test_zero_row_is_reported(self):
        # SvmData rejects zero rows; a hand-built structure divides by zero
        feats = np.random.default_rng(6).standard_normal((40, 3))
        feats[9] = 0.0
        struct = kernels.HingeStructure(
            features=feats, labels=np.ones(40),
            sqnorms=np.einsum("ij,ij->i", feats, feats), ridge=0.1)
        z, zbar = np.zeros((40, 3)), np.zeros(3)
        assert kernels.hinge_sppg_block(z, zbar, struct, 1.0,
                                        np.roll(np.arange(40), -3)) == 9


@pytest.mark.skipif(not kernels.numba_available(), reason="needs numba")
class TestBackendAgreement:
    def _run_sppg(self, problem, backend, seed=3, iters=None):
        kernels.set_backend(backend)
        try:
            return sppg_run(problem,
                            SolveOptions(alpha=1.0,
                                         max_iters=iters or 12 * problem.n),
                            IndexSampler(seed, problem.n))
        finally:
            kernels.set_backend(None)

    def test_sppg_backends_agree(self, rng):
        problem = tiny_svm(rng, n=48, d=6)
        res_nb = self._run_sppg(problem, "numba")
        res_np = self._run_sppg(problem, "numpy")
        assert res_nb.log.metadata["backend"] == "numba"
        assert res_np.log.metadata["backend"] == "numpy"
        assert np.allclose(res_nb.x, res_np.x, atol=1e-10)
        r_nb = [r.residual_norm for r in res_nb.log.rows]
        r_np = [r.residual_norm for r in res_np.log.rows]
        assert np.allclose(r_nb, r_np, rtol=1e-8, atol=1e-12)

    def test_kernel_matches_generic_path(self, rng):
        problem = tiny_svm(rng, n=32, d=5)
        res_fast = self._run_sppg(problem, "numba")
        unhinted = dataclasses.replace(problem, structure=None)
        res_gen = self._run_sppg(unhinted, "numba")
        assert "backend" in res_gen.log.metadata
        assert res_gen.log.metadata["backend"] == "numpy"
        assert np.allclose(res_fast.x, res_gen.x, atol=1e-10)

    def test_numba_path_is_reproducible(self, rng):
        problem = tiny_svm(rng, n=40, d=4)
        r1 = self._run_sppg(problem, "numba")
        r2 = self._run_sppg(problem, "numba")
        assert np.array_equal(r1.x, r2.x)
        assert [a.residual_norm for a in r1.log.rows] == \
            [b.residual_norm for b in r2.log.rows]

    def test_spi_backends_agree(self, rng):
        problem = tiny_svm(rng, n=48, d=6, fold_ridge=True)
        outs = []
        for backend in ("numba", "numpy"):
            kernels.set_backend(backend)
            try:
                res = stochastic_prox_iteration_run(
                    problem, DiminishingStep(2.0),
                    IndexSampler(5, problem.n),
                    SolveOptions(max_iters=10 * problem.n))
            finally:
                kernels.set_backend(None)
            outs.append(res.x)
        assert np.allclose(outs[0], outs[1], atol=1e-10)

    def test_folded_structure_skips_sppg_kernel(self, rng):
        problem = tiny_svm(rng, n=16, d=4, fold_ridge=True)
        res = self._run_sppg(problem, "numba", iters=32)
        assert res.log.metadata["backend"] == "numpy"
