"""The benchmark's tracer (perfbench/tracer.py) against the library.

The tracer wraps library functions and problem handles by name.  These
tests load it unchanged and trace one ppg sweep and one sppg epoch on tiny
SVM and GLM problems, so renaming a traced name fails this suite and not
only a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from conftest import tiny_glm, tiny_svm
from proxsplit import core, kernels, ppg, sppg

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("kind", ["svm", "glm"])
def test_sweep_and_epoch_hit_the_traced_sites(rng, kind):
    problem = (tiny_svm(rng, n=40, d=4) if kind == "svm"
               else tiny_glm(rng, "logistic", n=40, d=4))
    tr = tracer.Tracer()
    with tracer.instrumented(tr):
        traced = tracer.instrument_problem(tr, problem)
        ppg.ppg_run(traced, ppg.SolveOptions(alpha=1.0, max_iters=1))
        sppg.sppg_run(traced, ppg.SolveOptions(alpha=1.0, max_iters=40),
                      sppg.IndexSampler(0, 40))
    calls = tr.calls
    assert calls["ppg.run"] == 1 and calls["sppg.run"] == 1
    # one ppg sweep, and the sppg probes before and after its epoch
    assert calls["problems.batched_g_prox"] == 3
    assert calls["kernels.hinge_sppg_block"] >= 1
    assert tr.counts["kernels.hinge_sppg_block.steps"] == 40
    assert calls["sppg.take"] >= 1 and calls["core.objective"] >= 3
    assert calls["core.residual_map"] == 2
    assert "problems.g_prox" not in calls


def test_bindings_restored_after_tracing():
    original = (ppg.ppg_run, core.objective, kernels.hinge_sppg_block,
                kernels.rank_one_sppg_block)
    with tracer.instrumented(tracer.Tracer()):
        assert kernels.rank_one_sppg_block is kernels.hinge_sppg_block
        assert kernels.hinge_sppg_block is not original[2]
    assert (ppg.ppg_run, core.objective, kernels.hinge_sppg_block,
            kernels.rank_one_sppg_block) == original
