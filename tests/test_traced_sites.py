"""The benchmark's tracer and jobs (perfbench/) against the library.

The tracer wraps library functions and problem handles by name, and the
jobs call the solvers with fixed arguments.  These tests load both files
unchanged: they trace one ppg sweep, one sppg epoch and one spi run on tiny
SVM and GLM problems, and run the ppg job at both thread arguments it is
given, so renaming a traced name or removing an argument the jobs pass
fails this suite and not only a benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from conftest import tiny_glm, tiny_svm
from proxsplit import baselines, core, io, kernels, ppg, problems, sppg

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


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


@pytest.mark.parametrize("kind", ["svm", "glm"])
def test_spi_runs_on_the_traced_kernel_site(rng, kind):
    # the benchmark's spi job counts its steps at kernels.hinge_spi_block
    # (the fifth positional argument is the index block) and expects no
    # per-term prox
    problem = (tiny_svm(rng, n=40, d=4, fold_ridge=True) if kind == "svm"
               else tiny_glm(rng, "logistic", n=40, d=4))
    steps = 3 * problem.n + 7
    tr = tracer.Tracer()
    with tracer.instrumented(tr):
        traced = tracer.instrument_problem(tr, problem)
        res = baselines.stochastic_prox_iteration_run(
            traced, baselines.DiminishingStep(2.0), sppg.IndexSampler(0, 40),
            ppg.SolveOptions(max_iters=steps))
    assert res.log.metadata["path"] == "kernel"
    assert tr.calls["baselines.spi"] == 1
    assert tr.counts["kernels.hinge_spi_block.steps"] == steps
    assert "problems.g_prox" not in tr.calls


def test_bindings_restored_after_tracing():
    original = (ppg.ppg_run, core.objective, kernels.hinge_sppg_block,
                kernels.rank_one_sppg_block, kernels.hinge_spi_block,
                kernels.rank_one_spi_block)
    with tracer.instrumented(tracer.Tracer()):
        assert kernels.rank_one_sppg_block is kernels.hinge_sppg_block
        assert kernels.hinge_sppg_block is not original[2]
        assert kernels.rank_one_spi_block is kernels.hinge_spi_block
        assert kernels.hinge_spi_block is not original[4]
    assert (ppg.ppg_run, core.objective, kernels.hinge_sppg_block,
            kernels.rank_one_sppg_block, kernels.hinge_spi_block,
            kernels.rank_one_spi_block) == original


def test_ppg_job_thread_argument_is_inert(rng, tmp_path):
    # the benchmark passes threads=1 to every ppg job and threads=2 to its
    # ppg_pool job; SolveOptions must accept both and run the same sweep
    a_mat = rng.standard_normal((20, 8))
    problem = problems.build_group_lasso(
        a_mat, rng.standard_normal(20), 0.1,
        problems.staggered_partition(8, 2, group_size=4, stagger=2))
    blobs = []
    for threads in (1, 2):
        job = workloads._ppg_job(30, 1.0, threads=threads)
        result = job.run({"main": problem})
        for row in result.log.rows:
            row.wall_time_s = None
        path = tmp_path / f"{job.name}.csv"
        io.write_metrics_csv(result.log, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
