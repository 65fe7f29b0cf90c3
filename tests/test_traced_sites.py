"""The benchmark's tracer and jobs (perfbench/) against the library.

The tracer wraps library functions and problem handles by name, and the
jobs call the solvers with fixed arguments.  These tests load both files
unchanged: they trace one ppg sweep, one sppg epoch and one spi run on tiny
SVM and GLM problems, run the ppg job at both thread arguments it is
given, and run every workload's jobs once through its gates, so renaming a
traced name, removing an argument the jobs pass or breaking a job fails
this suite and not only a benchmark run.
"""

import importlib.util
import sys
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
# the harness imports the tracer by its top-level name
sys.modules.setdefault("tracer", tracer)
harness = _load("harness")


@pytest.mark.parametrize("kind", ["svm", "glm"])
def test_sweep_and_epoch_hit_the_traced_sites(rng, kind):
    problem = (tiny_svm(rng, n=40, d=4) if kind == "svm"
               else tiny_glm(rng, "logistic", n=40, d=4))
    tr = tracer.Tracer()
    with tracer.instrumented(tr):
        traced = tracer.instrument_problem(tr, problem)
        ppg.ppg_run(traced, ppg.SolveOptions(alpha=1.0, max_iters=1))
        # the ppg sweep takes its recorded objective from its own product
        # with the rows
        assert "core.objective" not in tr.calls
        sppg.sppg_run(traced, ppg.SolveOptions(alpha=1.0, max_iters=40),
                      sppg.IndexSampler(0, 40))
    calls = tr.calls
    assert calls["ppg.run"] == 1 and calls["sppg.run"] == 1
    # the ppg sweep and the sppg probes before and after its epoch take
    # their betas from the structure, not from the batched hook
    assert calls["problems.batched_g_prox"] == 0
    assert calls["kernels.hinge_sppg_block"] >= 1
    assert tr.counts["kernels.hinge_sppg_block.steps"] == 40
    assert calls["sppg.take"] >= 1 and calls["core.objective"] == 2
    # the probes take no whole-array reference
    assert "core.residual_map" not in calls
    assert "problems.g_prox" not in calls


def test_ergodic_sppg_runs_on_the_traced_kernel_site(rng):
    # the ergodic average no longer moves sppg onto the per-term handles:
    # every step is counted at kernels.hinge_sppg_block
    problem = tiny_svm(rng, n=40, d=4)
    tr = tracer.Tracer()
    with tracer.instrumented(tr):
        traced = tracer.instrument_problem(tr, problem)
        res = sppg.sppg_run(
            traced, ppg.SolveOptions(alpha=1.0, max_iters=100, ergodic=True),
            sppg.IndexSampler(0, 40))
    assert res.log.metadata["path"] == "kernel"
    assert res.ergodic is not None
    assert tr.counts["kernels.hinge_sppg_block.steps"] == 100
    assert "problems.g_prox" not in tr.calls


@pytest.mark.parametrize("kind", ["svm", "glm"])
def test_spi_runs_on_the_traced_kernel_site(rng, kind):
    # the benchmark's spi job counts its steps at kernels.hinge_spi_block
    # (the fifth positional argument is the index block) and expects no
    # per-term prox; its probes run the sweep's block loop through the
    # batched prox, one block per probe on this tiny problem
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
    assert tr.calls["problems.batched_g_prox"] == len(res.log.rows)
    assert "core.residual_map" not in tr.calls
    assert "problems.g_prox" not in tr.calls


@pytest.mark.parametrize("kind", ["svm", "group-lasso"])
def test_admm_runs_on_the_batched_prox_site(rng, kind):
    # ADMM takes the sweep's term points: one batched prox per iteration
    # on these one-block problems, no per-term prox, and its row mean from
    # the blocks' chunk sums rather than core.chunked_row_mean
    problem = tiny_svm(rng, n=40, d=4) if kind == "svm" else \
        problems.build_group_lasso(
            rng.standard_normal((20, 8)), rng.standard_normal(20), 0.1,
            problems.staggered_partition(8, 2, group_size=4, stagger=2))
    tr = tracer.Tracer()
    with tracer.instrumented(tr):
        traced = tracer.instrument_problem(tr, problem)
        baselines.consensus_admm_run(
            traced, ppg.SolveOptions(alpha=1.0, max_iters=7))
    assert tr.calls["baselines.admm"] == 1
    assert tr.calls["problems.batched_g_prox"] == 7
    assert "problems.g_prox" not in tr.calls
    assert "core.row_mean" not in tr.calls


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


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_workload_runs_and_passes_its_gates(tmp_path, name):
    # every benchmark job once at seed 0, with the gates the benchmark
    # applies to its results; a broken job or a missed gate fails here
    workload = workloads.WORKLOADS[name]
    probs = workload.setup(0, str(tmp_path))
    results = {job.name: job.run(probs) for job in workload.jobs(0)}
    assert results
    assert {job: msgs for job, msgs in workload.gates(results, probs).items()
            if msgs} == {}


def test_fused_lasso_jobs_peak_at_z_plus_one_scratch_block(tmp_path):
    # the benchmark's own allocation measure, on its fused-lasso jobs: each
    # job holds z, one sweep block of scratch and hook temporaries of at
    # most ROW_CHUNK rows, so no block-sized temporary comes back unseen
    workload = workloads.WORKLOADS["fused-lasso"]
    probs = workload.setup(0, str(tmp_path))
    problem = probs["main"]
    n, d = problem.n, problem.dim
    blocks = core._row_blocks(n, d, problem.reduce_chunks,
                              core.SWEEP_BLOCK_BYTES)
    bound = (n + max(hi - lo for lo, hi, _ in blocks)
             + 2 * core.ROW_CHUNK) * d * 8 / 1e6 + 0.1
    for job in workload.jobs(0):
        assert harness.truncated_pass([job], probs, True) < bound, job.name


# n-vectors of float64 that a probe of GLM rows may hold beside z: the
# vectorized root of GlmStructure.betas keeps a 9 x n work array, a 4 x n
# int16 array and about a dozen n-vector temporaries per round
GLM_PROBE_VECTORS = 32


def test_glm_sppg_job_peaks_at_z_plus_one_row_chunk(tmp_path):
    # the benchmark's own allocation measure, on glm-logistic's sppg job:
    # its residual probe takes the betas and steps from the structure, a
    # ROW_CHUNK of rows at a time, so the job holds z, one chunk of steps
    # and O(n) numbers, and no scratch block that is the whole of z
    workload = workloads.WORKLOADS["glm-logistic"]
    probs = workload.setup(7, str(tmp_path))
    problem = probs["main"]
    n, d = problem.n, problem.dim
    assert n * d * 8 < 2 * core.SWEEP_BLOCK_BYTES  # z is one sweep block
    bound = ((n + core.ROW_CHUNK) * d + GLM_PROBE_VECTORS * n) * 8 / 1e6
    (job,) = [job for job in workload.jobs(7) if job.name == "sppg"]
    assert harness.truncated_pass([job], probs, True) < bound
