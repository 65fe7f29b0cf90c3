"""The benchmark's workloads: inputs made from a seed, solver jobs, gates.

Each workload builds its problems from the seed alone, runs a fixed list of
solver jobs, and checks their results.  Library functions are called
through their modules (``ppg.ppg_run``, not a local binding) so that the
tracer's wrappers see every call.
"""

import contextlib
import io as _io
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from proxsplit import baselines, cli, core, ppg, problems, sppg


@dataclass(frozen=True)
class Job:
    """One solver run; ``run`` gets the workload's problems by name.

    ``memory_bound`` marks a job whose time goes to sweeps over arrays
    larger than the cache; the harness scales its times by a reference of
    the same kind.
    """

    name: str
    run: Callable
    memory_bound: bool = False


@dataclass(frozen=True)
class Workload:
    """Inputs, jobs and correctness gates of one benchmark workload.

    ``gates(results, problems)`` maps the finished results by job name to
    failure messages by job name.  ``bypassed`` names, per job, traced
    sites that must not be called at all: the traced run checks that the
    job kept its fast path.
    """

    name: str
    setup: Callable[[int, str], dict]
    jobs: Callable[[int], tuple]
    gates: Callable[[dict, dict], dict] = lambda results, probs: {}
    bypassed: dict = field(default_factory=dict)


def _ppg_job(max_iters, alpha, tol=0.0, threads=1, memory_bound=False):
    name = "ppg" if threads == 1 else "ppg_pool"
    return Job(name, lambda p: ppg.ppg_run(p["main"], ppg.SolveOptions(
        alpha=alpha, max_iters=max_iters, tol=tol, threads=threads)),
        memory_bound)


def _sppg_job(seed, epochs, alpha):
    def run(p):
        n = p["main"].n
        return sppg.sppg_run(
            p["main"], ppg.SolveOptions(alpha=alpha, max_iters=epochs * n),
            sppg.IndexSampler(seed, n))

    return Job("sppg", run)


# -- gl-desk: the group-lasso desk experiment ---------------------------------

GL_TOL = 1e-10
GL_MAX_ITERS = 20000
GL_SPPG_EPOCHS = 300


def gl_desk_setup(seed: int, workdir: str) -> dict:
    """The acceptance suite's group-lasso desk instance (m=300, d=42, n=3,
    lambda1=0.1, alpha=1) with its rows and coordinates relabelled by a
    permutation drawn from the seed; seed 0 keeps the instance as it is.

    Every seed poses the same problem, so the time to the tolerance differs
    between seeds by noise alone; fresh random instances would need between
    174 and 416 iterations (seeds 0 to 11) and swamp any change.
    """
    rng = np.random.default_rng(0)
    m, d, n = 300, 42, 3
    a_mat = rng.standard_normal((m, d))
    support = rng.permutation(d)[:4]
    x_true = np.zeros(d)
    x_true[support] = rng.standard_normal(4)
    b = a_mat @ x_true + 0.1 * rng.standard_normal(m)
    partition = problems.staggered_partition(d, n)
    if seed:
        perm = np.random.default_rng(seed)
        rows, cols = perm.permutation(m), perm.permutation(d)
        new_index = np.argsort(cols)
        a_mat, b = a_mat[rows][:, cols], b[rows]
        partition = problems.GroupPartition(collections=tuple(
            tuple(tuple(sorted(int(new_index[j]) for j in grp))
                  for grp in coll)
            for coll in partition.collections))
    return {"main": problems.build_group_lasso(a_mat, b, 0.1, partition,
                                               alpha=1.0)}


def gl_desk_jobs(seed: int) -> tuple:
    admm = Job("admm", lambda p: baselines.consensus_admm_run(
        p["main"], ppg.SolveOptions(alpha=1.0, max_iters=GL_MAX_ITERS,
                                    tol=GL_TOL)))
    return (_ppg_job(GL_MAX_ITERS, 1.0, GL_TOL), admm,
            _sppg_job(seed, GL_SPPG_EPOCHS, 1.0))


def gl_desk_gates(results: dict, probs: dict) -> dict:
    fails = {}
    run = results.get("ppg")
    if run is not None:
        resid = np.array([row.residual_norm for row in run.log.rows])
        rises = int(np.sum(resid[1:] > resid[:-1] + 1e-12))
        fails["ppg"] = ([] if run.converged else ["did not reach tol"]) + (
            [f"residual rose {rises} times"] if rises else [])
    admm = results.get("admm")
    if admm is not None:
        fails["admm"] = [] if admm.converged else ["did not reach tol"]
        if run is not None:
            gap = float(np.linalg.norm(run.x - admm.x))
            if gap > 1e-6:
                fails["admm"].append(f"|x_ppg - x_admm| = {gap:.2e} > 1e-6")
    return fails


# -- svm-desk: the SVM desk experiment ----------------------------------------

SVM_N, SVM_D, SVM_LAM = 8192, 128, 0.1
SVM_ALPHA, SVM_EPOCHS = 10.0, 30
# spi's rate per step does not depend on the epoch count; 10 epochs in
# place of 30 leave time for more samples of the other jobs
SPI_C, SPI_EPOCHS = 16.0, 10


def svm_desk_setup(seed: int, workdir: str) -> dict:
    """The acceptance suite's SVM recipe drawn from ``seed``, in both the
    split form (ridge in r) and the folded prox-only form."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(SVM_D)
    u /= np.linalg.norm(u)
    labels = np.where(rng.random(SVM_N) < 0.5, 1.0, -1.0)
    feats = rng.standard_normal((SVM_N, SVM_D)) \
        + labels[:, None] * u[None, :]
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    data = problems.SvmData(feats, labels, lam=SVM_LAM)
    return {"main": problems.build_svm(data),
            "folded": problems.build_svm(data, fold_ridge=True)}


def svm_desk_jobs(seed: int) -> tuple:
    def spi(p):
        n = p["folded"].n
        return baselines.stochastic_prox_iteration_run(
            p["folded"], baselines.DiminishingStep(SPI_C),
            sppg.IndexSampler(seed, n),
            ppg.SolveOptions(max_iters=SPI_EPOCHS * n))

    # the batched ppg sweep streams the n x d arrays; the sppg and spi
    # kernels step through them a row at a time in interpreted code
    return (_ppg_job(SVM_EPOCHS, SVM_ALPHA, memory_bound=True),
            _sppg_job(seed, SVM_EPOCHS, SVM_ALPHA), Job("spi", spi))


def svm_desk_gates(results: dict, probs: dict) -> dict:
    fails = {}
    full, stoch = results.get("ppg"), results.get("sppg")
    if full is not None and stoch is not None:
        # criterion 8 of the acceptance suite
        problem = probs["main"]
        obj_full = core.objective(full.x, problem)
        parity = abs(core.objective(stoch.x, problem) - obj_full) \
            / abs(obj_full)
        fails["sppg"] = [] if parity <= 1e-3 else [
            f"objective parity {parity:.2e} > 1e-3"]
    return fails


# -- glm-logistic and fused-lasso: generated files, loaded by the CLI --------

# The cost per sweep or epoch is what is measured; short jobs give a run
# of a few tens of seconds several rounds of samples.
GLM_SWEEPS, GLM_EPOCHS = 5, 4
FUSED_SWEEPS, FUSED_EPOCHS = 10, 4


def generated_setup(kind: str, *gen_args: str):
    """Setup that writes ``proxsplit gen <kind>`` files and loads them back
    through ``cli.load_problem``, as a user of the CLI would."""

    def setup(seed: int, workdir: str) -> dict:
        out = os.path.join(workdir, kind)
        with contextlib.redirect_stdout(_io.StringIO()):
            code = cli.main(["gen", kind, "--out", out, "--seed", str(seed),
                             *gen_args])
        if code != 0:
            raise RuntimeError(f"proxsplit gen {kind} exited with {code}")
        return {"main": cli.load_problem(os.path.join(out, "problem.json"))}

    return setup


def glm_jobs(seed: int) -> tuple:
    # GLM terms carry no Lipschitz bound; alpha=1 is the CLI's fallback.
    # The only workload whose ppg job also runs on the thread pool: its
    # per-term prox is costly enough for the pool to have work to share.
    return (_ppg_job(GLM_SWEEPS, 1.0), _ppg_job(GLM_SWEEPS, 1.0, threads=2),
            _sppg_job(seed, GLM_EPOCHS, 1.0))


def fused_jobs(seed: int) -> tuple:
    # alpha=None selects 1/L from the smooth terms
    return (_ppg_job(FUSED_SWEEPS, None), _sppg_job(seed, FUSED_EPOCHS, None))


WORKLOADS = {w.name: w for w in (
    Workload("gl-desk", gl_desk_setup, gl_desk_jobs, gl_desk_gates),
    Workload("svm-desk", svm_desk_setup, svm_desk_jobs, svm_desk_gates,
             bypassed={job: ("problems.g_prox", "prox.hinge")
                       for job in ("ppg", "sppg")}),
    Workload("glm-logistic",
             generated_setup("glm", "--family", "logistic", "--n", "2000",
                             "--d", "50"), glm_jobs),
    Workload("fused-lasso",
             generated_setup("fused-lasso", "--n", "1000", "--d", "100"),
             fused_jobs),
)}
