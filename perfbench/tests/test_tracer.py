"""Tests of the benchmark's tracer and harness.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from proxsplit import core, ppg, problems  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def tick(seconds, *inner):
        def fn():
            clock.t += seconds
            for call in inner:
                call()
        return fn

    leaf = tr.wrap("leaf", tick(4))
    first = tr.wrap("inner", tick(2, leaf))
    second = tr.wrap("inner", tick(16))
    tr.wrap("outer", tick(1, first, tick(8), second))()
    assert dict(tr.calls) == {"outer": 1, "inner": 2, "leaf": 1}
    assert dict(tr.self_s) == {"outer": 9.0, "inner": 18.0, "leaf": 4.0}


def test_wrapped_call_that_raises_still_closes_its_span():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def boom():
        clock.t += 3
        raise ValueError("boom")

    def outer():
        with pytest.raises(ValueError):
            tr.wrap("boom", boom)()
        clock.t += 1

    tr.wrap("outer", outer)()
    assert tr.calls["boom"] == 1
    assert tr.self_s == {"boom": 3.0, "outer": 1.0}


def test_worker_thread_spans_are_roots_and_counts_are_not_lost():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)
    work = tr.wrap("work", lambda: None)
    threads = [threading.Thread(target=lambda: [work() for _ in range(2000)])
               for _ in range(4)]

    def main():
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        clock.t += 5

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tr.wrap("main", main)()
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert tr.calls["work"] == 8000
    assert tr.self_s["main"] == 5.0


def tiny_setup(seed, workdir):
    rng = np.random.default_rng(seed)
    a_mat = rng.standard_normal((30, 12))
    b = a_mat @ rng.standard_normal(12)
    return {"main": problems.build_group_lasso(
        a_mat, b, 0.1, problems.staggered_partition(12, 2), alpha=1.0)}


def tiny_jobs(seed):
    return (workloads._ppg_job(2000, 1.0, 1e-9),
            workloads._ppg_job(2000, 1.0, 1e-9, threads=2),
            workloads._sppg_job(seed, 20, 1.0))


TINY = workloads.Workload("tiny", tiny_setup, tiny_jobs)


def test_instrumented_problem_keeps_paths_and_results():
    svm = workloads.svm_desk_setup(0, "")["main"]
    small = problems.build_svm(problems.SvmData(
        svm.structure.features[:64], svm.structure.labels[:64], lam=0.1))
    traced = tracer.instrument_problem(tracer.Tracer(), small)
    assert traced.structure is small.structure
    assert traced.batched_objective is small.batched_objective
    assert traced.batched_g_prox is not None
    assert [f.is_zero for f in traced.f] == [f.is_zero for f in small.f]
    opts = ppg.SolveOptions(alpha=10.0, max_iters=5)
    assert np.array_equal(ppg.ppg_run(traced, opts).x,
                          ppg.ppg_run(small, opts).x)


def test_instrumented_restores_every_binding():
    original = (ppg.ppg_run, core.objective, ppg.objective,
                core.chunked_row_mean)
    with tracer.instrumented(tracer.Tracer()):
        assert ppg.objective is core.objective
        assert core.objective is not original[1]
    assert (ppg.ppg_run, core.objective, ppg.objective,
            core.chunked_row_mean) == original


def test_call_counts_repeat_exactly_on_a_tiny_instance(tmp_path):
    values, tally, messages = harness.trace(TINY, 0, 0.0, str(tmp_path))
    again, _, _ = harness.trace(TINY, 0, 0.0, str(tmp_path))
    counts = {k: v for k, v in values.items() if not k.endswith("_s")
              and not k.startswith("trace.")}
    assert counts == {k: again[k] for k in counts}
    assert values["ppg.run.calls"] == 2
    assert values["sppg.take.draws"] == 20 * 2
    assert values["core.objective.per_iter"] == 1.0
    assert tally.failed == 0, messages


def test_stretch_scales_each_call_by_the_nearest_reference_times(
        monkeypatch):
    refs = iter([2.0, 4.0, 6.0, 8.0, 10.0])
    reference = harness.Reference("fake", None, 0.5)
    monkeypatch.setattr(harness.Reference, "seconds", lambda self: next(refs))
    stretch = harness.Stretch(reference)
    for seconds in (1.0, 1.0, 1.0, 1.0):
        stretch.add(seconds)
    r = reference.typical_s
    # medians of (2, 4, 6), (2, 4, 6, 8), (4, 6, 8, 10), (6, 8, 10)
    assert stretch.scaled() == [r / 4.0, r / 5.0, r / 7.0, r / 8.0]


def test_interquartile_mean_drops_a_quarter_on_each_side():
    assert run.interquartile_mean([5.0]) == 5.0
    assert run.interquartile_mean([1.0, 2.0, 9.0]) == 2.0
    assert run.interquartile_mean([1.0, 2.0, 4.0, 90.0]) == 3.0
    assert run.interquartile_mean([9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 80.0]) \
        == 4.5


def test_forced_gate_failure_counts_as_a_failed_job(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "JOB_MIN_S", 0.0)

    def fail_ppg(results, probs):
        return {"ppg": ["forced"]}

    broken = workloads.Workload("tiny", tiny_setup, tiny_jobs, fail_ppg)
    samples, _, tally, messages = harness.measure(broken, 0, 0.0,
                                                  str(tmp_path))
    assert (tally.attempted, tally.failed) == (3, 1)
    assert messages == ["round 0 ppg: forced"]


def test_raising_job_counts_as_a_failed_job(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "JOB_MIN_S", 0.0)

    def jobs(seed):
        return (*tiny_jobs(seed), workloads.Job("bad", lambda p: 1 / 0))

    samples, _, tally, messages = harness.measure(
        workloads.Workload("tiny", tiny_setup, jobs), 0, 0.0, str(tmp_path))
    assert (tally.attempted, tally.failed) == (4, 1)
    assert "ZeroDivisionError" in messages[0]


def test_declared_metrics_match_what_the_harness_reports(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gl = workloads.WORKLOADS["gl-desk"]
    values, tally, _ = harness.trace(gl, 0, 0.0, str(tmp_path))
    assert set(values) == {m["name"] for m in spec["per_layer"]}
    samples, _, tally, _ = harness.measure(gl, 0, 0.0, str(tmp_path))
    assert {m["name"] for m in spec["end_to_end"]} <= set(samples)
    assert set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_run_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gl-desk",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
