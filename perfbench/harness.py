"""Runs a workload's jobs in rounds and turns the rounds into metrics.

An untimed, truncated pass over the jobs comes first: it warms code paths
and, in the end-to-end run, measures peak allocation under ``tracemalloc``
so that allocation tracking never slows a timed job.  Timed rounds of set-up
and every job then follow until the time budget is spent.  The traced run
repeats each job untraced and traced, so the difference is the tracing
overhead.

On a shared host (measured on 2 vCPUs of an x86-64 cloud host) the same
job's wall time drifts by up to a factor of two within minutes, and the
results of 30-second runs differ by 7-40% (quartile distance over median).
So a fixed reference computation is timed between every two timed calls,
and each timed call is reported scaled to the host speed at which the
reference takes its typical time: its seconds times that time over the
median of the reference times nearest it.  Jobs that stream arrays larger
than the cache have a reference of their own, because they slow down far
less than interpreted code.  This brings the spread of run results down to
2-8%; it does not reach zero because the jobs do not slow down in exact
proportion to their reference.  The timed end-to-end metrics are taken
from the scaled samples; the raw ones are printed beside them.
"""

import os
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from proxsplit import io

import tracer as tracing

# Set-up runs again at the start of every round, until it has taken this
# long, so that its samples span the run as the jobs' samples do.
SETUP_MIN_S = 0.25
# The truncated pass stops each job when it is about to write its second
# metrics row.  By then it has made its up-front allocations (state,
# pre-drawn index stream), one block of steps and one full record, which
# is where its allocation peaks; running every job to the end under
# tracemalloc would cost four to five times its untraced run time.
TRUNCATE_AFTER_ROWS = 1

_REFERENCE_VEC = np.linspace(0.0, 1.0, 1 << 16)  # 512 KiB, fits in L2
_REFERENCE_CHOL = scipy.linalg.cho_factor(
    np.eye(14) + np.outer(np.arange(14.0), np.arange(14.0)) / 100.0)
# the size of one n x d array of svm-desk, far larger than the L2 cache
_REFERENCE_MATRIX = np.linspace(0.0, 1.0, 8192 * 128).reshape(8192, 128)


def interpreter_work():
    """Fixed work that mixes what most jobs spend their time on: the
    interpreter, numpy calls on short vectors, a sweep over an array the
    size of a cache level, and a solver-like loop of many distinct numpy
    and scipy calls with per-iteration bookkeeping."""
    acc = 0.0
    for i in range(40000):
        acc += i * 0.5
    short = np.ones(42)
    for _ in range(900):
        short = short * 0.999 + 0.001
    vec = _REFERENCE_VEC
    for _ in range(20):
        vec = np.sqrt(vec * vec + 1.0)
    x, v, rows = np.zeros(14), np.ones(14), []
    for k in range(150):
        w = scipy.linalg.cho_solve(_REFERENCE_CHOL, v + x)
        z = np.maximum(np.abs(w) - 0.01, 0.0) * np.sign(w)
        x = 0.5 * (x + z)
        v = np.clip(v - 0.1 * z, -1.0, 1.0)
        if k % 10 == 0:
            rows.append({"k": k, "norm": float(np.linalg.norm(w)),
                         "dot": float(np.dot(v, z))})
    return acc + float(short[0] + vec[0]) + len(rows)


def memory_work():
    """Fixed work like a batched sweep: allocating elementwise operations
    and row reductions streamed over an array larger than the cache."""
    total = 0.0
    for _ in range(3):
        total += float((_REFERENCE_MATRIX * 0.5).sum(axis=1)[0])
    return total


@dataclass(frozen=True)
class Reference:
    """A fixed computation that does not call the library, so a change to
    the library leaves its time as it is, and about its median seconds on
    the host named above; scaled times read as seconds at that speed."""

    name: str
    work: Callable
    typical_s: float

    def seconds(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0


# Interpreted code and numpy calls on short vectors slow down on a busy
# host about as much as INTERPRETER does, or a little more; a sweep over
# arrays larger than the cache hardly slows down, as MEMORY.
INTERPRETER = Reference("interpreter_reference", interpreter_work, 0.0145)
MEMORY = Reference("memory_reference", memory_work, 0.0066)


class Stretch:
    """Timed calls made one after another, with the reference timed
    before the first, between every two and after the last."""

    def __init__(self, reference):
        self.reference = reference
        self.refs = [reference.seconds()]
        self.seconds = []

    def add(self, seconds):
        self.seconds.append(seconds)
        self.refs.append(self.reference.seconds())

    def scaled(self):
        """Each call's seconds at the host speed where the reference takes
        its typical time, by the median of the reference times nearest the
        call: two before it and two after, fewer at the ends."""
        refs, typical = self.refs, self.reference.typical_s
        return [sec * typical / statistics.median(refs[max(0, i - 1):i + 3])
                for i, sec in enumerate(self.seconds)]


# The jobs whose figures are end-to-end metrics run again within a round
# until they have taken JOB_MIN_S, so that they contribute several samples
# to every round.  The other jobs (admm, spi, ppg_pool) give per-layer
# figures and feed the gates; they run once a round.
REPEATED_JOBS = ("ppg", "sppg")
JOB_MIN_S = 1.0


def _seconds(out):
    return out.scaled_s


def _steps_per_s(out):
    return out.result.state.k / out.scaled_s


# the samples each run of a job contributes, by metric
JOB_METRICS = {
    "ppg": (("ppg_s", _seconds),
            ("ppg_iters", lambda out: out.result.state.k)),
    "ppg_pool": (("ppg_pool_s", _seconds),),
    "sppg": (("sppg_steps_per_s", _steps_per_s),),
    "admm": (("admm_s", _seconds),),
    "spi": (("spi_steps_per_s", _steps_per_s),),
}
JOB_NAMES = tuple(JOB_METRICS)


@dataclass
class Outcome:
    seconds: float
    result: object = None
    scaled_s: float = 0.0
    csv: bytes = b""
    error: str = ""


def run_job(job, probs, csv_path) -> Outcome:
    """Run one job; its metrics CSV is written without timing columns."""
    t0 = time.perf_counter()
    try:
        result = job.run(probs)
    except Exception as exc:  # a failed job is counted, the run goes on
        return Outcome(time.perf_counter() - t0,
                       error=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    for row in result.log.rows:
        row.wall_time_s = None
    io.write_metrics_csv(result.log, csv_path)
    with open(csv_path, "rb") as fh:
        return Outcome(seconds, result, fh.read())


def run_round(jobs, probs, workdir, repeat=()) -> tuple:
    """``(job name, outcome)`` for every run of every job in one round, and
    the stretches that timed them.  Jobs named in ``repeat`` run until
    their runs have taken JOB_MIN_S, the others once."""
    runs, stretches = [], []
    for job in jobs:
        stretch = Stretch(MEMORY if job.memory_bound else INTERPRETER)
        outs, spent = [], 0.0
        while True:
            out = run_job(job, probs, _csv(workdir, job.name))
            stretch.add(out.seconds)
            outs.append(out)
            spent += out.seconds
            if out.error or job.name not in repeat or spent >= JOB_MIN_S:
                break
        for out, seconds in zip(outs, stretch.scaled()):
            out.scaled_s = seconds
        runs.extend((job.name, out) for out in outs)
        stretches.append(stretch)
    return runs, stretches


def check_round(workload, runs, probs, reference) -> list:
    """``(job name, failure messages)`` for every run of one round.

    ``reference`` holds the first CSV written by each job; every later run
    of that job must write the same bytes.  The gates that compare jobs
    see the last run of each.
    """
    checked = []
    for name, out in runs:
        msgs = []
        if out.error:
            msgs.append(out.error)
        else:
            if not np.all(np.isfinite(out.result.x)):
                msgs.append("non-finite solution")
            if out.csv != reference.setdefault(name, out.csv):
                msgs.append("metrics CSV differs from the first run")
        checked.append((name, msgs))
    last, last_msgs = dict(runs), dict(checked)
    pool, single = last.get("ppg_pool"), last.get("ppg")
    if pool and single and not (pool.error or single.error) \
            and pool.csv != single.csv:
        last_msgs["ppg_pool"].append("threads=2 CSV differs from threads=1")
    results = {n: o.result for n, o in last.items() if not o.error}
    for name, msgs in workload.gates(results, probs).items():
        last_msgs[name].extend(msgs)
    return checked


class _Truncated(Exception):
    """Ends a job of the truncated pass at its second metrics row."""


def truncated_pass(jobs, probs, measure_alloc: bool) -> float:
    """Run each job up to its second metrics row.

    With ``measure_alloc`` returns the sum over the jobs of each job's
    tracemalloc peak above what was allocated when it started, in MB; a
    sum, so that a saving in any one job shows.
    """
    rows = [0]

    def counting(report_cls):
        def report(*args, **kwargs):
            rows[0] += 1
            if rows[0] > TRUNCATE_AFTER_ROWS:
                raise _Truncated
            return report_cls(*args, **kwargs)
        return report

    total = 0
    with tracing.replaced("core", "ResidualReport", counting):
        if measure_alloc:
            tracemalloc.start()
        try:
            for job in jobs:
                rows[0] = 0
                if measure_alloc:
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                try:
                    job.run(probs)
                except Exception:  # _Truncated, or a failure the timed
                    pass           # rounds will count
                if measure_alloc:
                    total += tracemalloc.get_traced_memory()[1] - base
        finally:
            if measure_alloc:
                tracemalloc.stop()
    return total / 1e6


def _timed_setups(workload, seed, workdir, samples, raw):
    """Set up at least once and until SETUP_MIN_S has passed, appending
    each scaled and raw time; returns the last problems built."""
    t_end = time.perf_counter() + SETUP_MIN_S
    stretch = Stretch(INTERPRETER)
    while True:
        t0 = time.perf_counter()
        probs = workload.setup(seed, workdir)
        stretch.add(time.perf_counter() - t0)
        if time.perf_counter() >= t_end:
            break
    samples.extend(stretch.scaled())
    raw.extend(stretch.seconds)
    return probs


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def count(self, checked, messages, label):
        self.attempted += len(checked)
        for name, msgs in checked:
            if msgs:
                self.failed += 1
                messages.append(f"{label} {name}: {'; '.join(msgs)}")


def _rounds(seconds, start):
    """Round numbers while the time budget, counted from ``start``, lasts:
    a round starts only if one more round as long as the last still ends
    within the budget, and the first round always runs."""
    last = time.perf_counter()
    rnd = 0
    while True:
        yield rnd
        rnd += 1
        now = time.perf_counter()
        if now + (now - last) - start > seconds:
            return
        last = now


def measure(workload, seed, seconds, workdir):
    """End-to-end run: returns (samples by metric, raw seconds by metric,
    tally, failure lines).  Timed samples are scaled; ``raw`` holds the
    unscaled wall seconds of the timed calls."""
    start = time.perf_counter()
    samples, raw = defaultdict(list), defaultdict(list)
    INTERPRETER.work()  # warm
    MEMORY.work()
    probs = _timed_setups(workload, seed, workdir, samples["setup_s"],
                          raw["setup_s"])
    jobs = workload.jobs(seed)
    samples["peak_alloc_mb"] = [truncated_pass(jobs, probs, True)]
    tally, messages, reference = Tally(), [], {}
    for rnd in _rounds(seconds, start):
        if rnd:
            _timed_setups(workload, seed, workdir, samples["setup_s"],
                          raw["setup_s"])
        runs, stretches = run_round(jobs, probs, workdir, REPEATED_JOBS)
        for stretch in stretches:
            raw[stretch.reference.name].extend(stretch.refs)
        tally.count(check_round(workload, runs, probs, reference),
                    messages, f"round {rnd}")
        for name, out in runs:
            if not out.error:
                raw[f"{name}_wall_s"].append(out.seconds)
                for metric, value in JOB_METRICS.get(name, ()):
                    samples[metric].append(value(out))
    return samples, raw, tally, messages


def trace(workload, seed, seconds, workdir):
    """Traced run: returns (per-layer values, tally, failure lines).

    Each round runs every job untraced, then sets up again and runs every
    job traced.  Call counts and extra counters are taken from the first
    round and must repeat exactly in every later one; self times and
    overheads are medians over rounds.
    """
    start = time.perf_counter()
    probs = workload.setup(seed, workdir)
    jobs = workload.jobs(seed)
    truncated_pass(jobs, probs, False)
    tally, messages, reference = Tally(), [], {}
    counters, self_s = None, defaultdict(list)
    overhead, untraced = defaultdict(list), defaultdict(list)
    per_iter = 0.0
    for rnd in _rounds(seconds, start):
        label = f"round {rnd}"
        plain = dict(run_round(jobs, probs, workdir)[0])
        tally.count(check_round(workload, list(plain.items()), probs,
                                reference), messages, f"{label} untraced")
        tr = tracing.Tracer()
        traced, job_calls = {}, {}
        with tracing.instrumented(tr):
            probs_t = workload.setup(seed, workdir)
            inst = {k: tracing.instrument_problem(tr, v)
                    for k, v in probs_t.items()}
            for job in jobs:
                before = Counter(tr.calls)
                traced[job.name] = run_job(job, inst, _csv(workdir, job.name))
                job_calls[job.name] = Counter(tr.calls) - before
        # the traced CSVs must equal the untraced ones (the path guard)
        checked = check_round(workload, list(traced.items()), probs_t,
                              reference)
        fails = dict(checked)
        for name, sites in workload.bypassed.items():
            called = [s for s in sites if job_calls.get(name, {}).get(s)]
            if called:
                fails[name].append(f"fast path left: {called} called")
        if counters is None:
            counters = tr.counters()
            ppg_out = traced.get("ppg")
            if ppg_out and not ppg_out.error and ppg_out.result.state.k:
                per_iter = (job_calls["ppg"]["core.objective"]
                            / ppg_out.result.state.k)
        elif tr.counters() != counters:
            for name in fails:
                fails[name].append("traced counts differ from round 0")
        tally.count(checked, messages, f"{label} traced")
        for site in tracing.SITES:
            self_s[site].append(tr.self_s.get(site, 0.0))
        for name, out in plain.items():
            if not (out.error or traced[name].error):
                overhead[name].append(traced[name].seconds - out.seconds)
                for metric, value in JOB_METRICS.get(name, ()):
                    untraced[metric].append(value(out))
    values = {}
    for site in tracing.SITES:
        values[f"{site}.calls"] = counters.get(f"{site}.calls", 0)
        values[f"{site}.self_s"] = statistics.median(self_s[site])
    for name in tracing.EXTRA_COUNTS:
        values[name] = counters.get(name, 0)
    values["core.objective.per_iter"] = per_iter
    # untraced figures of the jobs only some workloads run
    for metric in ("admm_s", "spi_steps_per_s", "ppg_pool_s"):
        values[metric] = _median_or_zero(untraced[metric])
    for name in JOB_NAMES:
        values[f"trace.overhead_s.{name}"] = _median_or_zero(overhead[name])
    return values, tally, messages


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


def _csv(workdir, job_name):
    return os.path.join(workdir, f"{job_name}.csv")
