"""proxsplit benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload gl-desk --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` without installing it.  The workloads, the metrics and their units
are declared in ``BENCHMARK.json`` at the root.  With ``--trace 0`` the run
times the workload's solver jobs with tracing off and reports every
end-to-end metric as the interquartile mean of its samples, times scaled to
a reference host speed (see ``harness``); with ``--trace 1`` it runs them
untraced and traced and reports every per-layer metric.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A job
counts as failed when it raises or misses one of its correctness gates.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _metadata(seed: int) -> dict:
    import numpy
    import scipy
    from proxsplit import kernels
    return {
        "backend": kernels.resolved_backend(),
        "numba_importable": kernels.numba_available(),
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "revision": _revision(),
        "seed": seed,
    }


def interquartile_mean(values):
    """The mean of the samples left after dropping a quarter of them on
    each side, at least one each when there are three or more.  Between
    runs it varies less than the median does, and a stalled sample does not
    move it."""
    ordered = sorted(values)
    cut = (len(ordered) + 1) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def slow_decile(values, better):
    """The decile on the slow side of a metric's samples: the 90th
    percentile of a time, the 10th of a rate."""
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[-1] if better == "lower" else cuts[0]


def _print_samples(samples, declared):
    print(f"{'metric':<18} {'unit':<8} {'iq-mean':>14} {'median':>14} "
          f"{'slow decile':>14} {'n':>5}")
    for name, spec in declared.items():
        vals = samples.get(name)
        if not vals:
            print(f"{name:<18} {spec['unit']:<8} {'n/a':>14}")
            continue
        label = "p90" if spec["better"] == "lower" else "p10"
        print(f"{name:<18} {spec['unit']:<8} "
              f"{interquartile_mean(vals):>14.6g} "
              f"{statistics.median(vals):>14.6g} "
              f"{slow_decile(vals, spec['better']):>10.6g} {label} "
              f"{len(vals):>5}")


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads its BLAS
    src = ROOT / "src"
    if not (src / "proxsplit" / "__init__.py").is_file():
        print(f"error: no proxsplit sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    key = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in spec[key]}
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            values, tally, messages = harness.trace(
                workload, args.seed, args.seconds, str(workdir))
        else:
            samples, raw, tally, messages = harness.measure(
                workload, args.seed, args.seconds, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print("# meta " + json.dumps(_metadata(args.seed), sort_keys=True))
    for line in messages:
        print(f"# FAILED {line}")
    if args.trace:
        for name, value in values.items():
            print(f"{name:<44} {value:>16.6g} {declared[name]['unit']}")
        metrics = {name: {"value": values[name], "unit": m["unit"]}
                   for name, m in declared.items()}
    else:
        # figures of the jobs only some workloads run are per-layer
        # metrics; they are shown here too for the workloads that run them
        units = {m["name"]: m
                 for m in spec["end_to_end"] + spec["per_layer"]}
        _print_samples(samples, {**declared, **{
            name: units[name] for name in samples if name not in declared}})
        print(f"fail_ratio {tally.failed}/{tally.attempted} jobs")
        # timed metrics are scaled to the reference host speed; the
        # unscaled wall seconds of the same calls, for comparison
        for name, vals in raw.items():
            print(f"raw {name:<22} s"
                  f"{interquartile_mean(vals):>14.6g} "
                  f"{statistics.median(vals):>14.6g} {'':>14} "
                  f"{len(vals):>5}")
        metrics = {name: {"value": interquartile_mean(samples[name]),
                          "unit": m["unit"]}
                   for name, m in declared.items() if samples.get(name)}
    correct = tally.failed == 0 and len(metrics) == len(declared)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
