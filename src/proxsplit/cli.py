"""Command-line front end: generate datasets, solve, compare solvers.

Subcommands
-----------
gen      write a synthetic dataset and its problem description JSON
solve    run one solver on a problem description and emit a metrics CSV
compare  run several configurations on the same problem and merge curves

A problem description is a JSON object ``{"kind", "dim", "params", "files"}``
with data file paths relative to the JSON's directory.  A run configuration
is a JSON object with the same field names as the solve flags; flags given
on the command line override the file.  Exit codes: 0 success, 1 error
(bad input, including a usage error such as an unknown flag or choice),
2 iteration budget exhausted before the tolerance, 3 solver failure
(non-finite values from a prox or gradient, or an inner solve that did not
converge), reported on one line naming the term.  Every error is one
``error:`` line on stderr.

``gen`` takes sizes of at least 1 (``--vertices`` at least 2) and makes
``--out`` only once its arrays are made, so a failed ``gen`` leaves no
directory.  A network lasso's ``params["theta"]`` is the builder's
(vertices x block) ``targets``.

Every run is reproducible from (config, seed): metrics files are written
without wall-clock columns unless --timing is given, and every row mean is
summed in chunks fixed at problem construction.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from typing import get_args

import numpy as np

from . import baselines, io, ppg, problems, sppg
from .core import ProblemSpec, SolverError, objective

GEN_KINDS = ("group-lasso", "svm", "fused-lasso", "network-lasso", "glm")
ALGOS = ("ppg", "sppg", "prox-grad", "admm", "spi", "finito")
# solvers whose results carry the ergodic average of their iterates; each
# solver rejects a problem outside its class itself
ERGODIC_ALGOS = ("ppg", "sppg")


@dataclass
class RunConfig:
    """One solver invocation; JSON-serializable, flags override fields."""

    problem: str = ""
    algo: str = "ppg"
    alpha: float | None = None
    tol: float = 0.0
    max_iters: int = 1000
    seed: int = 0
    record_every: int | None = None
    ergodic: bool = False
    timing: bool = False
    spi_c: float | None = None
    metrics_out: str = "metrics.csv"
    seeds: list | None = None  # compare-only: aggregate these seeds


def _config_from(path: str | None, args) -> RunConfig:
    cfg = RunConfig()
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        known = {f.name: f.type for f in fields(RunConfig)}
        for key, val in raw.items():
            if key not in known:
                raise ValueError(f"unknown config field {key!r}")
            # the type its flag parses to: a bool is true or false, an int
            # no bool or float, a real any number but a bool, and null only
            # where the default is None
            types = get_args(known[key]) or (known[key],)
            if isinstance(val, bool) != (bool in types) or not isinstance(
                    val, types + ((int,) if float in types else ())):
                want = " or ".join("null" if t is type(None) else t.__name__
                                   for t in types)
                raise ValueError(f"config field {key!r} must be {want}, "
                                 f"got {json.dumps(val)}")
            if key == "seeds" and val is not None and not all(
                    isinstance(v, int) and not isinstance(v, bool)
                    for v in val):
                raise ValueError("config field 'seeds' must be a list of "
                                 f"ints, got {json.dumps(val)}")
            setattr(cfg, key, val)
    for f in fields(RunConfig):
        val = getattr(args, f.name.replace("-", "_"), None)
        if val is not None:
            setattr(cfg, f.name, val)
    if cfg.algo not in ALGOS:
        raise ValueError(f"algo must be one of {ALGOS}")
    if not cfg.problem:
        raise ValueError("a problem description file is required")
    if cfg.max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {cfg.max_iters}")
    if cfg.ergodic and cfg.algo not in ERGODIC_ALGOS:
        raise ValueError(f"--ergodic is not supported by {cfg.algo}: only "
                         f"{' and '.join(ERGODIC_ALGOS)} average their "
                         "iterates")
    # a bad tol or record_every fails here, before compare's reference run
    _options(cfg)
    return cfg


def _options(cfg: RunConfig) -> ppg.SolveOptions:
    return ppg.SolveOptions(alpha=cfg.alpha, max_iters=cfg.max_iters,
                            tol=cfg.tol, ergodic=cfg.ergodic,
                            record_every=cfg.record_every)


# -- problem descriptions ------------------------------------------------------

def _required(table: dict, key: str, path: str, prefix: str = ""):
    """``table[key]``, the field ``prefix + key`` of the description file
    ``path``; a missing field raises ValueError naming the file and it."""
    if key not in table:
        raise ValueError(f"{path}: missing {prefix}{key}")
    return table[key]


def load_problem(path: str, algo: str = "ppg") -> ProblemSpec:
    """Build the ProblemSpec a description file denotes.

    The SVM kind is built in its prox-only form (ridge folded into every
    term) when the target algorithm requires a zero global term.  A
    missing field raises ValueError naming the file and the field, such as
    ``problem.json: missing params.family``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        desc = json.load(fh)
    if not isinstance(desc, dict):
        raise ValueError(f"{path}: a problem description is a JSON object")
    files, params = desc.get("files", {}), desc.get("params", {})
    for section, table in (("files", files), ("params", params)):
        if not isinstance(table, dict):
            raise ValueError(f"{path}: {section} must be a JSON object")
    base = os.path.dirname(os.path.abspath(path))
    files = {k: os.path.join(base, v) for k, v in files.items()}
    kind = _required(desc, "kind", path)
    file = partial(_required, files, path=path, prefix="files.")
    param = partial(_required, params, path=path, prefix="params.")
    if kind == "group-lasso":
        a_mat = io.read_dense_csv(file("A"))
        b = io.read_dense_csv(file("b")).ravel()
        part = problems.GroupPartition(collections=tuple(
            tuple(tuple(g) for g in coll) for coll in param("groups")))
        return problems.build_group_lasso(a_mat, b, param("lambda1"), part)
    if kind == "svm":
        feats, labels = io.read_libsvm(file("data"), dim=params.get("dim"))
        data = problems.SvmData(features=feats, labels=labels,
                                lam=param("lam"))
        return problems.build_svm(data, fold_ridge=(algo == "spi"))
    if kind == "fused-lasso":
        a_mat = io.read_dense_csv(file("A"))
        y = io.read_dense_csv(file("y")).ravel()
        return problems.build_fused_lasso(a_mat, y, param("lam"),
                                          param("eps"))
    if kind == "network-lasso":
        return problems.build_network_lasso(
            param("theta"), param("edges"), param("lambda1"),
            param("lambda2"))
    if kind == "glm":
        x_mat = io.read_dense_csv(file("X"))
        t_vec = io.read_dense_csv(file("T")).ravel()
        return problems.build_glm(x_mat, t_vec,
                                  problems.glm_family(param("family")))
    raise ValueError(f"unknown problem kind {kind!r}")


def _run(cfg: RunConfig, problem: ProblemSpec, seed: int | None = None,
         x_ref: np.ndarray | None = None) -> ppg.RunResult:
    opts = _options(cfg)
    seed = cfg.seed if seed is None else seed
    if cfg.algo == "ppg":
        return ppg.ppg_run(problem, opts, x_ref=x_ref)
    if cfg.algo == "sppg":
        sampler = sppg.IndexSampler(seed, problem.n)
        return sppg.sppg_run(problem, opts, sampler, x_ref=x_ref)
    if cfg.algo == "prox-grad":
        return baselines.proximal_gradient_run(problem, opts, x_ref=x_ref)
    if cfg.algo == "admm":
        return baselines.consensus_admm_run(problem, opts, x_ref=x_ref)
    if cfg.algo == "spi":
        # spi runs only problems with every f_i zero: there is no 1/L
        c = cfg.spi_c if cfg.spi_c is not None else 1.0
        sampler = sppg.IndexSampler(seed, problem.n)
        return baselines.stochastic_prox_iteration_run(
            problem, baselines.DiminishingStep(c), sampler, opts, x_ref=x_ref)
    if cfg.algo == "finito":
        sampler = sppg.IndexSampler(seed, problem.n)
        return baselines.finito_run(problem, sampler, opts, x_ref=x_ref)
    raise ValueError(f"unknown algo {cfg.algo!r}")


def _strip_timing(log: io.MetricsLog):
    for row in log.rows:
        row.wall_time_s = None


def _write_outputs(cfg: RunConfig, result: ppg.RunResult):
    if not cfg.timing:
        _strip_timing(result.log)
    io.write_metrics_csv(result.log, cfg.metrics_out)
    # the solver's run record, which names a sampled run's seed, with the
    # configuration's solver name
    meta = {
        **result.log.metadata,
        "solver": cfg.algo,
        "revision": io.git_describe(),
    }
    with open(cfg.metrics_out + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_solve(args) -> int:
    cfg = _config_from(args.config, args)
    problem = load_problem(cfg.problem, cfg.algo)
    result = _run(cfg, problem)
    _write_outputs(cfg, result)
    final = result.log.rows[-1]
    obj = objective(result.x, problem)
    line = (f"algo={cfg.algo} iters={result.state.k} "
            f"objective={'n/a' if obj is None else format(obj, '.12g')} "
            f"residual={format(final.residual_norm, '.12g')} "
            f"converged={result.converged}")
    if result.ergodic is not None:
        erg_obj = objective(result.ergodic, problem)
        if erg_obj is not None:
            line += f" ergodic_objective={format(erg_obj, '.12g')}"
    print(line)
    return 0 if result.converged else 2


# -- compare -------------------------------------------------------------------

MERGED_HEADER = ("algo,k,epoch,residual_norm,objective,dist_to_ref,"
                 "residual_norm_sd,objective_sd,dist_to_ref_sd")


def _aggregate(logs):
    """Align multi-seed logs on k and average each numeric column."""
    ks = [r.k for r in logs[0].rows]
    for log in logs[1:]:
        if [r.k for r in log.rows] != ks:
            raise ValueError("seed runs recorded at different iterations")
    out = []
    for j, k in enumerate(ks):
        cols = {}
        for name in ("residual_norm", "objective", "dist_to_ref"):
            vals = [getattr(log.rows[j], name) for log in logs]
            if any(v is None for v in vals):
                cols[name] = (None, None)
            else:
                arr = np.asarray(vals, dtype=float)
                sd = float(arr.std(ddof=1)) if len(vals) > 1 else None
                cols[name] = (float(arr.mean()), sd)
        out.append((k, logs[0].rows[j].epoch, cols))
    return out


def _fmt_cell(v):
    return "" if v is None else format(float(v), ".17g")


def cmd_compare(args) -> int:
    if args.ref_iters is not None and args.ref_iters < 1:
        raise ValueError(f"ref_iters must be at least 1, got {args.ref_iters}")
    # no flags: every field comes from its file
    cfgs = [_config_from(path, argparse.Namespace()) for path in args.configs]
    if len(cfgs) < 2:
        raise ValueError("compare needs at least two configurations")
    prob_paths = {os.path.realpath(c.problem) for c in cfgs}
    if len(prob_paths) != 1:
        raise ValueError("all configurations must reference the same "
                         "problem file")
    # the problem in each algorithm's form, built once
    load = lru_cache(maxsize=None)(partial(load_problem, cfgs[0].problem))
    ref_problem = load("ppg")
    # each budget in sweeps; the sampled solvers count single-term steps,
    # n to a sweep, rounded up
    budget = max(-(-c.max_iters // ref_problem.n)
                 if c.algo in ("sppg", "spi", "finito") else c.max_iters
                 for c in cfgs)
    ref_iters = args.ref_iters if args.ref_iters else 10 * budget
    ref = ppg.ppg_run(ref_problem, ppg.SolveOptions(max_iters=ref_iters,
                                                    record_every=ref_iters))
    x_star = ref.x
    lines = [MERGED_HEADER]
    seen = {}
    for cfg in cfgs:
        problem = load(cfg.algo)
        label = cfg.algo
        seen[label] = seen.get(label, 0) + 1
        if seen[label] > 1:
            label = f"{label}#{seen[label]}"
        logs = [_run(cfg, problem, seed=s, x_ref=x_star).log
                for s in (cfg.seeds or [cfg.seed])]
        for k, epoch, cols in _aggregate(logs):
            # cols holds (mean, sd) pairs in MERGED_HEADER's column order
            means, sds = zip(*cols.values())
            lines.append(",".join([label, str(k), *map(
                _fmt_cell, (epoch, *means, *sds))]))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out} ({len(lines) - 1} rows, reference from "
          f"{ref_iters} iterations)")
    return 0


# -- dataset generation ---------------------------------------------------------
#
# Recipes (all deterministic in --seed):
#   group-lasso    A ~ N(0,1)^(m x d); planted x with a sparse support of
#                  ~10% coordinates, N(0,1) values; b = A x + 0.1 N(0,1);
#                  staggered overlapping groups of 9 shifted by 3.
#   svm            rows a_i = N(0,1)^d + margin*y_i*u shifted along a unit
#                  separator u, then normalized to unit length; labels
#                  flipped w.p. --flip afterwards.
#   fused-lasso    x alternates zero stretches and plateaus reached by
#                  +/- eps ramps; A ~ N(0,1)^(n x d); y = A x + 0.05 N(0,1).
#   network-lasso  G(V, p) random graph; two vertex communities with
#                  distinct d-vector targets, the (V x d) theta of the pull.
#   glm            X ~ N(0,1)/sqrt(d); responses drawn from the family's
#                  model at a planted coefficient vector.


def cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    kind = args.kind
    # each data file's writer, by name: --out is made only once every array
    # is, so a recipe that fails leaves no directory behind
    writers = {}

    def write_csvs(**mats):
        # each matrix to <name>.csv; returns the description's files entry
        for name, mat in mats.items():
            writers[f"{name}.csv"] = partial(io.write_dense_csv, mat=mat)
        return {name: f"{name}.csv" for name in mats}

    if kind == "group-lasso":
        m, d, n = args.m, args.d, args.n
        a_mat = rng.standard_normal((m, d))
        support = rng.permutation(d)[:max(1, d // 10)]
        x_true = np.zeros(d)
        x_true[support] = rng.standard_normal(support.size)
        b = a_mat @ x_true + 0.1 * rng.standard_normal(m)
        part = problems.staggered_partition(d, n)
        files = write_csvs(A=a_mat, b=b[:, None])
        params = {"lambda1": args.lambda1,
                  "groups": [[list(g) for g in coll]
                             for coll in part.collections]}
    elif kind == "svm":
        n, d = args.n, args.d
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        feats = rng.standard_normal((n, d)) \
            + args.margin * labels[:, None] * u[None, :]
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        flips = rng.random(n) < args.flip
        labels[flips] *= -1.0
        writers["data.libsvm"] = partial(io.write_libsvm, feats=feats,
                                         labels=labels)
        files = {"data": "data.libsvm"}
        params = {"lam": args.lam, "dim": d}
    elif kind == "fused-lasso":
        n, d = args.n, args.d
        eps = args.eps
        x_true = np.zeros(d)
        level = 0.0
        j = 0
        while j < d:
            stretch = int(rng.integers(3, max(4, d // 4)))
            target = float(rng.choice([0.0, 0.5, 1.0, -0.5]))
            for _ in range(stretch):
                if j >= d:
                    break
                level += np.clip(target - level, -eps, eps)
                x_true[j] = level
                j += 1
        a_mat = rng.standard_normal((n, d))
        y = a_mat @ x_true + 0.05 * rng.standard_normal(n)
        files = write_csvs(A=a_mat, y=y[:, None])
        params = {"lam": args.lam, "eps": eps}
    elif kind == "network-lasso":
        v, block = args.vertices, args.d
        edges = [(u, w) for u in range(v) for w in range(u + 1, v)
                 if rng.random() < args.edge_prob]
        if not edges:
            edges = [(0, 1)]
        centers = np.stack([rng.standard_normal(block),
                            rng.standard_normal(block) + 2.0])
        theta = np.array([centers[0] if u < v // 2 else centers[1]
                          for u in range(v)])
        theta += 0.1 * rng.standard_normal(theta.shape)
        d, files = v * block, {}
        params = {"lambda1": args.lambda1, "lambda2": args.lambda2,
                  "edges": [list(e) for e in edges], "theta": theta.tolist()}
    elif kind == "glm":
        n, d = args.n, args.d
        x_mat = rng.standard_normal((n, d)) / np.sqrt(d)
        beta = rng.standard_normal(d)
        eta = x_mat @ beta
        if args.family == "gaussian":
            t_vec = eta + 0.1 * rng.standard_normal(n)
        elif args.family == "logistic":
            t_vec = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        elif args.family == "poisson":
            t_vec = rng.poisson(np.exp(np.clip(eta, -10, 3))).astype(float)
        files = write_csvs(X=x_mat, T=t_vec[:, None])
        params = {"family": args.family}
    else:
        raise ValueError(f"unknown kind {kind!r}")
    os.makedirs(args.out, exist_ok=True)
    for name, write in writers.items():
        write(os.path.join(args.out, name))
    with open(os.path.join(args.out, "problem.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"kind": kind, "dim": d, "files": files, "params": params,
                   "seed": args.seed}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}/problem.json")
    return 0


# -- argument parsing -----------------------------------------------------------

def _int_at_least(low: int):
    """An argparse type: an int of at least ``low``."""
    def parse(text):
        if int(text) >= low:
            return int(text)
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")

    parse.__name__ = "int"  # for argparse's "invalid int value" message
    return parse


class _Parser(argparse.ArgumentParser):
    """Raises a usage error for ``main`` to report as exit code 1, since
    argparse's own exit code 2 means an exhausted iteration budget here."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="proxsplit",
        description="Composite-sum convex solvers with prox-based splitting")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic problem")
    g.add_argument("kind", choices=GEN_KINDS)
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--m", type=_int_at_least(1), default=300)
    g.add_argument("--n", type=_int_at_least(1), default=3)
    g.add_argument("--d", type=_int_at_least(1), default=42)
    g.add_argument("--lambda1", type=float, default=0.1)
    g.add_argument("--lambda2", type=float, default=0.5)
    g.add_argument("--lam", type=float, default=0.1)
    g.add_argument("--eps", type=float, default=0.1)
    g.add_argument("--flip", type=float, default=0.0)
    g.add_argument("--margin", type=float, default=1.0)
    g.add_argument("--vertices", type=_int_at_least(2), default=8)
    g.add_argument("--edge-prob", dest="edge_prob", type=float, default=0.4)
    g.add_argument("--family", default="gaussian",
                   choices=("gaussian", "logistic", "poisson"))
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="run one solver")
    s.add_argument("--config", default=None,
                   help="run-configuration JSON; flags override its fields")
    s.add_argument("--problem", default=None)
    s.add_argument("--algo", default=None, choices=ALGOS)
    s.add_argument("--alpha", type=float, default=None)
    s.add_argument("--tol", type=float, default=None)
    s.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--record-every", dest="record_every", type=int,
                   default=None)
    s.add_argument("--ergodic", action="store_const", const=True,
                   default=None)
    s.add_argument("--timing", action="store_const", const=True, default=None)
    s.add_argument("--spi-c", dest="spi_c", type=float, default=None)
    s.add_argument("--metrics", dest="metrics_out", default=None)
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("compare", help="run several configs, merge curves")
    c.add_argument("configs", nargs="+")
    c.add_argument("--out", required=True)
    c.add_argument("--ref-iters", dest="ref_iters", type=int, default=None)
    c.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, TypeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
