"""Builders that recast applications into the composite-sum problem form.

Every builder returns an immutable :class:`~proxsplit.core.ProblemSpec`
whose handles pass the core invariant suite, plus whatever sum-recasting
utilities the application needs (term duplication for unequal counts, edge
coloring to decompose pairwise penalties into matchings).
"""

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from typing import Sequence

import numpy as np
from scipy.special import expit

from .core import ROW_CHUNK, ProblemSpec, ProxFn, SmoothFn, \
    _nonfinite_entry, ridge_prox, scale_prox, scale_smooth, zero_prox, \
    zero_smooth
from .kernels import GlmStructure, HingeStructure, rank_one_problem
from .prox import (CachedQuadraticProx, ScalarFn, prox_pair_diff,
                   prox_quadratic, soft_threshold_scalar,
                   soft_threshold_vector)

__all__ = [
    "GroupPartition",
    "EdgeColoring",
    "SvmData",
    "staggered_partition",
    "recast_symmetric",
    "recast_weighted",
    "build_group_lasso",
    "build_svm",
    "build_fused_lasso",
    "greedy_edge_coloring",
    "build_network_lasso",
    "build_glm",
    "glm_family",
]

RECAST_CAP = 10 ** 6


# -- sum recasting ------------------------------------------------------------

def recast_symmetric(r: ProxFn, fs: Sequence[SmoothFn], gs: Sequence[ProxFn],
                     dim: int, cap: int = RECAST_CAP) -> ProblemSpec:
    """Pair every smooth term with every nonsmooth term: n*m terms.

    Term (i, j) carries (f_i, g_j), which preserves the objective exactly
    since each f_i appears m times out of n*m and vice versa.  Best when
    one of the counts is small; refuses to build more than ``cap`` terms.
    """
    n, m = len(fs), len(gs)
    if n * m > cap:
        raise ValueError(f"recast would create {n * m} terms (cap {cap})")
    f_terms = tuple(fs[i] for i in range(n) for _ in range(m))
    g_terms = tuple(gs[j] for _ in range(n) for j in range(m))
    return ProblemSpec(dim=dim, r=r, f=f_terms, g=g_terms,
                       kind="recast-symmetric")


def recast_weighted(r: ProxFn, fs: Sequence[SmoothFn], gs: Sequence[ProxFn],
                    dim: int) -> ProblemSpec:
    """Concatenate the two sums into n+m terms with compensating weights.

    Smooth terms are scaled by (m+n)/n and nonsmooth ones by (m+n)/m so the
    averaged objective is unchanged; Lipschitz bounds rescale linearly.
    """
    n, m = len(fs), len(gs)
    if n == 0 or m == 0:
        raise ValueError("both term lists must be nonempty")
    cf = (m + n) / n
    cg = (m + n) / m
    f_terms = tuple(scale_smooth(fn, cf) for fn in fs) + (zero_smooth(),) * m
    g_terms = tuple(zero_prox() for _ in range(n)) + tuple(
        scale_prox(fn, cg) for fn in gs)
    return ProblemSpec(dim=dim, r=r, f=f_terms, g=g_terms,
                       kind="recast-weighted")


# -- overlapping group lasso ---------------------------------------------------

@dataclass(frozen=True)
class GroupPartition:
    """Index groups split into collections that are internally disjoint.

    ``collections[i]`` is a tuple of groups (tuples of 0-based indices);
    groups from different collections may overlap, groups within one
    collection may not.
    """

    collections: tuple

    def __post_init__(self):
        object.__setattr__(self, "collections", tuple(
            tuple(tuple(int(j) for j in grp) for grp in coll)
            for coll in self.collections))
        if not self.collections:
            raise ValueError("at least one collection required")
        for coll in self.collections:
            seen = set()
            for grp in coll:
                if not grp:
                    raise ValueError("empty group")
                gset = set(grp)
                if len(gset) != len(grp):
                    raise ValueError("duplicate index inside a group")
                if seen & gset:
                    raise ValueError("groups overlap within a collection")
                seen |= gset

    def validate_dim(self, dim: int):
        for coll in self.collections:
            for grp in coll:
                for j in grp:
                    if not 0 <= j < dim:
                        raise ValueError(f"group index {j} out of range")

    def all_groups(self) -> tuple:
        return tuple(grp for coll in self.collections for grp in coll)


def staggered_partition(dim: int, n_collections: int, group_size: int = 9,
                        stagger: int = 3) -> GroupPartition:
    """Overlapping runs of ``group_size`` indices; collection i shifts the
    grid by i*stagger, so groups within one collection stay disjoint."""
    colls = []
    for i in range(n_collections):
        start = i * stagger
        groups = []
        while start + group_size <= dim:
            groups.append(tuple(range(start, start + group_size)))
            start += group_size
        if not groups:
            raise ValueError("dim too small for the requested grouping")
        colls.append(tuple(groups))
    return GroupPartition(collections=tuple(colls))


def _group_norms(vals, ids, count):
    """The Euclidean norm of each of ``count`` groups of the flat entries
    ``vals``, entry k in group ``ids[k]``."""
    return np.sqrt(np.bincount(ids, vals * vals, minlength=count))


def _shrink_groups(vals, ids, count, thr):
    """The prox of thr*||.||_2 on each group of the flat entries ``vals``
    (as in :func:`_group_norms`), in place: every group scales by
    max(1 - thr/norm, 0).  A NaN group comes back NaN, so the caller's
    finiteness check names its term; an infinite thr (a weight that
    overflowed) zeroes every other group."""
    if thr == 0.0:  # the identity; also spares all-zero groups a 0/0
        return
    nrm = _group_norms(vals, ids, count)
    if thr < np.inf:
        # exactly 0 where a group's norm is at most thr
        scale = 1.0 - thr / np.maximum(nrm, thr)
        vals *= scale[ids]
    else:
        vals[:] = np.where(np.isnan(nrm), np.nan, 0.0)[ids]


def _require_finite_entries(**arrays):
    """Raise ValueError naming the first non-finite entry of an array."""
    for name, arr in arrays.items():
        at = _nonfinite_entry(arr)
        if at is not None:
            raise ValueError(f"{name} has a non-finite entry at "
                             f"({', '.join(map(str, at))})")


def build_group_lasso(a_mat: np.ndarray, b: np.ndarray, lambda1: float,
                      partition: GroupPartition,
                      alpha: float | None = None) -> ProblemSpec:
    """Overlapping group lasso 0.5*||Ax-b||^2 + lambda1 * sum_G ||x_G||_2.

    The quadratic becomes the global term (prox by cached factorization,
    pre-warmed for ``alpha`` when given), and collection i becomes one
    nonsmooth term applying blockwise norm shrinkage with weight
    n*lambda1 on its groups and the identity elsewhere.  Full sweeps run
    every term's shrinkage at once through ``batched_g_prox``, and
    ``batched_objective`` sums all group norms at once; both work on one
    flat layout of the grouped entries (collection row, coordinate and
    group id of each), built once here.  The per-term handles of
    single-term steps and ADMM read their collection's slice of the same
    layout through the same norm-and-shrink rule.
    """
    a_mat = np.asarray(a_mat, dtype=float)
    b = np.asarray(b, dtype=float)
    m, d = a_mat.shape
    if b.shape != (m,):
        raise ValueError("b must have one entry per row of A")
    # the factorization would reject it without naming the input
    _require_finite_entries(A=a_mat, b=b)
    if not 0.0 <= lambda1 < np.inf:
        raise ValueError("lambda1 must be nonnegative and finite")
    partition.validate_dim(d)
    n = len(partition.collections)
    lam2 = n * lambda1
    # the factorization for the last step size used
    factor = lru_cache(maxsize=1)(
        partial(CachedQuadraticProx.from_data, a_mat, b))
    if alpha is not None:
        factor(alpha)

    def sq_loss(x):
        return 0.5 * float(np.sum((a_mat @ x - b) ** 2))

    r = ProxFn(prox=lambda x0, a: prox_quadratic(factor(a), x0),
               value=sq_loss)

    # entry k of the flat layout is coordinate cc[k] of collection rr[k],
    # in group gid[k]; O(grouped entries), no padding
    colls = partition.collections
    groups = partition.all_groups()
    gid = np.repeat(np.arange(len(groups)), [len(grp) for grp in groups])
    cc = np.fromiter(chain.from_iterable(groups), np.intp, gid.size)
    rr = np.repeat(np.arange(n), [len(coll) for coll in colls])[gid]

    # rr and gid run collection by collection, so the entries and groups
    # of any run of collections are one contiguous range: those of
    # collections lo..hi-1 are entries ends[lo]:ends[hi] and groups
    # firsts[lo]:firsts[hi]
    ends = [0] + np.cumsum(np.bincount(rr, minlength=n)).tolist()
    firsts = np.cumsum([0] + [len(coll) for coll in colls]).tolist()

    def batched_g_prox(v, a, lo=0):
        hi = lo + v.shape[0]
        if hi - lo == n:  # the whole layout, with no views to allocate
            rows, cols, ids = rr, cc, gid
        else:
            e = slice(ends[lo], ends[hi])
            rows, cols, ids = rr[e] - lo, cc[e], gid[e] - firsts[lo]
        vals = v[rows, cols]
        _shrink_groups(vals, ids, firsts[hi] - firsts[lo], a * lam2)
        v[rows, cols] = vals
        return v

    def penalty(norms):
        # a zero sum adds 0, also when lam2 overflowed to inf
        total = float(norms.sum())
        return lam2 * total if total else 0.0

    def batched_objective(x):
        return penalty(_group_norms(x[cc], gid, len(groups))) / n

    def make_g(cols, ids, count):
        # collection i's slice of the layout, its group ids from 0

        def prox(x0, a):
            out = np.array(x0, dtype=float, copy=True)
            vals = out[cols]
            _shrink_groups(vals, ids, count, a * lam2)
            out[cols] = vals
            return out

        def value(x):
            return penalty(_group_norms(x[cols], ids, count))

        return ProxFn(prox=prox, value=value)

    g_terms = tuple(
        make_g(cc[ends[i]:ends[i + 1]], gid[ends[i]:ends[i + 1]] - firsts[i],
               len(colls[i]))
        for i in range(n))
    return ProblemSpec(dim=d, r=r, f=(zero_smooth(),) * n, g=g_terms,
                       kind="group-lasso", batched_g_prox=batched_g_prox,
                       batched_objective=batched_objective)


# -- support vector machine ----------------------------------------------------

@dataclass(frozen=True)
class SvmData:
    """Feature rows, +/-1 labels, and the ridge weight."""

    features: np.ndarray
    labels: np.ndarray
    lam: float

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=float)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        if feats.ndim != 2 or labels.shape != (feats.shape[0],):
            raise ValueError("features must be (n, d) with one label per row")
        if not 0.0 < self.lam < np.inf:
            raise ValueError("lam must be positive and finite")
        if not np.all(np.abs(labels) == 1.0):
            raise ValueError("labels must be +1 or -1")
        if np.any(np.einsum("ij,ij->i", feats, feats) == 0.0):
            raise ValueError("zero feature row")


def build_svm(data: SvmData, fold_ridge: bool = False) -> ProblemSpec:
    """Hinge-loss classifier (lam/2)*||x||^2 + mean_i max(1 - y_i a_i'x, 0).

    Default form: the ridge is the global term (:func:`core.ridge_prox`,
    whose prox is a uniform shrink) and each hinge row is one nonsmooth
    term with a closed-form prox.  ``fold_ridge=True`` instead folds the
    ridge into every term (the :class:`HingeStructure`'s ``ridge``) and
    leaves the global term zero, which is the prox-only form required by
    the diminishing-step baseline; both forms have identical objectives.
    :func:`kernels.rank_one_problem` builds the problem from its
    :class:`HingeStructure`, in either form.
    """
    structure = HingeStructure(features=data.features, labels=data.labels,
                               ridge=data.lam if fold_ridge else 0.0)
    r = zero_prox() if fold_ridge else ridge_prox(data.lam)
    return rank_one_problem(structure, r, "svm")


# -- fused lasso ----------------------------------------------------------------

def _project_pairs(x: np.ndarray, eps: float, start: int):
    """Project, in place along the last axis, each disjoint pair
    (x_j, x_{j+1}) for j = start, start+2, ... onto |x_{j+1} - x_j| <= eps:
    clip the pair's difference w, keep its sum t, so the pair becomes
    (0.5 (t - w), 0.5 (t + w)).  The strided views of the pairs are read
    twice and written once each, the fewest passes over them: numpy
    buffers an operation on them unless a row's pairs span the whole row,
    and an in-place form that stepped them six times took half as long
    again.  Its temporaries, three arrays of half x's entries, are why a
    caller with many rows projects them ``ROW_CHUNK`` at a time."""
    d = x.shape[-1]
    u = x[..., start:d - 1:2]
    v = x[..., start + 1:d:2]
    w = v - u
    w.clip(-eps, eps, out=w)
    total = u + v
    low = total - w
    low *= 0.5
    u[...] = low
    total += w
    total *= 0.5
    v[...] = total


def build_fused_lasso(a_mat: np.ndarray, y: np.ndarray, lam: float,
                      eps: float) -> ProblemSpec:
    """Sparse regression with bounded jumps between neighboring coordinates.

    minimize lam*||x||_1 + mean_i 0.5*(a_i'x - y_i)^2
    subject to |x_{j+1} - x_j| <= eps for every j.

    The chain of difference constraints is not proximable as a whole, so it
    splits into the odd-pair and even-pair indicators, each a product of
    disjoint two-coordinate constraints with an exact prox.  Every data row
    appears in two terms (once with each indicator), which keeps the
    averaged loss equal to the original.  The indicator admits a relative
    slack of 1e-9 when reporting values so that prox outputs at the
    boundary do not read as infeasible.  Full sweeps take every term's
    gradient step from one product ``A @ x`` and project the pairs of a
    sweep block's rows, ``ROW_CHUNK`` rows at a time, so the hooks make no
    temporary larger than that; single-term steps use the per-term
    handles.  A bound a_i'a_i that overflows is kept as inf, for
    step-size validation to refuse.
    """
    a_mat = np.asarray(a_mat, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = a_mat.shape
    if not eps >= 0.0:
        raise ValueError("eps must be nonnegative (inf for no bound)")
    if not 0.0 <= lam < np.inf:
        raise ValueError("lam must be nonnegative and finite")
    r = ProxFn(prox=lambda x0, a: soft_threshold_scalar(x0, a * lam),
               value=lambda x: lam * float(np.abs(x).sum()))

    def make_f(i):
        ai = a_mat[i]
        yi = y[i]
        return SmoothFn(
            value=lambda x: 0.5 * float(ai @ x - yi) ** 2,
            gradient=lambda x: (float(ai @ x) - yi) * ai,
            lipschitz=float(ai @ ai))

    slack = 1e-9 * (1.0 + (eps if np.isfinite(eps) else 0.0))

    def make_g(start):
        # the indicator of |x_{j+1} - x_j| <= eps on the pairs from start
        def prox(x0, a):
            out = np.array(x0, dtype=float, copy=True)
            _project_pairs(out, eps, start)
            return out

        def value(x):
            diffs = x[start + 1:d:2] - x[start:d - 1:2]
            feasible = np.all(np.abs(diffs) <= eps + slack)
            return 0.0 if feasible else float("inf")

        return ProxFn(prox=prox, value=value)

    with np.errstate(over="ignore"):
        f_terms = tuple(make_f(i) for i in range(n)) * 2
    g_terms = (make_g(0),) * n + (make_g(1),) * n

    # Terms i and n + i share the data row a_i.  The residuals A x - y
    # come from one product with all of A, since BLAS may round a product
    # with some of its rows differently; the last point's product is kept,
    # so the blocks of one sweep compute it once.
    last = None

    def residual(x):
        nonlocal last
        if last is None or last[0].tobytes() != x.tobytes():
            last = np.array(x, dtype=float, copy=True), a_mat @ x - y
        return last[1]

    def chunks(lo, hi):
        # terms lo..hi-1, ROW_CHUNK at a time: (t0, t1, side) with side 0
        # below n and 1 from n on (data row t - n, pairs from 1)
        for t0, t1, side in ((lo, min(hi, n), 0), (max(lo, n), hi, 1)):
            for c0 in range(t0, t1, ROW_CHUNK):
                yield c0, min(c0 + ROW_CHUNK, t1), side

    def batched_f_grad(v, x, a, lo=0):
        res = residual(x)
        for t0, t1, side in chunks(lo, lo + v.shape[0]):
            rows = slice(t0 - side * n, t1 - side * n)
            step = res[rows, None] * a_mat[rows]
            step *= a
            v[t0 - lo:t1 - lo] -= step
            del step  # freed before the next chunk's is made

    def batched_g_prox(v, a, lo=0):
        for t0, t1, side in chunks(lo, lo + v.shape[0]):
            _project_pairs(v[t0 - lo:t1 - lo], eps, side)
        return v

    def batched_objective(x):
        feasible = np.all(np.abs(np.diff(x)) <= eps + slack)
        if not feasible:
            return float("inf")
        return 0.5 * float(np.mean((a_mat @ x - y) ** 2))

    return ProblemSpec(dim=d, r=r, f=f_terms, g=g_terms,
                       kind="fused-lasso", batched_g_prox=batched_g_prox,
                       batched_f_grad=batched_f_grad,
                       batched_objective=batched_objective)


# -- network lasso ---------------------------------------------------------------

@dataclass(frozen=True)
class EdgeColoring:
    """Edge sets forming matchings: no two edges in a class share a vertex."""

    classes: tuple

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(
            tuple((int(u), int(v)) for (u, v) in cls) for cls in self.classes))
        for cls in self.classes:
            touched = set()
            for (u, v) in cls:
                if u == v:
                    raise ValueError("self-loop in coloring")
                if u in touched or v in touched:
                    raise ValueError("two edges of one color share a vertex")
                touched.update((u, v))

    def verify_partition(self, edges):
        """Check the classes partition the given edge set exactly."""
        norm = lambda e: (min(e), max(e))
        all_colored = [norm(e) for cls in self.classes for e in cls]
        if len(all_colored) != len(set(all_colored)):
            raise ValueError("an edge appears in two color classes")
        if set(all_colored) != {norm(e) for e in edges}:
            raise ValueError("color classes do not cover the edge set")


def _vertex_pairs(n_vertices: int, edges) -> list:
    """The edges as pairs of ints; rejects self-loops and endpoints outside
    [0, n_vertices)."""
    pairs = []
    for (u, v) in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise ValueError(f"edge ({u}, {v}) out of range")
        pairs.append((u, v))
    return pairs


def greedy_edge_coloring(n_vertices: int, edges) -> EdgeColoring:
    """First-fit edge coloring: each edge takes the smallest color unused
    at both endpoints.  Uses at most 2*max_degree - 1 colors and is
    deterministic in the input edge order.  Self-loops and endpoints
    outside [0, n_vertices) are rejected."""
    incident = [set() for _ in range(n_vertices)]
    classes = []
    for (u, v) in _vertex_pairs(n_vertices, edges):
        taken = incident[u] | incident[v]
        c = 0
        while c in taken:
            c += 1
        if c == len(classes):
            classes.append([])
        classes[c].append((u, v))
        incident[u].add(c)
        incident[v].add(c)
    return EdgeColoring(classes=tuple(tuple(cls) for cls in classes))


def build_network_lasso(targets: np.ndarray, edges, lambda1: float,
                        lambda2: float,
                        coloring: EdgeColoring | None = None) -> ProblemSpec:
    """Per-vertex estimation with sparsity and edgewise agreement penalties.

    minimize sum_v [lambda1*||x_v||_1 + 0.5*||x_v - theta_v||^2]
             + lambda2 * sum_{(u,v) in E} ||x_u - x_v||_2

    Row v of the (|V| x block) array ``targets`` is theta_v, and the
    variable is the stacked (|V|*block)-vector.  Edges are split into
    matchings by color; color c contributes one term whose nonsmooth part
    couples disjoint vertex pairs (so its prox is exact: shrink each
    pair's difference, keep the sum) with weight C*lambda2, and whose
    smooth part is the whole quadratic pull, so the 1/C average restores
    the original objective.  ``targets`` must be a nonempty 2-D array of
    finite entries, and ``edges`` must hold at least one edge.  Self-loops
    and endpoints outside [0, |V|) are rejected, also with a caller's
    ``coloring``.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 2 or not targets.size:
        raise ValueError("targets must be a nonempty (vertices x block) "
                         f"array, got shape {targets.shape}")
    _require_finite_entries(targets=targets)
    edges = _vertex_pairs(len(targets), edges)
    if not edges:
        raise ValueError("edges must hold at least one edge")
    if coloring is None:
        coloring = greedy_edge_coloring(len(targets), edges)
    coloring.verify_partition(edges)
    for name, weight in (("lambda1", lambda1), ("lambda2", lambda2)):
        if not 0.0 <= weight < np.inf:
            raise ValueError(f"{name} must be nonnegative and finite")
    n_colors = len(coloring.classes)
    lam3 = n_colors * lambda2
    flat = targets.ravel()

    def pull_value(x):
        # the vertices' half squared distances, summed in vertex order
        diff = x.reshape(targets.shape) - targets
        return sum((0.5 * np.sum(diff ** 2, axis=1)).tolist())

    pull = SmoothFn(value=pull_value, gradient=lambda x: x - flat,
                    lipschitz=1.0)

    # one edge's penalty lam3*||x_u - x_v||_2, as a function of x_u - x_v
    edge = ProxFn(prox=lambda w, a: soft_threshold_vector(w, a * lam3))

    def make_g(cls):
        def prox(x0, a):
            # a color is a matching, so each vertex's row is read unchanged
            out = np.array(x0, dtype=float, copy=True).reshape(targets.shape)
            for (u, v) in cls:
                out[u], out[v] = prox_pair_diff(edge, out[u], out[v], a)
            return out.ravel()

        def value(x):
            rows = x.reshape(targets.shape)
            return lam3 * sum(
                float(np.linalg.norm(rows[u] - rows[v])) for (u, v) in cls)

        return ProxFn(prox=prox, value=value)

    r = ProxFn(prox=lambda x0, a: soft_threshold_scalar(x0, a * lambda1),
               value=lambda x: lambda1 * float(np.abs(x).sum()))
    return ProblemSpec(
        dim=flat.size, r=r, f=(pull,) * n_colors,
        g=tuple(make_g(cls) for cls in coloring.classes),
        kind="network-lasso")


# -- generalized linear models ----------------------------------------------------

def glm_family(name: str) -> ScalarFn:
    """Cumulant function of a one-parameter exponential family; its value
    and derivative handles map arrays elementwise."""
    if name == "gaussian":
        return ScalarFn(value=lambda t: 0.5 * t * t, deriv=lambda t: t)
    if name == "logistic":
        return ScalarFn(value=lambda t: np.logaddexp(0.0, t), deriv=expit)
    if name == "poisson":
        return ScalarFn(value=np.exp, deriv=np.exp)
    raise ValueError(f"unknown family {name!r}")


def _require_elementwise(a1d: ScalarFn):
    """Reject a cumulant whose handles do not map arrays elementwise: the
    all-rows prox and objective evaluate them on whole arrays."""
    probe = np.array([-1.0, 0.0, 2.0])
    for name in ("value", "deriv"):
        fn = getattr(a1d, name)
        if fn is None:
            raise ValueError(f"the cumulant must supply a {name} handle")
        try:
            out = np.asarray(fn(probe), dtype=float)
            ok = out.shape == probe.shape and np.allclose(
                out, [fn(float(t)) for t in probe], rtol=1e-12, atol=0.0)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError(f"the cumulant's {name} handle must map an "
                             "array elementwise")


def build_glm(x_mat: np.ndarray, t_vec: np.ndarray,
              a1d: ScalarFn) -> ProblemSpec:
    """Maximum-likelihood fitting of a generalized linear model.

    minimize mean_i [A(x_i'b) - t_i * x_i'b] for the convex cumulant A,
    whose ``value`` and ``deriv`` handles must map arrays elementwise.
    Every term is handled through its prox (the one-dimensional reduction
    along its own data row); there is no smooth or global part.
    :func:`kernels.rank_one_problem` builds the problem from its
    :class:`GlmStructure`.
    """
    x_mat = np.asarray(x_mat, dtype=float)
    t_vec = np.asarray(t_vec, dtype=float)
    n, _ = x_mat.shape
    if t_vec.shape != (n,):
        raise ValueError("one response per data row required")
    _require_elementwise(a1d)
    structure = GlmStructure(features=x_mat, responses=t_vec,
                             deriv=a1d.deriv, value=a1d.value)
    return rank_one_problem(structure, zero_prox(), "glm")
