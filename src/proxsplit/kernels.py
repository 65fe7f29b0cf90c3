"""Rank-one row terms, the problems made of them, and the numpy loops over
them.

Hinge and GLM rows share one form, g_i(u) = phi_i(f_i'u), whose prox moves
u along f_i by a scalar beta of s = f_i'u.  :class:`HingeStructure` and
:class:`GlmStructure` state each kind's rule twice and no more: ``betas``
(every row's beta at once, for batched sweeps) and ``beta`` (one row's, in
scalar arithmetic), plus ``losses`` (phi_i); each derives its rows'
squared norms from ``features``.  Everything else is built from them here,
for either kind.  :func:`rank_one_problem` builds the problem, for any r:
its per-term handles (:func:`rank_one_terms`, a sequence that builds term
i's handle only when it is indexed, so the batched hooks and the kernels
pay for none), ``batched_g_prox`` (:func:`rank_one_prox`) and
``batched_objective`` (:func:`rank_one_objective`).  A structure's
``ridge`` is a ridge folded into the terms; a ridge in r is stated by r
alone (:func:`core.ridge_prox`).
:func:`rank_one_rows` is the one rule for which problems a kernel serves.
:func:`rank_one_sppg_block` takes each
run of up to ``SPPG_RUN`` consecutive distinct sppg rows with three BLAS
products and a scalar recurrence of ``beta``, in place of a dozen small
vector operations per step; :func:`rank_one_probe` takes one splitting
step's betas and residual at a held z from the structure, a chunk of rows
at a time, for sppg's residual probe and a warm-started ppg's first
sweep; :class:`RankOnePpg` takes ppg's full sweeps over the same rows in
scalar coordinates, with no pass over z and no z until one is read,
taking each recorded objective from the sweep's own F x; and
:func:`rank_one_spi_block` is the spi baseline's loop of ``beta`` steps.
The per-term handles remain the reference path; the kernels agree with
them to floating-point rounding, not bitwise, because their sums associate
differently.
"""

import importlib.util
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from operator import index, mul
from typing import Callable, ClassVar

import numpy as np

from .core import (ROW_CHUNK, ConvergenceError, NumericalError, ProblemSpec,
                   ProxFn, RidgeProx, SolverState, _checked, _require_finite,
                   _require_finite_rows, chunked_row_mean, zero_smooth)
from .prox import _glm_roots, glm_root

__all__ = ["HingeStructure", "GlmStructure", "rank_one_problem",
           "rank_one_rows", "rank_one_terms", "rank_one_prox",
           "rank_one_objective", "rank_one_sppg_block", "rank_one_probe",
           "RankOnePpg", "rank_one_spi_block"]

# Rows per run of the numpy sppg block.  A run costs a few BLAS products
# that grow as SPPG_RUN**2 * d plus a scalar recurrence of SPPG_RUN steps;
# runs of 32 to 64 rows were fastest at d=128, and 256 was slower.
SPPG_RUN = 32


@dataclass(frozen=True)
class _Rows:
    """The rows f_i (``features``) of a rank-one structure and their
    squared norms ``sqnorms``, derived from them at construction."""

    features: np.ndarray
    sqnorms: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "sqnorms",
                           np.einsum("ij,ij->i", self.features, self.features))


@dataclass(frozen=True)
class HingeStructure(_Rows):
    """Marks a problem as hinge-loss rows, each with the ridge
    (``ridge``/2)||x||^2 folded into it: the prox-only form used by the
    stochastic proximal iteration baseline.  The default 0 folds none, as
    in the split form, whose r states the ridge.
    """

    labels: np.ndarray
    ridge: float = 0.0

    @property
    def targets(self) -> np.ndarray:
        """Each row's constant c of :meth:`beta`: its label."""
        return self.labels

    def betas(self, s, alpha, lo=0):
        """The clip coefficient of rows lo..lo+len(s) at s_i = f_i'v; NaN
        where (1 - y_i s_i)/q_i is not finite, as in :meth:`beta`."""
        rows = slice(lo, lo + len(s))
        labels = self.labels[rows]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            m = (1.0 - labels * s) / self.sqnorms[rows]
        return np.where(np.isfinite(m), np.clip(m, 0.0, alpha),
                        math.nan) * labels

    def beta(self, s, q, c, alpha):
        """One row's clip coefficient at s = f_i'v, for q = ||f_i||^2 and
        label c; NaN when (1 - c s)/q is not finite (a zero or non-finite
        row), for the caller to report."""
        m = (1.0 - c * s) / q if q else math.nan
        return min(max(m, 0.0), alpha) * c if math.isfinite(m) else math.nan

    def losses(self, s, rows=slice(None)):
        """The hinge max(1 - y_i s_i, 0) of the given rows (all by
        default) at their s_i."""
        return np.maximum(1.0 - self.labels[rows] * s, 0.0)


@dataclass(frozen=True)
class GlmStructure(_Rows):
    """Marks a problem as generalized-linear-model rows and nothing else:
    term i is A(f_i'x) - t_i f_i'x for the cumulant A with handles
    ``value`` and ``deriv`` that map arrays elementwise, and no ridge.
    """

    responses: np.ndarray
    deriv: Callable
    value: Callable
    ridge: ClassVar[float] = 0.0

    @property
    def targets(self) -> np.ndarray:
        """Each row's constant c of :meth:`beta`: its response."""
        return self.responses

    def betas(self, s, alpha, lo=0):
        """beta = (t - s)/q of rows lo..lo+len(s) at s_i = f_i'v, with t
        the root of t + alpha*q*(A'(t) - t_i) = s by
        :func:`prox._glm_roots`: the safeguarded secant rule of
        :func:`prox.glm_root`, one vectorized evaluation of A' per round
        for all unsolved rows.  A zero data row gives 0; a row whose input,
        data or response is not finite gives NaN, for the caller to report
        by index."""
        q = self.sqnorms[lo:lo + len(s)]
        resp = self.responses[lo:lo + len(s)]
        with np.errstate(over="ignore", invalid="ignore"):
            aq = alpha * q
            finite = np.isfinite(s) & np.isfinite(aq) & np.isfinite(resp)
            beta = np.where(finite, 0.0, np.nan)
            rows = np.flatnonzero(finite & (q > 0.0))
            # views, not copies, when every row has a root to solve
            sel = rows if rows.size < s.size else slice(None)
            root = _glm_roots(s[sel], aq[sel], resp[sel], self.deriv,
                              rows + lo)
            beta[sel] = (root - s[sel]) / q[sel]
        return beta

    def beta(self, s, q, c, alpha):
        """One row's beta = (t - s)/q at s = f_i'v, for q = ||f_i||^2 and
        response c, with t the root of :func:`prox.glm_root`.  A zero data
        row gives 0; a non-finite s, alpha*q or c gives NaN, for the caller
        to report.  A steep cumulant may overflow inside the root, so the
        caller runs it with overflow warnings off."""
        if not q:
            return 0.0
        aq = alpha * q
        if not (math.isfinite(s) and math.isfinite(aq) and math.isfinite(c)):
            return math.nan
        return (glm_root(s, aq, c, self.deriv) - s) / q

    def losses(self, s, rows=slice(None)):
        """A(s_i) - t_i s_i of the given rows (all by default)."""
        return self.value(s) - self.responses[rows] * s


def _term_prox(struct, i, x0, a):
    """The prox of term i of :func:`rank_one_terms`."""
    f = struct.features[i]
    with np.errstate(over="ignore", invalid="ignore"):
        shr = 1.0 / (1.0 + a * struct.ridge)
        xs = x0 * shr
        return xs + struct.beta(float(f @ xs), float(struct.sqnorms[i]),
                                float(struct.targets[i]), a * shr) * f


def _term_value(struct, i, x):
    """The value of term i of :func:`rank_one_terms`."""
    loss = float(struct.losses(float(struct.features[i] @ x), i))
    return loss + 0.5 * struct.ridge * float(x @ x) if struct.ridge else loss


@dataclass(frozen=True, eq=False)
class _TermHandles(Sequence):
    """The sequence of :func:`rank_one_terms`."""

    struct: object

    def __len__(self):
        return self.struct.features.shape[0]

    def __getitem__(self, i):
        n = len(self)
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(n)))
        i = index(i)
        if not -n <= i < n:
            raise IndexError(f"term index {i} out of range for {n} terms")
        i %= n
        return ProxFn(prox=partial(_term_prox, self.struct, i),
                      value=partial(_term_value, self.struct, i))


def rank_one_terms(struct) -> Sequence:
    """The per-term handles of rank-one rows: an immutable sequence of n
    :class:`ProxFn`, term i's built from ``struct.beta`` and
    ``struct.losses`` only when it is indexed, so a problem whose solvers
    run the batched hooks or the kernels builds none.  It takes negative
    indices, and a slice gives a tuple of its terms' handles.

    The prox of term i at x0 with step a moves x0 along f_i by the beta of
    s = f_i'x0.  When a ridge is folded into the terms, x0 and the step
    are first shrunk by 1/(1 + a*ridge), and the value adds ridge/2 ||x||^2
    to phi_i(f_i'x).  A row whose beta is NaN gives a NaN point, without a
    warning, for the caller to report by term.
    """
    return _TermHandles(struct)


def _distinct_runs(order, limit):
    """(start, end) bounds that cut the index array ``order`` into
    consecutive runs of at most ``limit`` distinct entries; a repeated
    entry starts the next run.  Only one window of ``limit`` entries is a
    Python list at a time."""
    start = 0
    while start < len(order):
        seen = set()
        for i in order[start:start + limit].tolist():
            if i in seen:
                break
            seen.add(i)
        yield start, start + len(seen)
        start += len(seen)


def rank_one_prox(struct, v, alpha, lo=0):
    """The prox of the row terms lo..lo+len(v) at once: row k of ``v``
    moves to v_k + beta_k f_(lo+k), with the betas of ``struct.betas`` at
    s_k = f_(lo+k)'v_k.  When a ridge is folded into the terms, ``v`` is
    first shrunk by shr = 1/(1 + alpha*ridge) and the betas taken at step
    alpha*shr, as in :func:`rank_one_terms`.  ``v`` is overwritten and
    returned; a row with a NaN beta comes back NaN.
    """
    feats = struct.features[lo:lo + v.shape[0]]
    if struct.ridge:
        shr = 1.0 / (1.0 + alpha * struct.ridge)
        v *= shr
        alpha *= shr
    beta = struct.betas(np.einsum("ij,ij->i", feats, v), alpha, lo)
    for k in range(0, v.shape[0], ROW_CHUNK):
        v[k:k + ROW_CHUNK] += beta[k:k + ROW_CHUNK, None] \
            * feats[k:k + ROW_CHUNK]
    return v


def rank_one_objective(struct, x) -> float:
    """The term mean of rank-one rows: mean_i phi_i(f_i'x), plus
    ridge/2 ||x||^2 when a ridge is folded into the terms."""
    loss = float(np.mean(struct.losses(struct.features @ x)))
    return loss + 0.5 * struct.ridge * float(x @ x) if struct.ridge else loss


def rank_one_problem(struct, r: ProxFn, kind: str) -> ProblemSpec:
    """The problem r(x) + mean_i g_i(x) over the rows of ``struct``, which
    it carries as its structure: every f_i zero, g the sequence of
    :func:`rank_one_terms`, which builds no handle until one is indexed,
    and the batched prox and objective of :func:`rank_one_prox` and
    :func:`rank_one_objective`."""
    n, d = struct.features.shape
    return ProblemSpec(
        dim=d, r=r, f=(zero_smooth(),) * n, g=rank_one_terms(struct),
        kind=kind, structure=struct,
        batched_g_prox=partial(rank_one_prox, struct),
        batched_objective=partial(rank_one_objective, struct))


def rank_one_rows(problem: ProblemSpec, kernel: str):
    """The structure that the rank-one ``kernel`` (``"ppg"``, ``"sppg"``
    or ``"spi"``) steps ``problem`` through, or None for the generic path.

    A kernel serves a problem with a structure and every f_i zero whose
    r and folded ridge it models: :class:`RankOnePpg` (``"ppg"``) takes
    the prox of any r and models no folded ridge;
    :func:`rank_one_sppg_block` (``"sppg"``) models no folded ridge and an
    r that is zero or a ridge (:class:`core.RidgeProx`), whose weight is
    its shrink; :func:`rank_one_spi_block` (``"spi"``) models a folded
    ridge and r zero.
    """
    s, r = problem.structure, problem.r
    if s is None or not problem.all_f_zero():
        return None
    served = {"ppg": not s.ridge,
              "sppg": not s.ridge and (r.is_zero or isinstance(r, RidgeProx)),
              "spi": r.is_zero}[kernel]
    return s if served else None


def rank_one_sppg_block(z, zbar, struct, alpha, idx, ridge, xsum=None):
    """Advance the single-term stochastic sweep over the given index block
    for rank-one rows, a run of up to ``SPPG_RUN`` distinct rows at a time.

    ``struct`` gives the rows f_i (``features``), their squared norms
    (``sqnorms``), the row constants (``targets``) and ``beta``, the
    scalar rule that tells hinge from GLM rows; it folds no ridge, and r
    is the ridge (``ridge``/2)||x||^2, 0 for a zero r.  A step on row i sets
    z_i = w + beta_i f_i and moves zbar by the change over n, where
    w = shrink*zbar and shrink = 1/(1 + alpha*ridge).  Over a run of
    distinct rows k = 0..B-1 with rows z0_k and f_k at its start,
    c = shrink/n and g = 1 + c,

        w_k = g^k w0 + c sum_{j<k} g^(k-1-j) (beta_j f_j - z0_j),

    so the points s_k = f_k.(2 w_k - z0_k) whose prox the step takes need
    only the products F w0, F Z0' and F F' and the run's earlier betas.
    A forward recurrence of one short dot and one ``beta`` per step turns
    them into the betas; then z[rows] and zbar are written once, and the
    w_k, each step's prox-r point, are added to ``xsum`` when given (the
    ergodic total).  Mutates z, zbar and ``xsum`` in place; a non-finite
    update raises :class:`NumericalError` naming its term, with the steps
    before it applied, and a :class:`ConvergenceError` from ``beta`` gets
    the row's term index appended.
    """
    n = z.shape[0]
    feats, sqnorms, targets = struct.features, struct.sqnorms, struct.targets
    rule = struct.beta
    shrink = 1.0 / (1.0 + alpha * ridge)
    c = shrink / n
    steps = np.arange(SPPG_RUN)
    lag = steps[:, None] - steps[None, :] - 1
    # weight[k, j] = c g^(k-1-j) for j < k: what step j adds to w_k
    weight = np.where(lag >= 0, c * (1.0 + c) ** np.maximum(lag, 0), 0.0)
    growth = (1.0 + c) ** steps
    # a non-finite row turns its products into NaN without a warning; the
    # recurrence then stops there and names the term
    with np.errstate(invalid="ignore", over="ignore"):
        for start, end in _distinct_runs(idx, SPPG_RUN):
            rows = idx[start:end]
            size = end - start
            f = feats[rows]
            z0 = z[rows]
            w0 = shrink * zbar
            cross = f @ z0.T
            wt = weight[:size, :size]
            gk = growth[:size]
            # f_k.w_k less the beta terms, which the recurrence adds
            base = (gk * (f @ w0) - (wt * cross).sum(1)).tolist()
            gram = f @ f.T
            gram *= wt
            coupling, own = gram.tolist(), cross.diagonal().tolist()
            q, cs = sqnorms[rows].tolist(), targets[rows].tolist()
            beta = []
            try:
                for k in range(size):
                    s = 2.0 * (base[k] + sum(map(mul, coupling[k], beta))) \
                        - own[k]
                    bk = rule(s, q[k], cs[k], alpha)
                    if not math.isfinite(bk):
                        break
                    beta.append(bk)
            except ConvergenceError as exc:
                exc.args = (f"{exc} (term {rows[k]})",)
                raise
            b = len(beta)
            u = f[:b] * np.array(beta)[:, None] - z0[:b]
            delta = wt[:b, :b] @ u
            delta += gk[:b, None] * w0
            if xsum is not None:
                xsum += delta.sum(0)
            delta += u
            z[rows[:b]] = z0[:b] + delta
            zbar += delta.sum(0) * (1.0 / n)
            if b < size:
                raise NumericalError(
                    f"non-finite values from prox of g (term {rows[b]})")


def rank_one_probe(struct, z, x, alpha):
    """One splitting step of rank-one rows with no folded ridge at a held
    z, taken from the structure without moving z: with x the prox-r point
    (finite), row i's term point is x + beta_i f_i, the betas of
    ``struct.betas`` at s_i = f_i.(2x - z_i) = 2 f_i'x - f_i'z_i, from one
    product and one row-dot ``einsum``.  Returns ``(F x, beta, sq)``, sq
    the sum of squares of the steps beta_i f_i + x - z_i, taken a
    ``ROW_CHUNK`` of rows at a time, so nothing the size of z is made.  A
    non-finite beta or step raises :class:`NumericalError` naming its
    term.
    """
    feats = struct.features
    # a non-finite row turns its products into NaN without a warning; its
    # beta is then NaN and names the term
    with np.errstate(invalid="ignore", over="ignore"):
        fx = feats @ x
        beta = struct.betas(2.0 * fx - np.einsum("ij,ij->i", feats, z),
                            alpha)
        _require_finite_rows(beta[:, None], "prox of g")
        sq = 0.0
        for lo in range(0, feats.shape[0], ROW_CHUNK):
            rows = slice(lo, lo + ROW_CHUNK)
            step = feats[rows] * beta[rows, None]
            step += x
            step -= z[rows]
            sq += _require_finite_rows(step, "prox of g", lo)
    return fx, beta, sq


def _held_z(feats, beta, w):
    """The z that :class:`RankOnePpg` holds, z_i = w + beta_i f_i, built a
    chunk of rows at a time."""
    z = np.empty(feats.shape)
    for lo in range(0, z.shape[0], ROW_CHUNK):
        rows = slice(lo, lo + ROW_CHUNK)
        np.multiply(feats[rows], beta[rows, None], out=z[rows])
        z[rows] += w
    return z


class RankOnePpg:
    """Full ppg sweeps over rank-one rows with no folded ridge, for any r
    (see :func:`rank_one_rows`), in scalar coordinates.

    A sweep sets every z_i to x + beta_i f_i, with x the prox of r at zbar,
    whatever z_i was.  So after one sweep z is held as the last x (``w``,
    d numbers), F w and ``beta`` (n numbers each), and a sweep needs only
    Fx = F x, the points s = 2 Fx - F w - beta*q (q the squared row norms),
    the new betas of ``struct.betas``, the new mean
    zbar = x + F'beta/n and the residual
    alpha^2 ||p||^2 = n ||dx||^2 + 2 dbeta.(Fx - F w) + sum_i dbeta_i^2 q_i:
    two products with F and O(n + d) further work, with no pass over z.
    A zero start is the formula with w = 0 and beta = 0, and its zbar is
    zeros.  A warm start is checked where it lies and read through its row
    mean, then by the first sweep through :func:`rank_one_probe`, the row
    dots f_i.z_i and its exact residual a chunk of rows at a time; it is
    neither copied nor written.

    ``state`` is the run's, made here; each :meth:`sweep` sets its ``zbar``
    and counts the iteration, :meth:`objective` takes the recorded
    objective from the sweep's F x, and :meth:`finish` leaves its ``z`` as
    a builder (:class:`core.SolverState`), so z is built on first read.
    The values agree with the row-blocked sweep's to rounding: the mean and
    the residual are summed differently.
    """

    def __init__(self, problem, struct, alpha, warm_start=None):
        n, d = struct.features.shape
        self.struct, self.r = struct, problem.r
        self.w, self.fw, self.beta = np.zeros(d), np.zeros(n), np.zeros(n)
        if warm_start is None:
            self.z0, z, zbar = None, partial(np.zeros, (n, d)), np.zeros(d)
        else:
            self.z0 = z = _checked(np.asarray(warm_start, dtype=float),
                                   (n, d), "warm_start")
            zbar = chunked_row_mean(z, problem.reduce_chunks)
        self.state = SolverState(z=z, zbar=zbar, alpha=alpha)

    def sweep(self):
        """One sweep; returns ``(||p(z)||, x)`` as the row-blocked sweep
        does.  A row whose beta is not finite raises
        :class:`NumericalError` naming its term, before any state moves."""
        state, struct = self.state, self.struct
        feats, q = struct.features, struct.sqnorms
        alpha, n = state.alpha, feats.shape[0]
        x = self.r.prox(state.zbar, alpha)
        _require_finite(x, "prox of r")
        if self.z0 is not None:
            fx, beta, sq = rank_one_probe(struct, self.z0, x, alpha)
            self.z0 = None
        else:
            # a non-finite row turns its products into NaN without a
            # warning; its beta is then NaN and names the term
            with np.errstate(invalid="ignore", over="ignore"):
                fx = feats @ x
                beta = struct.betas(2.0 * fx - self.fw - self.beta * q,
                                    alpha)
                _require_finite_rows(beta[:, None], "prox of g")
                db, dx = beta - self.beta, x - self.w
                sq = (n * float(dx @ dx) + 2.0 * float(db @ (fx - self.fw))
                      + float((db * db) @ q))
        self.w, self.fw, self.beta = x, fx, beta
        state.zbar = x + (beta @ feats) * (1.0 / n)
        state.k += 1
        # the closed form is nonnegative in exact arithmetic, but at the
        # fixed point it can round below zero
        return math.sqrt(max(sq, 0.0)) / alpha, x

    def objective(self, x):
        """The objective r(x) + mean_i phi_i(f_i'x) at x, the last sweep's
        x_half, from the F x that sweep formed: the arithmetic of
        :func:`core.objective` through :func:`rank_one_objective`, with no
        product of its own.  None when r has no value."""
        if self.r.value is None:
            return None
        return float(self.r.value(x)) \
            + float(np.mean(self.struct.losses(self.fw)))

    def finish(self):
        """End the run: after a sweep the state's z becomes the builder of
        z_i = w + beta_i f_i, a chunk of rows at a time; with no sweep a
        zero start keeps its builder of zeros and a warm start is copied,
        so the state never holds the caller's array."""
        if self.state.k:
            self.state.z = partial(_held_z, self.struct.features, self.beta,
                                   self.w)
        elif self.z0 is not None:
            self.state.z = self.z0.copy()


def rank_one_spi_block(x, struct, c, k0, idx):
    """Diminishing-step proximal iteration on rank-one rows, with r zero
    (see :func:`rank_one_rows`): step k on
    row i shrinks x by 1/(1 + a_k*ridge) and moves it along f_i by
    ``struct.beta``, with step sizes a_k = c/k and k continuing from k0.
    Mutates x in place.  A non-finite update raises
    :class:`NumericalError` naming its term, with the steps before it
    applied; a :class:`ConvergenceError` from ``beta`` gets the row's term
    index appended.  The rows' indices, squared norms and constants are
    read into Python lists ``ROW_CHUNK`` steps at a time.
    """
    feats, rule, ridge = struct.features, struct.beta, struct.ridge
    # a non-finite row turns its products into NaN without a warning; the
    # loop then stops there and names the term
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            for lo in range(0, len(idx), ROW_CHUNK):
                rows = idx[lo:lo + ROW_CHUNK]
                for t, i, q, ci in zip(
                        range(lo, lo + len(rows)), rows.tolist(),
                        struct.sqnorms[rows].tolist(),
                        struct.targets[rows].tolist()):
                    ak = c / (k0 + t + 1.0)
                    shr = 1.0 / (1.0 + ak * ridge)
                    xs = x * shr
                    b = rule(float(feats[i] @ xs), q, ci, ak * shr)
                    if not math.isfinite(b):
                        raise NumericalError(
                            f"non-finite values from prox of g (term {i})")
                    x[:] = xs + b * feats[i]
        except ConvergenceError as exc:
            exc.args = (f"{exc} (term {i})",)
            raise


# The names below are kept only because the benchmark harness (perfbench/)
# resolves them: its tracer wraps ``hinge_sppg_block`` and
# ``hinge_spi_block``, and so every name bound to the same function, and
# its run metadata calls the two functions on every run.
hinge_sppg_block = rank_one_sppg_block
hinge_spi_block = rank_one_spi_block


def resolved_backend() -> str:
    """Always ``"numpy"``; kept for the benchmark's run metadata."""
    return "numpy"


def numba_available() -> bool:
    """Whether numba is importable; kept for the benchmark's run metadata."""
    return importlib.util.find_spec("numba") is not None
