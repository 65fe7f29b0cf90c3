"""Rank-one row terms and the numpy loops over them.

Hinge and GLM rows share one form, g_i(u) = phi_i(f_i'u), whose prox moves
u along f_i by a scalar beta of s = f_i'u.  :class:`HingeStructure` and
:class:`GlmStructure` state each kind's rule twice and no more: ``betas``
(every row's beta at once, for batched sweeps) and ``beta`` (one row's, in
scalar arithmetic), plus ``losses`` (phi_i).  Everything else is built from
them here, for either kind: :func:`rank_one_terms` gives the problem's
per-term handles, :func:`rank_one_prox` and :func:`rank_one_objective` its
``batched_g_prox`` and ``batched_objective``, :func:`rank_one_sppg_block`
takes each run of up to ``SPPG_RUN`` consecutive distinct sppg rows with
three BLAS products and a scalar recurrence of ``beta``, in place of a
dozen small vector operations per step, and :func:`rank_one_spi_block` is
the spi baseline's loop of ``beta`` steps.  The per-term handles remain the
reference path; the kernels agree with them to floating-point rounding, not
bitwise, because their sums associate differently.
"""

import importlib.util
import math
from dataclasses import dataclass
from functools import partial
from operator import mul
from typing import Callable, ClassVar

import numpy as np

from .core import ConvergenceError, ProxFn
from .prox import _glm_roots, glm_root

__all__ = ["HingeStructure", "GlmStructure", "rank_one_terms",
           "rank_one_prox", "rank_one_objective", "rank_one_sppg_block",
           "rank_one_spi_block"]

# Rows per run of the numpy sppg block.  A run costs a few BLAS products
# that grow as SPPG_RUN**2 * d plus a scalar recurrence of SPPG_RUN steps;
# runs of 32 to 64 rows were fastest at d=128, and 256 was slower.
SPPG_RUN = 32
# rows per in-place update of rank_one_prox; bounds its temporary to a
# small block instead of a second n x d array
ROW_CHUNK = 256


@dataclass(frozen=True)
class HingeStructure:
    """Marks a problem as hinge-loss rows plus a ridge term.

    ``folded=False``: the ridge sits in the global term r (splitting-solver
    form).  ``folded=True``: the ridge is folded into each per-term function
    (prox-only form used by the stochastic proximal iteration baseline).
    ``sqnorms`` caches the squared row norms of ``features``.
    """

    features: np.ndarray
    labels: np.ndarray
    sqnorms: np.ndarray
    ridge: float
    folded: bool = False

    @property
    def targets(self) -> np.ndarray:
        """Each row's constant c of :meth:`beta`: its label."""
        return self.labels

    def betas(self, s, alpha):
        """The clip coefficient of every row at s_i = f_i'v."""
        m = (1.0 - self.labels * s) / self.sqnorms
        return np.clip(m, 0.0, alpha) * self.labels

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
class GlmStructure:
    """Marks a problem as generalized-linear-model rows and nothing else:
    term i is A(f_i'x) - t_i f_i'x for the cumulant A with handles
    ``value`` and ``deriv`` that map arrays elementwise, with ``sqnorms``
    the squared row norms of ``features`` and no ridge.
    """

    features: np.ndarray
    sqnorms: np.ndarray
    responses: np.ndarray
    deriv: Callable
    value: Callable
    ridge: ClassVar[float] = 0.0
    folded: ClassVar[bool] = False

    @property
    def targets(self) -> np.ndarray:
        """Each row's constant c of :meth:`beta`: its response."""
        return self.responses

    def betas(self, s, alpha):
        """beta = (t - s)/q of every row at s_i = f_i'v, with t the root of
        t + alpha*q*(A'(t) - t_i) = s by :func:`prox._glm_roots`: the
        safeguarded secant rule of :func:`prox.glm_root`, one vectorized
        evaluation of A' per round for all unsolved rows.  A zero data row
        gives 0; a row whose input, data or response is not finite gives
        NaN, for the caller to report by index."""
        q = self.sqnorms
        with np.errstate(over="ignore", invalid="ignore"):
            aq = alpha * q
            finite = np.isfinite(s) & np.isfinite(aq) & np.isfinite(
                self.responses)
            beta = np.where(finite, 0.0, np.nan)
            rows = np.flatnonzero(finite & (q > 0.0))
            # views, not copies, when every row has a root to solve
            sel = rows if rows.size < s.size else slice(None)
            root = _glm_roots(s[sel], aq[sel], self.responses[sel],
                              self.deriv, rows)
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
    ridge = struct.ridge if struct.folded else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        shr = 1.0 / (1.0 + a * ridge)
        xs = x0 * shr
        return xs + struct.beta(float(f @ xs), float(struct.sqnorms[i]),
                                float(struct.targets[i]), a * shr) * f


def _term_value(struct, i, x):
    """The value of term i of :func:`rank_one_terms`."""
    loss = float(struct.losses(float(struct.features[i] @ x), i))
    return loss + 0.5 * struct.ridge * float(x @ x) if struct.folded else loss


def rank_one_terms(struct) -> tuple:
    """The per-term handles of rank-one rows, one :class:`ProxFn` per row,
    built from ``struct.beta`` and ``struct.losses``.

    The prox of term i at x0 with step a moves x0 along f_i by the beta of
    s = f_i'x0.  When the ridge is folded into the terms, x0 and the step
    are first shrunk by 1/(1 + a*ridge), and the value adds ridge/2 ||x||^2
    to phi_i(f_i'x).  A row whose beta is NaN gives a NaN point, without a
    warning, for the caller to report by term.
    """
    return tuple(ProxFn(prox=partial(_term_prox, struct, i),
                        value=partial(_term_value, struct, i))
                 for i in range(struct.features.shape[0]))


def _distinct_runs(order, limit):
    """(start, end) bounds that cut ``order`` into consecutive runs of at
    most ``limit`` distinct entries; a repeated entry starts the next run."""
    start = 0
    while start < len(order):
        end, seen = start, set()
        stop = min(len(order), start + limit)
        while end < stop and order[end] not in seen:
            seen.add(order[end])
            end += 1
        yield start, end
        start = end


def rank_one_prox(struct, v, alpha):
    """The prox of every row term at once: row i of ``v`` moves to
    v_i + beta_i f_i, with the betas of ``struct.betas`` at s_i = f_i'v_i.
    ``v`` is overwritten and returned; a row with a NaN beta comes back NaN.
    """
    feats = struct.features
    beta = struct.betas(np.einsum("ij,ij->i", feats, v), alpha)
    for lo in range(0, v.shape[0], ROW_CHUNK):
        hi = lo + ROW_CHUNK
        v[lo:hi] += beta[lo:hi, None] * feats[lo:hi]
    return v


def rank_one_objective(struct, x) -> float:
    """ridge/2 ||x||^2 + mean_i phi_i(f_i'x), the objective of rank-one rows
    whether the ridge sits in r or is folded into the terms."""
    return (0.5 * struct.ridge * float(x @ x)
            + float(np.mean(struct.losses(struct.features @ x))))


def rank_one_sppg_block(z, zbar, struct, alpha, idx):
    """Advance the single-term stochastic sweep over the given index block
    for rank-one rows, a run of up to ``SPPG_RUN`` distinct rows at a time.

    ``struct`` gives the rows f_i (``features``), their squared norms
    (``sqnorms``), the ridge held in r (``ridge``), the row constants
    (``targets``) and ``beta``, the scalar rule that tells hinge from GLM
    rows.  A step on row i sets
    z_i = w + beta_i f_i and moves zbar by the change over n, where
    w = shrink*zbar and shrink = 1/(1 + alpha*ridge).  Over a run of
    distinct rows k = 0..B-1 with rows z0_k and f_k at its start,
    c = shrink/n and g = 1 + c,

        w_k = g^k w0 + c sum_{j<k} g^(k-1-j) (beta_j f_j - z0_j),

    so the points s_k = f_k.(2 w_k - z0_k) whose prox the step takes need
    only the products F w0, F Z0' and F F' and the run's earlier betas.
    A forward recurrence of one short dot and one ``beta`` per step turns
    them into the betas; then z[rows] and zbar are written once.  A
    :class:`ConvergenceError` from ``beta`` gets the row's term index
    appended.  Mutates z and zbar in place; returns the offending term
    index on a non-finite update, else -1, with the steps before it
    applied.
    """
    n = z.shape[0]
    feats, sqnorms, targets = struct.features, struct.sqnorms, struct.targets
    rule = struct.beta
    shrink = 1.0 / (1.0 + alpha * struct.ridge)
    c = shrink / n
    steps = np.arange(SPPG_RUN)
    lag = steps[:, None] - steps[None, :] - 1
    # weight[k, j] = c g^(k-1-j) for j < k: what step j adds to w_k
    weight = np.where(lag >= 0, c * (1.0 + c) ** np.maximum(lag, 0), 0.0)
    growth = (1.0 + c) ** steps
    # a non-finite row turns its products into NaN without a warning; the
    # recurrence then stops there and the caller reports the term
    with np.errstate(invalid="ignore", over="ignore"):
        for start, end in _distinct_runs(idx.tolist(), SPPG_RUN):
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
            delta += u
            z[rows[:b]] = z0[:b] + delta
            zbar += delta.sum(0) * (1.0 / n)
            if b < size:
                return int(rows[b])
    return -1


def rank_one_spi_block(x, struct, c, k0, idx):
    """Diminishing-step proximal iteration on rank-one rows whose ridge is
    folded into the terms or zero: step k on row i shrinks x by
    1/(1 + a_k*ridge) and moves it along f_i by ``struct.beta``, with step
    sizes a_k = c/k and k continuing from k0.  Mutates x in place.
    Returns the offending term index on a non-finite update, else -1,
    with the steps before it applied; a :class:`ConvergenceError` from
    ``beta`` gets the row's term index appended.
    """
    feats, rule, ridge = struct.features, struct.beta, struct.ridge
    q, cs = struct.sqnorms[idx].tolist(), struct.targets[idx].tolist()
    # a non-finite row turns its products into NaN without a warning; the
    # loop then stops there and the caller reports the term
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            for t, i in enumerate(idx.tolist()):
                ak = c / (k0 + t + 1.0)
                shr = 1.0 / (1.0 + ak * ridge)
                xs = x * shr
                b = rule(float(feats[i] @ xs), q[t], cs[t], ak * shr)
                if not math.isfinite(b):
                    return i
                x[:] = xs + b * feats[i]
        except ConvergenceError as exc:
            exc.args = (f"{exc} (term {i})",)
            raise
    return -1


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
