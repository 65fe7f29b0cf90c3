"""Rank-one row terms and the numpy loops over them.

Hinge and GLM rows share one form, g_i(u) = phi_i(f_i'u), whose prox moves
u along f_i by a scalar beta of s = f_i'u.  :class:`HingeStructure` and
:class:`GlmStructure` state each kind's rules once: ``betas`` (every row's
beta), ``losses`` (every row's phi_i) and ``run_betas`` (the betas of one
run of sppg steps, by a scalar recurrence).  The rest is shared:
:func:`rank_one_prox` and :func:`rank_one_objective` are the problems'
``batched_g_prox`` and ``batched_objective``, and :func:`rank_one_sppg_block`
takes each run of up to ``SPPG_RUN`` consecutive distinct sppg rows with
three BLAS products and the recurrence, in place of a dozen small vector
operations per step.  :func:`hinge_spi_block` is the spi baseline's loop
over folded hinge rows.  The per-term handles of the problem remain the
reference implementation; the kernels agree with them to floating-point
rounding, not bitwise, because their sums associate differently.
"""

import importlib.util
import math
from dataclasses import dataclass
from operator import mul
from typing import Callable, ClassVar

import numpy as np

from .core import ConvergenceError
from .prox import _glm_roots, glm_root

__all__ = ["HingeStructure", "GlmStructure", "rank_one_prox",
           "rank_one_objective", "rank_one_sppg_block", "hinge_spi_block"]

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

    def betas(self, s, alpha):
        """The clip coefficient of every row at s_i = f_i'v."""
        m = (1.0 - self.labels * s) / self.sqnorms
        return np.clip(m, 0.0, alpha) * self.labels

    def losses(self, s):
        """The hinge max(1 - y_i s_i, 0) of every row."""
        return np.maximum(1.0 - self.labels * s, 0.0)

    def run_betas(self, rows, base, coupling, own, sq, alpha):
        """The clip coefficients of one run of :func:`rank_one_sppg_block`;
        stops short at the first non-finite step."""
        y = self.labels[rows].tolist()
        beta = []
        for k in range(len(base)):
            s = 2.0 * (base[k] + sum(map(mul, coupling[k], beta))) - own[k]
            # a zero row divides by zero: reported like any non-finite step
            m = (1.0 - y[k] * s) / sq[k] if sq[k] else math.inf
            if not math.isfinite(m):
                break
            beta.append(min(max(m, 0.0), alpha) * y[k])
        return beta


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

    def losses(self, s):
        """A(s_i) - t_i s_i of every row."""
        return self.value(s) - self.responses * s

    def run_betas(self, rows, base, coupling, own, sq, alpha):
        """The prox coefficients of one run of :func:`rank_one_sppg_block`:
        beta = (t - s)/q with t the root of :func:`prox.glm_root`.  A zero
        data row gives beta = 0; a non-finite step ends the run short."""
        resp = self.responses[rows].tolist()
        deriv = self.deriv
        beta = []
        try:
            for k in range(len(base)):
                s = 2.0 * (base[k] + sum(map(mul, coupling[k], beta))) - own[k]
                q = sq[k]
                if not q:
                    beta.append(0.0)
                    continue
                aq = alpha * q
                if not (math.isfinite(s) and math.isfinite(aq)
                        and math.isfinite(resp[k])):
                    break
                beta.append((glm_root(s, aq, resp[k], deriv) - s) / q)
        except ConvergenceError as exc:
            exc.args = (f"{exc} (term {rows[k]})",)
            raise
        return beta


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
    (``sqnorms``), the ridge held in r (``ridge``), and ``run_betas``, the
    scalar part that tells hinge from GLM rows.  A step on row i sets
    z_i = w + beta_i f_i and moves zbar by the change over n, where
    w = shrink*zbar and shrink = 1/(1 + alpha*ridge).  Over a run of
    distinct rows k = 0..B-1 with rows z0_k and f_k at its start,
    c = shrink/n and g = 1 + c,

        w_k = g^k w0 + c sum_{j<k} g^(k-1-j) (beta_j f_j - z0_j),

    so the points s_k = f_k.(2 w_k - z0_k) whose prox the step takes need
    only the products F w0, F Z0' and F F' and the run's earlier betas.
    ``struct.run_betas`` turns them into the betas by a forward recurrence
    of one short dot each; then z[rows] and zbar are written once.
    Mutates z and zbar in place; returns the offending term index on a
    non-finite update, else -1, with the steps before it applied.
    """
    n = z.shape[0]
    feats, sqnorms = struct.features, struct.sqnorms
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
            beta = struct.run_betas(rows, base, gram.tolist(),
                                    cross.diagonal().tolist(),
                                    sqnorms[rows].tolist(), alpha)
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


# the benchmark harness (perfbench/) traces this function by its name
def hinge_spi_block(x, struct: HingeStructure, c, k0, idx):
    """Diminishing-step proximal iteration on folded hinge-plus-ridge rows.

    Step sizes follow c/k with k continuing from k0; mutates x in place.
    Returns the offending term index on a non-finite update, else -1,
    with the steps before it applied.
    """
    feats, labels, sqnorms = struct.features, struct.labels, struct.sqnorms
    ridge = struct.ridge
    # a non-finite row turns its products into NaN without a warning; the
    # loop then stops there and the caller reports the term
    with np.errstate(invalid="ignore", over="ignore"):
        for t, i in enumerate(idx):
            ak = c / (k0 + t + 1.0)
            shr = 1.0 / (1.0 + ak * ridge)
            tau = ak * shr
            xs = x * shr
            m = (1.0 - labels[i] * float(feats[i] @ xs)) / sqnorms[i]
            if not math.isfinite(m):
                return i
            beta = min(max(m, 0.0), tau) * labels[i]
            x[:] = xs + beta * feats[i]
    return -1


# The three names below are kept only because the benchmark harness
# (perfbench/) resolves them: its tracer wraps ``hinge_sppg_block``, and so
# every name bound to the same function, and its run metadata calls the
# two functions on every run.
hinge_sppg_block = rank_one_sppg_block


def resolved_backend() -> str:
    """Always ``"numpy"``; kept for the benchmark's run metadata."""
    return "numpy"


def numba_available() -> bool:
    """Whether numba is importable; kept for the benchmark's run metadata."""
    return importlib.util.find_spec("numba") is not None
