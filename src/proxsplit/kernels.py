"""Accelerated inner loops for structured problems.

The stochastic solvers advance one term per step at O(d) cost, so runs at
realistic sizes execute hundreds of thousands of tiny updates; for problems
carrying a recognized structure hint these loops are compiled with numba.
Without numba the hint selects a numpy twin of each kernel.  The sppg twin
takes each run of up to ``SPPG_RUN`` consecutive distinct rows with three
BLAS products and a scalar recurrence over the run, in place of a dozen
small vector operations per step.  The per-term handles of the problem
remain the reference implementation.

Backend selection:
    PROXSPLIT_BACKEND=auto    use numba when importable (default)
    PROXSPLIT_BACKEND=numba   require numba, error if missing
    PROXSPLIT_BACKEND=numpy   force the numpy twins

``set_backend`` overrides the environment for the current process (used by
tests and the benchmark).  Each backend is individually deterministic; the
backends and the per-term path agree to floating-point rounding, not
bitwise, because their sums associate differently.
"""

import math
import os
from dataclasses import dataclass
from operator import mul

import numpy as np

__all__ = ["HingeStructure", "resolved_backend", "set_backend", "numba_available"]

_VALID = ("auto", "numba", "numpy")
_override = None

# Rows per run of the numpy sppg block.  A run costs a few BLAS products
# that grow as SPPG_RUN**2 * d plus a scalar recurrence of SPPG_RUN steps;
# runs of 32 to 64 rows were fastest at d=128, and 256 was slower.
SPPG_RUN = 32

try:
    from numba import njit

    _HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    _HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn
        return wrap if not (args and callable(args[0])) else args[0]


def numba_available() -> bool:
    return _HAS_NUMBA


def set_backend(name: str | None):
    """Process-wide backend override; None restores the environment choice."""
    global _override
    if name is not None and name not in _VALID:
        raise ValueError(f"backend must be one of {_VALID}")
    _override = name


def resolved_backend() -> str:
    """The backend in effect: 'numba' or 'numpy'."""
    choice = _override if _override is not None else os.environ.get(
        "PROXSPLIT_BACKEND", "auto")
    if choice not in _VALID:
        raise ValueError(
            f"PROXSPLIT_BACKEND must be one of {_VALID}, got {choice!r}")
    if choice == "numpy":
        return "numpy"
    if choice == "numba" and not _HAS_NUMBA:
        raise RuntimeError("PROXSPLIT_BACKEND=numba but numba is not importable")
    return "numba" if _HAS_NUMBA else "numpy"


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


@njit(cache=True)
def _hinge_sppg_block(z, zbar, feats, labels, sqnorms, ridge, alpha, idx):
    """Advance the single-term stochastic sweep over the given index block.

    Mutates z and zbar in place; returns the offending term index on a
    non-finite update, else -1.
    """
    n, d = z.shape
    inv_n = 1.0 / n
    shrink = 1.0 / (1.0 + alpha * ridge)
    for t in range(idx.shape[0]):
        i = idx[t]
        dot = 0.0
        for j in range(d):
            dot += feats[i, j] * (2.0 * (zbar[j] * shrink) - z[i, j])
        m = (1.0 - labels[i] * dot) / sqnorms[i]
        if not math.isfinite(m):
            return i
        if m < 0.0:
            m = 0.0
        elif m > alpha:
            m = alpha
        beta = m * labels[i]
        for j in range(d):
            x_half = zbar[j] * shrink
            delta = (2.0 * x_half - z[i, j] + beta * feats[i, j]) - x_half
            z[i, j] += delta
            zbar[j] += delta * inv_n
    return -1


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


def _hinge_sppg_block_numpy(z, zbar, feats, labels, sqnorms, ridge, alpha, idx):
    """Numpy twin of the compiled block: the same update, taken a run of up
    to ``SPPG_RUN`` distinct rows at a time.

    A step on row i sets z_i = w + beta_i f_i and moves zbar by the change
    over n, where w = shrink*zbar.  Over a run of distinct rows k = 0..B-1
    with rows z0_k and f_k at its start, c = shrink/n and g = 1 + c,

        w_k = g^k w0 + c sum_{j<k} g^(k-1-j) (beta_j f_j - z0_j),

    so the margins f_k.(2 w_k - z0_k) need only the products F w0, F Z0'
    and F F' and the run's earlier betas.  The betas follow by a forward
    recurrence of one short dot each; then z[rows] and zbar are written
    once.  Mutates z and zbar in place; returns the offending term index on
    a non-finite update, else -1, with the steps before it applied.
    """
    n = z.shape[0]
    shrink = 1.0 / (1.0 + alpha * ridge)
    c = shrink / n
    steps = np.arange(SPPG_RUN)
    lag = steps[:, None] - steps[None, :] - 1
    # weight[k, j] = c g^(k-1-j) for j < k: what step j adds to w_k
    weight = np.where(lag >= 0, c * (1.0 + c) ** np.maximum(lag, 0), 0.0)
    growth = (1.0 + c) ** steps
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
        coupling = gram.tolist()
        own = cross.diagonal().tolist()
        y = labels[rows].tolist()
        sq = sqnorms[rows].tolist()
        beta = []
        for k in range(size):
            s = 2.0 * (base[k] + sum(map(mul, coupling[k], beta))) - own[k]
            # a zero row divides by zero: reported like any non-finite step
            m = (1.0 - y[k] * s) / sq[k] if sq[k] else math.inf
            if not math.isfinite(m):
                break
            beta.append(min(max(m, 0.0), alpha) * y[k])
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


@njit(cache=True)
def _hinge_spi_block(x, feats, labels, sqnorms, ridge, c, k0, idx):
    """Diminishing-step proximal iteration on hinge-plus-ridge terms.

    Step sizes follow c/k with k continuing from k0; mutates x in place.
    """
    d = x.shape[0]
    for t in range(idx.shape[0]):
        i = idx[t]
        ak = c / (k0 + t + 1.0)
        shr = 1.0 / (1.0 + ak * ridge)
        tau = ak * shr
        dot = 0.0
        for j in range(d):
            dot += feats[i, j] * (x[j] * shr)
        m = (1.0 - labels[i] * dot) / sqnorms[i]
        if not math.isfinite(m):
            return i
        if m < 0.0:
            m = 0.0
        elif m > tau:
            m = tau
        beta = m * labels[i]
        for j in range(d):
            x[j] = x[j] * shr + beta * feats[i, j]
    return -1


def _hinge_spi_block_numpy(x, feats, labels, sqnorms, ridge, c, k0, idx):
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


def hinge_sppg_block(z, zbar, struct: HingeStructure, alpha, idx):
    fn = (_hinge_sppg_block if resolved_backend() == "numba"
          else _hinge_sppg_block_numpy)
    return fn(z, zbar, struct.features, struct.labels, struct.sqnorms,
              struct.ridge, alpha, idx)


def hinge_spi_block(x, struct: HingeStructure, c, k0, idx):
    fn = (_hinge_spi_block if resolved_backend() == "numba"
          else _hinge_spi_block_numpy)
    return fn(x, struct.features, struct.labels, struct.sqnorms,
              struct.ridge, c, k0, idx)
