"""Span tracer that times the proxsplit layers from outside the library.

Every traced call site is a wrapper installed by this module around a
public function of a ``proxsplit`` module or around a handle of a
``ProblemSpec``; the library itself is not edited.  A span covers one call.
Its self time is its duration minus the part covered by the spans it caused
(the calls it made into other traced sites on the same thread).  Totals are
kept in memory per site name and read by the benchmark when it reports.
"""

import dataclasses
import functools
import importlib
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Bytes and flops per step of the numpy hinge block (kernels.py), computed
# from array sizes, not measured: per step it reads a feature row, reads
# and writes one row of z and the running mean (5 d-vectors of doubles) and
# does 11 flops per coordinate.
HINGE_SPPG_BYTES_PER_COORD = 5 * 8
HINGE_SPPG_FLOPS_PER_COORD = 11


class Tracer:
    """Per-site call counts, self times and extra counters.

    Each thread keeps its own span stack, so spans opened by pool workers
    are roots there and never nest under the caller's span; updates to the
    shared totals take a lock.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.maxima = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        frame = [0.0]
        self._stack().append(frame)
        return frame, self.clock()

    def _close(self, name, frame, t0):
        dt = self.clock() - t0
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][0] += dt
        with self._lock:
            self.calls[name] += 1
            self.self_s[name] += dt - frame[0]

    def add(self, name, amount):
        with self._lock:
            self.counts[name] += amount

    def note_max(self, name, value):
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def wrap(self, name, fn, on_call=None):
        """``fn`` with a span named ``name`` around every call; ``on_call``
        then sees ``(tracer, args, result)`` to add extra counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, t0 = self._open()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(name, frame, t0)
            if on_call is not None:
                on_call(self, args, out)
            return out

        return traced

    def counters(self) -> dict:
        """Everything that must repeat exactly between identical runs."""
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update(self.counts)
        out.update(self.maxima)
        return out


class Patches:
    """Module attributes swapped for wrappers, restored by :meth:`restore`."""

    def __init__(self):
        self._undo = []

    def replace(self, owners, original, replacement):
        """Rebind every attribute of ``owners`` that is ``original``.

        Library modules import functions by name from each other, so one
        function can be bound under several modules; all of them change.
        """
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, replacement)
                    self._undo.append((owner, attr, original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "proxsplit"
                                  or name.startswith("proxsplit."))]


# -- extra counts per site ----------------------------------------------------

def _record_rows(tr, args, result):
    tr.add("ppg.record_rows", len(result.log.rows))


def _resyncs(tr, args, result):
    tr.add("sppg.resyncs", int(result.log.metadata.get("resyncs") or 0))


def _draws(tr, args, out):
    tr.add("sppg.take.draws", int(out.size))
    tr.note_max("sppg.take.max_draws", int(out.size))


def _sppg_block(tr, args, out):
    steps = int(len(args[4]))
    coords = steps * int(args[0].shape[1])
    tr.add("kernels.hinge_sppg_block.steps", steps)
    tr.add("kernels.hinge_sppg_block.bytes_computed",
           HINGE_SPPG_BYTES_PER_COORD * coords)
    tr.add("kernels.hinge_sppg_block.flops_computed",
           HINGE_SPPG_FLOPS_PER_COORD * coords)


def _spi_block(tr, args, out):
    tr.add("kernels.hinge_spi_block.steps", int(len(args[4])))


def _read_bytes(tr, args, out):
    tr.add("io.read_dense_csv.bytes", os.path.getsize(args[0]))


def _written_bytes(tr, args, out):
    tr.add("io.write_metrics_csv.bytes", os.path.getsize(args[1]))


# (site name, module, attribute path, extra counts)
FUNCTION_SITES = (
    ("ppg.run", "ppg", "ppg_run", _record_rows),
    ("sppg.run", "sppg", "sppg_run", _resyncs),
    ("sppg.take", "sppg", "IndexSampler.take", _draws),
    ("core.objective", "core", "objective", None),
    ("core.residual_map", "core", "residual_map", None),
    ("core.row_mean", "core", "chunked_row_mean", None),
    ("prox.quadratic", "prox", "prox_quadratic", None),
    ("prox.glm_1d", "prox", "prox_glm_1d", None),
    ("prox.hinge", "prox", "prox_hinge", None),
    ("kernels.hinge_sppg_block", "kernels", "hinge_sppg_block", _sppg_block),
    ("kernels.hinge_spi_block", "kernels", "hinge_spi_block", _spi_block),
    ("baselines.admm", "baselines", "consensus_admm_run", None),
    ("baselines.spi", "baselines", "stochastic_prox_iteration_run", None),
    ("io.read_dense_csv", "io", "read_dense_csv", _read_bytes),
    ("io.write_metrics_csv", "io", "write_metrics_csv", _written_bytes),
    ("cli.load_problem", "cli", "load_problem", None),
)

HANDLE_SITES = ("problems.r_prox", "problems.g_prox", "problems.f_grad",
                "problems.batched_g_prox")

SITES = tuple(s[0] for s in FUNCTION_SITES) + HANDLE_SITES

EXTRA_COUNTS = (
    "ppg.record_rows", "sppg.resyncs", "sppg.take.draws",
    "sppg.take.max_draws", "kernels.hinge_sppg_block.steps",
    "kernels.hinge_sppg_block.bytes_computed",
    "kernels.hinge_sppg_block.flops_computed",
    "kernels.hinge_spi_block.steps", "io.read_dense_csv.bytes",
    "io.write_metrics_csv.bytes",
)


def _resolve(module, path):
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def instrumented(tracer):
    """Trace every function site of :data:`FUNCTION_SITES` while active."""
    # import every site's module before scanning the library's modules
    sites = [(name, importlib.import_module(f"proxsplit.{mod_name}"), path,
              extra) for name, mod_name, path, extra in FUNCTION_SITES]
    modules = _library_modules()
    patches = Patches()
    try:
        for name, module, path, extra in sites:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapped = tracer.wrap(name, original, extra)
            owners = [owner] if owner is not module else modules
            patches.replace(owners, original, wrapped)
        yield
    finally:
        patches.restore()


@contextmanager
def replaced(module_name, attr, make_replacement):
    """Rebind one library name everywhere it is bound, for a block."""
    module = importlib.import_module(f"proxsplit.{module_name}")
    original = getattr(module, attr)
    patches = Patches()
    patches.replace(_library_modules(), original, make_replacement(original))
    try:
        yield
    finally:
        patches.restore()


def instrument_problem(tracer, problem):
    """A copy of ``problem`` whose handles open spans.

    ``is_zero``, ``structure`` and the batched handles are kept, so the
    solvers take exactly the code paths they take on ``problem``.  Handles
    shared by several terms stay shared.
    """
    memo = {}

    def traced(name, fn):
        key = (name, id(fn))
        if key not in memo:
            memo[key] = tracer.wrap(name, fn)
        return memo[key]

    def prox_fn(name, fn):
        return dataclasses.replace(fn, prox=traced(name, fn.prox))

    batched = problem.batched_g_prox
    return dataclasses.replace(
        problem,
        r=prox_fn("problems.r_prox", problem.r),
        g=tuple(prox_fn("problems.g_prox", gi) for gi in problem.g),
        f=tuple(dataclasses.replace(
            fi, gradient=traced("problems.f_grad", fi.gradient))
            for fi in problem.f),
        batched_g_prox=None if batched is None else traced(
            "problems.batched_g_prox", batched))
