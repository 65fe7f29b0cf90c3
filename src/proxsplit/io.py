"""Data files and metrics persistence.

Every writer here has its reader here: dense CSV matrices and LIBSVM files
(the files ``proxsplit gen`` makes) and metrics CSVs, which add a fixed
header.  Floats are written with 17 significant digits, so a write/read
round trip is value-exact for every finite double.  Readers accept UTF-8
with LF or CRLF endings and report malformed input with line numbers.
"""

import os
import subprocess
from dataclasses import dataclass, field

import numpy as np

from .core import ResidualReport

__all__ = ["MetricsLog", "read_dense_csv", "write_dense_csv", "read_libsvm",
           "write_libsvm", "write_metrics_csv", "read_metrics_csv"]

METRICS_HEADER = "k,epoch,wall_time_s,residual_norm,objective,dist_to_ref"


@dataclass
class MetricsLog:
    """Append-only diagnostics record plus run metadata.

    Rows must be strictly increasing in k; metadata holds the run record
    that the solvers' shared loops write (``ppg._log``): solver name, step
    size, problem kind, n, dim, code path, stop reason and, for sampled
    runs, the seed.
    """

    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def append(self, report: ResidualReport):
        if self.rows and report.k <= self.rows[-1].k:
            raise ValueError("metrics rows must be strictly increasing in k")
        self.rows.append(report)


def git_describe() -> str:
    """Source revision of the checkout holding this package, for metadata;
    'unknown' when the package is not in a git checkout."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _parse_float(cell: str, lineno: int, path):
    try:
        return float(cell)
    except ValueError:
        raise ValueError(
            f"{path}:{lineno}: non-numeric cell {cell!r}") from None


def read_dense_csv(path) -> np.ndarray:
    """Rectangular numeric CSV -> (m, d) array.

    A non-numeric first line is treated as a header and skipped; blank
    lines are ignored; ragged rows and bad cells raise with line numbers.
    """
    rows = []
    width = None
    seen_first = False
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip("\r\n").strip()
            if not line:
                continue
            cells = line.split(",")
            if not seen_first:
                seen_first = True
                try:
                    rows.append([float(c) for c in cells])
                except ValueError:
                    continue  # non-numeric first line: header
                width = len(cells)
                continue
            if width is not None and len(cells) != width:
                raise ValueError(
                    f"{path}:{lineno}: ragged row ({len(cells)} cells, "
                    f"expected {width})")
            try:
                rows.append(np.array(cells, dtype=float))
            except ValueError:  # name the first bad cell
                rows.append([_parse_float(c, lineno, path) for c in cells])
            if width is None:
                width = len(cells)
    if not rows:
        raise ValueError(f"{path}: no numeric data")
    return np.asarray(rows, dtype=float)


def write_dense_csv(path, mat) -> None:
    """A matrix (a vector as one row) to :func:`read_dense_csv`'s format,
    no header."""
    np.savetxt(path, np.atleast_2d(mat), fmt="%.17g", delimiter=",")


def read_libsvm(path, dim: int | None = None):
    """Sparse 'label idx:val ...' lines -> dense (n, d) features + labels.

    Indices are 1-based; index 0, a repeated index and malformed tokens
    raise with line numbers.  ``dim`` defaults to the largest index seen.
    """
    labels = []
    entries = []
    max_idx = 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            tokens = line.split()
            labels.append(_parse_float(tokens[0], lineno, path))
            row = {}
            for tok in tokens[1:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: malformed token {tok!r}") from None
                if idx < 1:
                    raise ValueError(
                        f"{path}:{lineno}: index {idx} out of range "
                        "(indices are 1-based)")
                if idx in row:
                    raise ValueError(f"{path}:{lineno}: index {idx} repeated")
                max_idx = max(max_idx, idx)
                row[idx] = val
            entries.append(row)
    if not entries:
        raise ValueError(f"{path}: empty file")
    d = dim if dim is not None else max_idx
    if max_idx > d:
        raise ValueError(f"{path}: index {max_idx} exceeds dim={d}")
    feats = np.zeros((len(entries), d))
    for i, row in enumerate(entries):
        for idx, val in row.items():
            feats[i, idx - 1] = val
    return feats, np.asarray(labels, dtype=float)


def write_libsvm(path, feats, labels) -> None:
    """Dense rows and labels to :func:`read_libsvm`'s format: an integral
    label without a fraction, and the nonzero features only."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row, lab in zip(feats, labels):
            cells = [format(lab, ".0f" if lab == int(lab) else ".17g")]
            cells += [f"{j + 1}:{format(v, '.17g')}"
                      for j, v in enumerate(row) if v != 0.0]
            fh.write(" ".join(cells) + "\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_metrics_csv(log: MetricsLog, path) -> None:
    """Serialize the log under the fixed header; absent fields are empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(METRICS_HEADER + "\n")
        for r in log.rows:
            fh.write(",".join([
                str(int(r.k)),
                _fmt(r.epoch),
                _fmt(r.wall_time_s),
                _fmt(r.residual_norm),
                _fmt(r.objective),
                _fmt(r.dist_to_ref),
            ]) + "\n")


def read_metrics_csv(path) -> MetricsLog:
    """Inverse of :func:`write_metrics_csv`; empty cells become None."""
    log = MetricsLog()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().strip("\r\n")
        if header != METRICS_HEADER:
            raise ValueError(f"{path}:1: unexpected metrics header {header!r}")
        for lineno, raw in enumerate(fh, 2):
            line = raw.strip("\r\n")
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != 6:
                raise ValueError(f"{path}:{lineno}: expected 6 cells")
            opt = [None if c == "" else _parse_float(c, lineno, path)
                   for c in cells[1:]]
            log.append(ResidualReport(
                k=int(cells[0]), epoch=opt[0], wall_time_s=opt[1],
                residual_norm=opt[2], objective=opt[3], dist_to_ref=opt[4]))
    return log
