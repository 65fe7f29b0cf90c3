"""Readers, writers, and the value-exact metrics round trip."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxsplit.core import ResidualReport
from proxsplit.io import (METRICS_HEADER, MetricsLog, read_dense_csv,
                          read_libsvm, read_metrics_csv, write_dense_csv,
                          write_libsvm, write_metrics_csv)


class TestDenseCsv:
    def test_basic(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,4\n")
        assert np.array_equal(read_dense_csv(p), [[1.0, 2.0], [3.0, 4.0]])

    def test_header_autodetected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("colA,colB\n1,2\n3,4\n")
        assert np.array_equal(read_dense_csv(p), [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("text, cell", [("1.0,2.0,abc\n3,4,5\n", "abc"),
                                            ("x,2\n3,4\n", "x")])
    def test_first_row_with_a_bad_cell_rejected(self, tmp_path, text, cell):
        # a first line that holds a number is data, not a header: it used
        # to be dropped without a word
        p = tmp_path / "m.csv"
        p.write_text(text)
        with pytest.raises(ValueError) as exc:
            read_dense_csv(p)
        assert str(exc.value) == f"{p}:1: non-numeric cell {cell!r}"

    def test_crlf_accepted(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"1,2\r\n3,4\r\n")
        assert np.array_equal(read_dense_csv(p), [[1.0, 2.0], [3.0, 4.0]])

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="no numeric data"):
            read_dense_csv(p)

    def test_ragged_row_line_number(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,4,5\n")
        with pytest.raises(ValueError, match=r":2.*ragged"):
            read_dense_csv(p)

    def test_bad_cell_line_number(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,x\n")
        with pytest.raises(ValueError, match=r":2.*'x'"):
            read_dense_csv(p)

    @pytest.mark.parametrize("text, line, cell", [
        ("a,b,c\n1,2x,3\n4,5,6\n", 2, "2x"),
        ("a,b,c\n\n1,2,3\n4, ,6\n7,8,9\n", 4, " "),
        ("1,2,3\n4,5,6\n7,8,nine\n", 3, "nine"),
    ])
    def test_bad_cell_message_names_the_first_bad_cell(self, tmp_path, text,
                                                       line, cell):
        # a row parses in one call; one that fails is parsed again cell by
        # cell, so the message names its line and its first bad cell
        p = tmp_path / "m.csv"
        p.write_text(text)
        with pytest.raises(ValueError) as exc:
            read_dense_csv(p)
        assert str(exc.value) == f"{p}:{line}: non-numeric cell {cell!r}"

    def test_values_are_those_of_float(self, tmp_path):
        # every spelling that float() reads, read to the same double
        cells = [" 1.5", "-0", "1_0", "+.5", "5.", "Infinity", "-inf", "nan",
                 "1e-400", "1e400", "2.2250738585072011e-308",
                 "0.1000000000000000055511151231257827"]
        p = tmp_path / "m.csv"
        p.write_text("h" + ",h" * (len(cells) - 1) + "\n"
                     + ",".join(cells) + "\n" + ",".join(cells[::-1]) + "\n")
        want = np.array([[float(c) for c in cells],
                         [float(c) for c in cells[::-1]]])
        got = read_dense_csv(p)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_write_pins_bytes(self, tmp_path):
        # 17 significant digits, C's %g spelling of zero, subnormals and
        # large exponents; a vector is one row
        p = tmp_path / "m.csv"
        write_dense_csv(p, [[0.1, -0.0, 5e-324], [1e300, 1 / 3, 2.0]])
        assert p.read_bytes() == (
            b"0.10000000000000001,-0,4.9406564584124654e-324\n"
            b"1.0000000000000001e+300,0.33333333333333331,2\n")
        write_dense_csv(p, np.array([0.5, -1.0]))
        assert p.read_bytes() == b"0.5,-1\n"

    def test_large_round_trip_bitwise(self, tmp_path, rng):
        mat = rng.standard_normal((1000, 1000))
        p = tmp_path / "big.csv"
        write_dense_csv(p, mat)
        back = read_dense_csv(p)
        assert np.array_equal(back, mat)


class TestLibsvm:
    def test_basic(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("+1 1:0.5 3:2\n")
        feats, labels = read_libsvm(p, dim=3)
        assert np.array_equal(feats, [[0.5, 0.0, 2.0]])
        assert labels[0] == 1.0

    def test_label_only_line(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("-1\n")
        feats, labels = read_libsvm(p, dim=2)
        assert np.array_equal(feats, [[0.0, 0.0]])
        assert labels[0] == -1.0

    def test_dim_inferred(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("1 2:1\n-1 4:3\n")
        feats, _ = read_libsvm(p)
        assert feats.shape == (2, 4)

    def test_index_zero_rejected(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("1 0:2\n")
        with pytest.raises(ValueError, match=r":1.*1-based"):
            read_libsvm(p)

    def test_malformed_token_line_number(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("1 1:1\n1 2:zz\n")
        with pytest.raises(ValueError, match=r":2.*'2:zz'"):
            read_libsvm(p)

    def test_repeated_index_rejected(self, tmp_path):
        # a repeated index is an error with its place, not a silent last
        # value wins
        p = tmp_path / "d.libsvm"
        p.write_text("1 2:1\n1 1:0.5 1:2.0 3:1\n")
        with pytest.raises(ValueError, match=r"d\.libsvm:2: index 1 repeated"):
            read_libsvm(p)

    def test_write_pins_bytes(self, tmp_path):
        # an integral label without a fraction, then the nonzero features
        # only, 1-based, in 17 significant digits; -0.0 counts as zero
        p = tmp_path / "d.libsvm"
        write_libsvm(p, np.array([[0.0, 0.5, -0.0, 1 / 3]]), np.array([-1.0]))
        assert p.read_bytes() == b"-1 2:0.5 4:0.33333333333333331\n"

    def test_round_trip(self, tmp_path, rng):
        feats = rng.standard_normal((50, 7))
        feats[rng.random((50, 7)) < 0.4] = 0.0
        feats[:, 0] += 1.0  # keep at least one nonzero per row
        labels = np.where(rng.random(50) < 0.5, -1.0, 1.0)
        p = tmp_path / "d.libsvm"
        write_libsvm(p, feats, labels)
        back_f, back_l = read_libsvm(p, dim=7)
        assert np.array_equal(back_f, feats)
        assert np.array_equal(back_l, labels)


    def test_nonfinite_labels_round_trip(self, tmp_path):
        # an integral test of int(label) raised OverflowError on inf and
        # ValueError on NaN
        labels = np.array([np.inf, -np.inf, np.nan, 2.0, 0.5])
        p = tmp_path / "d.libsvm"
        write_libsvm(p, np.eye(5), labels)
        assert p.read_text().split("\n")[:4] == ["inf 1:1", "-inf 2:1",
                                                 "nan 3:1", "2 4:1"]
        feats, back = read_libsvm(p, dim=5)
        assert np.array_equal(feats, np.eye(5))
        assert np.array_equal(back, labels, equal_nan=True)


class TestMetrics:
    def test_empty_log_header_only(self, tmp_path):
        p = tmp_path / "m.csv"
        write_metrics_csv(MetricsLog(), p)
        assert p.read_text() == METRICS_HEADER + "\n"

    def test_row_round_trip(self, tmp_path):
        log = MetricsLog()
        log.append(ResidualReport(k=3, residual_norm=1.25e-7,
                                  objective=0.1 + 0.2, dist_to_ref=None,
                                  wall_time_s=None, epoch=1.5))
        p = tmp_path / "m.csv"
        write_metrics_csv(log, p)
        back = read_metrics_csv(p)
        row = back.rows[0]
        assert row.k == 3
        assert row.residual_norm == 1.25e-7
        assert row.objective == 0.1 + 0.2
        assert row.dist_to_ref is None and row.wall_time_s is None
        assert row.epoch == 1.5

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False, min_value=0))
    def test_seventeen_digit_round_trip(self, obj, resid):
        assert float(format(obj, ".17g")) == obj
        assert float(format(resid, ".17g")) == resid

    def test_many_rows_fast(self, tmp_path):
        log = MetricsLog()
        for k in range(10_000):
            log.append(ResidualReport(k=k, residual_norm=1.0 / (k + 1),
                                      objective=float(k), dist_to_ref=0.5,
                                      wall_time_s=0.25, epoch=float(k)))
        p = tmp_path / "m.csv"
        t0 = time.perf_counter()
        write_metrics_csv(log, p)
        assert time.perf_counter() - t0 < 1.0
        assert len(read_metrics_csv(p).rows) == 10_000

    def test_strictly_increasing_k_enforced(self):
        log = MetricsLog()
        log.append(ResidualReport(k=1, residual_norm=0.0))
        with pytest.raises(ValueError, match="increasing"):
            log.append(ResidualReport(k=1, residual_norm=0.0))


class TestGitDescribe:
    def test_reports_the_package_checkout_from_any_directory(
            self, tmp_path, monkeypatch):
        import os
        import subprocess

        from proxsplit import io as pio
        here = os.path.dirname(os.path.abspath(pio.__file__))
        try:
            out = subprocess.run(["git", "describe", "--always", "--dirty"],
                                 cwd=here, capture_output=True, text=True,
                                 timeout=10)
        except OSError:
            pytest.skip("git is not available")
        if out.returncode != 0:
            pytest.skip("the package is not in a git checkout")
        monkeypatch.chdir(tmp_path)
        assert pio.git_describe() == out.stdout.strip()
