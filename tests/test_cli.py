"""Command-line driver: generation reproducibility, solve exit codes,
validation messages, and the comparison pipeline."""

import json

import numpy as np
import pytest

from proxsplit import cli
from proxsplit.cli import ALGOS, main
from proxsplit.io import read_metrics_csv


def _baseline_problem(algo):
    """A problem in the class of ``algo``: prox-grad and finito need a
    smooth-only problem, admm and spi a prox-only one; no generated kind
    is either, so they are built here."""
    from conftest import abs_prox_fn, make_quadratic_term
    from proxsplit.core import ProblemSpec, zero_prox, zero_smooth
    rng = np.random.default_rng(4)
    if algo in ("admm", "spi"):
        dim, f = 1, [zero_smooth()] * 3
        g = [abs_prox_fn(float(c)) for c in rng.standard_normal(3)]
    else:
        dim, g = 2, [zero_prox()] * 3
        f = [make_quadratic_term(rng.standard_normal(2),
                                 float(rng.standard_normal()))
             for _ in range(3)]
    return ProblemSpec(dim=dim, r=zero_prox(), f=f, g=g)


def _gen(tmp_path, *extra, kind="group-lasso", seed=0, sub="prob"):
    out = tmp_path / sub
    args = ["gen", kind, "--out", str(out), "--seed", str(seed),
            "--m", "40", "--d", "12", "--n", "2"]
    assert main(args + list(extra)) == 0
    return out / "problem.json"


class TestGen:
    def test_same_seed_identical_files(self, tmp_path):
        p1 = _gen(tmp_path, sub="a")
        p2 = _gen(tmp_path, sub="b")
        for name in ("A.csv", "b.csv", "problem.json"):
            assert (p1.parent / name).read_bytes() == \
                (p2.parent / name).read_bytes()

    def test_different_seed_different_data(self, tmp_path):
        p1 = _gen(tmp_path, seed=0, sub="a")
        p2 = _gen(tmp_path, seed=1, sub="b")
        assert (p1.parent / "A.csv").read_bytes() != \
            (p2.parent / "A.csv").read_bytes()

    def test_unwritable_out_dir(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(["gen", "group-lasso", "--out", str(blocker / "sub"),
                     "--seed", "0"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_family_exit_one(self, tmp_path, capsys):
        # argparse's exit code 2 means an exhausted budget here, and the
        # family used to be checked only after --out was created
        out = tmp_path / "glm"
        code = main(["gen", "glm", "--family", "bogus", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--family" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("vertices", ["1", "0"])
    def test_network_lasso_too_few_vertices_exit_one(self, tmp_path, capsys,
                                                     vertices):
        # one vertex used to write the self-loop [0, 0], which solve rejects
        out = tmp_path / "net"
        code = main(["gen", "network-lasso", "--vertices", vertices,
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--vertices" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind, flag, value, message", [
        ("svm", "--n", "0", "--n: must be at least 1, got 0"),
        ("glm", "--d", "0", "--d: must be at least 1, got 0"),
        ("fused-lasso", "--n", "0", "--n: must be at least 1, got 0"),
        ("group-lasso", "--m", "0", "--m: must be at least 1, got 0"),
        ("glm", "--n", "two", "--n: invalid int value: 'two'"),
        ("group-lasso", "--d", "5", "dim too small"),
    ])
    def test_unusable_size_exit_one(self, tmp_path, capsys, kind, flag,
                                    value, message):
        # sizes of 0 used to write a problem.json that solve rejects, and
        # a recipe that failed left an empty --out directory
        out = tmp_path / "prob"
        code = main(["gen", kind, flag, value, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_group_lasso_shape_of_record(self, tmp_path):
        path = _gen(tmp_path)
        desc = json.loads(path.read_text())
        assert desc["kind"] == "group-lasso"
        assert desc["dim"] == 12
        assert len(desc["params"]["groups"]) == 2

    @pytest.mark.parametrize("kind,extra", [
        ("svm", ["--lam", "0.1"]),
        ("fused-lasso", ["--eps", "0.2"]),
        ("network-lasso", ["--vertices", "6"]),
        ("glm", ["--family", "logistic"]),
    ])
    def test_other_kinds_generate_and_solve(self, tmp_path, kind, extra):
        out = tmp_path / kind
        args = ["gen", kind, "--out", str(out), "--seed", "3",
                "--n", "20", "--d", "6"] + extra
        assert main(args) == 0
        metrics = tmp_path / "m.csv"
        code = main(["solve", "--problem", str(out / "problem.json"),
                     "--algo", "ppg", "--max-iters", "50",
                     "--metrics", str(metrics)])
        assert code == 0
        assert metrics.exists()


class TestSolve:
    def test_group_lasso_converges_exit_zero(self, tmp_path, capsys):
        prob = _gen(tmp_path)
        metrics = tmp_path / "m.csv"
        code = main(["solve", "--problem", str(prob), "--algo", "ppg",
                     "--tol", "1e-9", "--max-iters", "5000",
                     "--metrics", str(metrics)])
        assert code == 0
        out = capsys.readouterr().out
        assert "objective=" in out and "residual=" in out
        log = read_metrics_csv(metrics)
        assert log.rows[-1].residual_norm < 1e-6
        meta = json.loads((str(metrics) + ".meta.json") and
                          open(str(metrics) + ".meta.json").read())
        assert meta["solver"] == "ppg"

    def test_budget_exhausted_exit_two(self, tmp_path):
        prob = _gen(tmp_path)
        code = main(["solve", "--problem", str(prob), "--algo", "ppg",
                     "--tol", "1e-14", "--max-iters", "3",
                     "--metrics", str(tmp_path / "m.csv")])
        assert code == 2

    def test_incompatible_algo_exit_one(self, tmp_path, capsys):
        prob = _gen(tmp_path, kind="fused-lasso", sub="fl")
        code = main(["solve", "--problem", str(prob), "--algo", "spi",
                     "--metrics", str(tmp_path / "m.csv")])
        assert code == 1
        assert "smooth" in capsys.readouterr().err

    @pytest.mark.parametrize("algo,kind", [
        ("prox-grad", "group-lasso"),  # per-term nonsmooth terms
        ("admm", "fused-lasso"),  # smooth terms
        ("spi", "group-lasso"),  # a global term
        ("finito", "group-lasso"),  # per-term nonsmooth terms
    ])
    def test_solver_rejects_problem_outside_its_class(self, tmp_path, capsys,
                                                      algo, kind):
        prob = _gen(tmp_path, kind=kind, sub="p")
        metrics = tmp_path / "m.csv"
        code = main(["solve", "--problem", str(prob), "--algo", algo,
                     "--metrics", str(metrics)])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and "requires" in err
        assert not metrics.exists()

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    def test_bad_tol_exit_one(self, tmp_path, capsys, tol):
        # --tol inf used to stop after one sweep reporting converged=True,
        # --tol nan to run the whole budget
        prob = _gen(tmp_path)
        metrics = tmp_path / "m.csv"
        code = main(["solve", "--problem", str(prob), "--algo", "ppg",
                     "--tol", tol, "--max-iters", "5",
                     "--metrics", str(metrics)])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and "tol" in err
        assert not metrics.exists()

    def test_spi_runs_on_folded_svm(self, tmp_path):
        out = tmp_path / "svm"
        assert main(["gen", "svm", "--out", str(out), "--n", "30",
                     "--d", "5", "--seed", "2"]) == 0
        code = main(["solve", "--problem", str(out / "problem.json"),
                     "--algo", "spi", "--max-iters", "60", "--spi-c", "1.0",
                     "--metrics", str(tmp_path / "m.csv")])
        assert code == 0

    def test_rerun_bytes_identical(self, tmp_path):
        prob = _gen(tmp_path)
        outs = []
        for name in ("x.csv", "y.csv"):
            metrics = tmp_path / name
            assert main(["solve", "--problem", str(prob), "--algo", "sppg",
                         "--seed", "7", "--max-iters", "120",
                         "--metrics", str(metrics)]) == 0
            outs.append(metrics.read_bytes())
        assert outs[0] == outs[1]

    def test_ergodic_flag_reported(self, tmp_path, capsys):
        prob = _gen(tmp_path)
        code = main(["solve", "--problem", str(prob), "--algo", "ppg",
                     "--max-iters", "20", "--ergodic",
                     "--metrics", str(tmp_path / "m.csv")])
        assert code == 0
        assert "ergodic_objective=" in capsys.readouterr().out

    def test_spi_unreached_tol_exit_two(self, tmp_path, capsys):
        out = tmp_path / "svm"
        assert main(["gen", "svm", "--out", str(out), "--n", "30",
                     "--d", "5", "--seed", "2"]) == 0
        code = main(["solve", "--problem", str(out / "problem.json"),
                     "--algo", "spi", "--max-iters", "60", "--tol", "1e-30",
                     "--metrics", str(tmp_path / "m.csv")])
        assert code == 2
        assert "converged=False" in capsys.readouterr().out

    @pytest.mark.parametrize("flags,name", [
        (["--algo", "bogus"], "--algo"),
        (["--max-iters", "x"], "--max-iters"),
        (["--threads", "2"], "--threads"),
    ])
    def test_usage_error_exit_one(self, tmp_path, capsys, flags, name):
        prob = _gen(tmp_path)
        capsys.readouterr()
        code = main(["solve", "--problem", str(prob),
                     "--metrics", str(tmp_path / "m.csv")] + flags)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "m.csv").exists()

    def test_threads_config_field_rejected(self, tmp_path, capsys):
        prob = _gen(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": str(prob), "threads": 2}))
        code = main(["solve", "--config", str(cfg),
                     "--metrics", str(tmp_path / "m.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'threads'" in err
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("iters", ["0", "-3"])
    def test_max_iters_below_one_rejected(self, tmp_path, capsys, iters):
        prob = _gen(tmp_path)
        code = main(["solve", "--problem", str(prob), "--algo", "ppg",
                     "--max-iters", iters,
                     "--metrics", str(tmp_path / "m.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "max_iters" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("every", ["0", "-2"])
    @pytest.mark.parametrize("algo", ["ppg", "sppg", "spi"])
    def test_record_every_below_one_rejected(self, tmp_path, capsys, algo,
                                             every):
        out = tmp_path / "svm"
        assert main(["gen", "svm", "--out", str(out), "--n", "30",
                     "--d", "5", "--seed", "2"]) == 0
        capsys.readouterr()
        code = main(["solve", "--problem", str(out / "problem.json"),
                     "--algo", algo, "--max-iters", "20",
                     "--record-every", every,
                     "--metrics", str(tmp_path / "m.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "record_every" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("algo,flag,name", [
        ("ppg", "--alpha", "alpha"), ("sppg", "--alpha", "alpha"),
        ("admm", "--alpha", "alpha"), ("spi", "--spi-c", "c")])
    def test_nonfinite_step_rejected(self, tmp_path, capsys, algo, flag,
                                     name):
        # an infinite step makes one sweep land on a fixed point, which
        # would read as convergence
        out = tmp_path / "svm"
        assert main(["gen", "svm", "--out", str(out), "--n", "64",
                     "--d", "4", "--seed", "0"]) == 0
        capsys.readouterr()
        code = main(["solve", "--problem", str(out / "problem.json"),
                     "--algo", algo, flag, "inf", "--tol", "1e-6",
                     "--metrics", str(tmp_path / "m.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be positive and finite")
        assert not (tmp_path / "m.csv").exists()

    def test_solver_failure_exit_three(self, tmp_path, capsys):
        prob = _gen(tmp_path, "--n", "8", kind="fused-lasso", sub="fl")
        y_path = prob.parent / "y.csv"
        cells = y_path.read_text().splitlines()
        cells[3] = "inf"
        y_path.write_text("\n".join(cells) + "\n")
        code = main(["solve", "--problem", str(prob), "--algo", "ppg",
                     "--max-iters", "5",
                     "--metrics", str(tmp_path / "m.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and "NumericalError" in err
        assert "(term 3)" in err

    def test_overflowing_group_lasso_step_exit_three(self, tmp_path,
                                                     capsys):
        # the factor of I + alpha*A'A overflows: this printed numpy's
        # RuntimeWarnings and exited 1 with "array must not contain infs
        # or NaNs"
        prob = _gen(tmp_path)
        code = main(["solve", "--problem", str(prob), "--algo", "ppg",
                     "--alpha", "1e308", "--max-iters", "5",
                     "--metrics", str(tmp_path / "m.csv")])
        assert code == 3
        assert capsys.readouterr().err == \
            "error: NumericalError: non-finite values from prox of r\n"

    @pytest.mark.parametrize("algo", ["ppg", "sppg"])
    def test_overflowing_gradient_bound_exit_one(self, tmp_path, capsys,
                                                 algo):
        # rows near 1e200 make a_i'a_i overflow to inf: numpy warned, 1/L
        # gave alpha 0.0 and the first sweep raised ZeroDivisionError
        from proxsplit.io import read_dense_csv, write_dense_csv
        prob = tmp_path / "fl"
        assert main(["gen", "fused-lasso", "--out", str(prob), "--n", "20",
                     "--d", "6", "--seed", "0"]) == 0
        write_dense_csv(prob / "A.csv", read_dense_csv(prob / "A.csv") * 1e200)
        metrics = tmp_path / "m.csv"
        capsys.readouterr()
        code = main(["solve", "--problem", str(prob / "problem.json"),
                     "--algo", algo, "--metrics", str(metrics)])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: the Lipschitz bound L")
        assert "rescale the data" in err
        assert not metrics.exists()

    @pytest.mark.parametrize("kind,param", [("fused-lasso", "lam"),
                                            ("fused-lasso", "eps"),
                                            ("svm", "lam")])
    def test_nonfinite_weight_exit_one(self, tmp_path, capsys, kind, param):
        # "lam": NaN used to run and exit 3 with "NumericalError: non-finite
        # values from prox of r"; the builder now rejects it by name
        prob = _gen(tmp_path, "--n", "8", kind=kind, sub="w")
        desc = json.loads(prob.read_text())
        desc["params"][param] = float("nan")
        prob.write_text(json.dumps(desc))
        code = main(["solve", "--problem", str(prob), "--algo", "ppg",
                     "--max-iters", "5",
                     "--metrics", str(tmp_path / "m.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {param} must be")
        assert not (tmp_path / "m.csv").exists()

    def test_glm_failure_names_term(self, tmp_path, capsys):
        prob = _gen(tmp_path, "--n", "8", "--d", "3", "--family",
                    "logistic", kind="glm", sub="glm")
        t_path = prob.parent / "T.csv"
        cells = t_path.read_text().splitlines()
        cells[3] = "inf"
        t_path.write_text("\n".join(cells) + "\n")
        for algo in ("ppg", "sppg"):
            code = main(["solve", "--problem", str(prob), "--algo", algo,
                         "--max-iters", "5",
                         "--metrics", str(tmp_path / "m.csv")])
            assert code == 3
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1
            assert err.startswith("error:") and "NumericalError" in err
            assert "(term 3)" in err

    @pytest.mark.parametrize("algo", ["admm", "spi"])
    def test_glm_prox_failure_names_term(self, tmp_path, capsys, algo):
        # inf in T.csv gives the GLM prox a non-finite step on the
        # per-term path (admm) and the kernel (spi) alike; the error names
        # the term it came from
        prob = _gen(tmp_path, "--n", "8", "--d", "3", "--family",
                    "logistic", kind="glm", sub="glm")
        t_path = prob.parent / "T.csv"
        cells = t_path.read_text().splitlines()
        cells[3] = "inf"
        t_path.write_text("\n".join(cells) + "\n")
        code = main(["solve", "--problem", str(prob), "--algo", algo,
                     "--max-iters", "5",
                     "--metrics", str(tmp_path / "m.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: NumericalError:")
        assert err.rstrip().endswith("(term 3)")

    @pytest.mark.parametrize("algo,tol,stop", [
        ("ppg", "0", "budget"), ("ppg", "1e3", "tol"),
        ("sppg", "0", "budget"), ("sppg", "1e3", "tol")])
    def test_stop_reason_in_meta_not_csv(self, tmp_path, algo, tol, stop):
        prob = _gen(tmp_path)
        metrics = tmp_path / "m.csv"
        main(["solve", "--problem", str(prob), "--algo", algo,
              "--max-iters", "6", "--tol", tol, "--metrics", str(metrics)])
        meta = json.loads((tmp_path / "m.csv.meta.json").read_text())
        assert meta["stop"] == stop
        text = metrics.read_text()
        assert "stop" not in text and stop not in text

    @pytest.mark.parametrize("algo", ["admm", "prox-grad", "spi", "finito"])
    def test_ergodic_rejected_where_unsupported(self, tmp_path, capsys,
                                                algo):
        prob = _gen(tmp_path)
        metrics = tmp_path / "m.csv"
        code = main(["solve", "--problem", str(prob), "--algo", algo,
                     "--ergodic", "--metrics", str(metrics)])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and "--ergodic" in err
        assert not metrics.exists()

    @pytest.mark.parametrize("algo", list(ALGOS))
    def test_iters_counts_steps_taken(self, tmp_path, capsys, monkeypatch,
                                      algo):
        problem = _baseline_problem(algo)
        monkeypatch.setattr(cli, "load_problem", lambda path, algo: problem)
        code = main(["solve", "--problem", "unused.json", "--algo", algo,
                     "--max-iters", "50",
                     "--metrics", str(tmp_path / "m.csv")])
        assert code == 0
        assert " iters=50 " in capsys.readouterr().out

    def test_meta_holds_run_metadata(self, tmp_path):
        prob = _gen(tmp_path)
        for algo, keys in (("ppg", ("n", "dim", "sweep")),
                           ("sppg", ("path", "n", "dim", "resyncs"))):
            metrics = tmp_path / f"{algo}.csv"
            assert main(["solve", "--problem", str(prob), "--algo", algo,
                         "--max-iters", "6", "--metrics", str(metrics)]) == 0
            meta = json.loads((tmp_path / f"{algo}.csv.meta.json").read_text())
            assert meta["solver"] == algo and meta["problem_kind"]
            for key in keys:
                assert meta[key] is not None, key
            assert meta["n"] == 2 and meta["dim"] == 12
        assert meta["path"] == "per-term"

    def test_meta_pins_the_record(self, tmp_path):
        # the solver's record plus the revision, with no placeholder for a
        # key the solver does not record: only the sampled runs, which
        # draw their indices from it, name a seed
        prob = _gen(tmp_path, kind="svm", sub="svm")
        common = {"solver", "problem_kind", "n", "dim", "stop", "revision"}
        want = {"ppg": common | {"alpha", "sweep"},
                "sppg": common | {"alpha", "seed", "path", "resyncs"},
                "admm": common | {"alpha", "sweep"},
                "spi": common | {"c", "seed", "path"}}
        for algo, keys in want.items():
            metrics = tmp_path / f"{algo}.csv"
            assert main(["solve", "--problem", str(prob), "--algo", algo,
                         "--max-iters", "6", "--metrics", str(metrics),
                         "--seed", "4"]) == 0
            meta = json.loads((tmp_path / f"{algo}.csv.meta.json").read_text())
            assert sorted(meta) == sorted(keys), algo
            assert meta["solver"] == algo
            assert meta.get("seed", 4) == 4, algo
            assert None not in (meta[k] for k in keys - {"revision"}), algo

    @pytest.mark.parametrize("kind,algo,path", [
        ("glm", "sppg", "kernel"), ("svm", "sppg", "kernel"),
        ("svm", "spi", "kernel"), ("glm", "spi", "kernel")])
    def test_meta_names_code_path(self, tmp_path, kind, algo, path):
        prob = _gen(tmp_path, kind=kind, sub=kind)
        metrics = tmp_path / "m.csv"
        assert main(["solve", "--problem", str(prob), "--algo", algo,
                     "--max-iters", "6", "--metrics", str(metrics)]) == 0
        meta = json.loads((tmp_path / "m.csv.meta.json").read_text())
        assert meta["path"] == path
        assert "path" not in metrics.read_text()

    @pytest.mark.parametrize("algo,kind,sweep", [
        ("admm", "svm", "batched"), ("admm", "group-lasso", "batched"),
        ("admm", None, "per-term"), ("prox-grad", None, "per-term")])
    def test_meta_names_baseline_sweep(self, tmp_path, monkeypatch, algo,
                                       kind, sweep):
        # ADMM and prox-grad take the sweep's term points: batched where
        # the problem has the hook
        if kind is None:
            problem = _baseline_problem(algo)
            monkeypatch.setattr(cli, "load_problem",
                                lambda path, algo: problem)
            prob = "unused.json"
        else:
            prob = str(_gen(tmp_path, kind=kind, sub=kind))
        metrics = tmp_path / "m.csv"
        assert main(["solve", "--problem", prob, "--algo", algo,
                     "--max-iters", "6", "--metrics", str(metrics)]) == 0
        meta = json.loads((tmp_path / "m.csv.meta.json").read_text())
        assert meta["solver"] == algo and meta["sweep"] == sweep

    def test_alpha_validation_message(self, tmp_path, capsys):
        prob = _gen(tmp_path, kind="fused-lasso", sub="fl")
        code = main(["solve", "--problem", str(prob), "--algo", "ppg",
                     "--alpha", "1e9",
                     "--metrics", str(tmp_path / "m.csv")])
        assert code == 1
        assert "2/L" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        prob = _gen(tmp_path)
        cfg = {"problem": str(prob), "algo": "ppg", "max_iters": 5,
               "metrics_out": str(tmp_path / "from_cfg.csv")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(cfg_path),
                     "--max-iters", "9"]) == 0
        log = read_metrics_csv(tmp_path / "from_cfg.csv")
        assert log.rows[-1].k == 8

    @pytest.mark.parametrize("field, value", [
        ("ergodic", "no"), ("timing", "no"), ("seed", 1.5), ("alpha", True),
        ("tol", None)])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys,
                                                 field, value):
        # each value used to run as something else ("no" as true, 1.5 as
        # seed 1, true as alpha 1.0) or to fail naming no field
        prob = _gen(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": str(prob), field: value}))
        code = main(["solve", "--config", str(cfg),
                     "--metrics", str(tmp_path / "m.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field '{field}' must be ")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "m.csv").exists()

    def test_config_values_of_the_flag_types_accepted(self, tmp_path):
        # an int where a real goes, and null where the default is None
        prob = _gen(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": str(prob), "algo": "sppg", "alpha": 1, "tol": 0,
            "max_iters": 4, "seed": 3, "record_every": None,
            "ergodic": False, "timing": False, "spi_c": None, "seeds": None,
            "metrics_out": str(tmp_path / "m.csv")}))
        assert main(["solve", "--config", str(cfg)]) == 0
        assert json.loads((tmp_path / "m.csv.meta.json").read_text())[
            "seed"] == 3

    def test_nonfinite_group_lasso_data_exit_one(self, tmp_path, capsys):
        prob = _gen(tmp_path)
        a_csv = prob.parent / "A.csv"
        rows = [line.split(",") for line in a_csv.read_text().splitlines()]
        rows[3][2] = "nan"
        a_csv.write_text("\n".join(",".join(row) for row in rows) + "\n")
        code = main(["solve", "--problem", str(prob),
                     "--metrics", str(tmp_path / "m.csv")])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: A has a non-finite entry at (3, 2)\n"

    @pytest.mark.parametrize("kind, section, key", [
        ("glm", "params", "family"), ("glm", "files", "X"),
        ("group-lasso", "params", "lambda1"), ("svm", "files", "data"),
        ("glm", None, "kind")])
    def test_missing_field_named_exit_one(self, tmp_path, capsys, kind,
                                          section, key):
        # a missing field used to end in "error: 'family'" or "error: 'X'"
        extra = {"glm": ("--n", "8", "--family", "logistic"),
                 "svm": ("--n", "8")}.get(kind, ())
        prob = _gen(tmp_path, *extra, kind=kind, sub="p")
        desc = json.loads(prob.read_text())
        del (desc if section is None else desc[section])[key]
        prob.write_text(json.dumps(desc))
        code = main(["solve", "--problem", str(prob), "--max-iters", "5",
                     "--metrics", str(tmp_path / "m.csv")])
        assert code == 1
        field = key if section is None else f"{section}.{key}"
        assert capsys.readouterr().err == \
            f"error: {prob}: missing {field}\n"
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda desc: [desc], "a problem description is a JSON object"),
        (lambda desc: {**desc, "files": ["X.csv"]},
         "files must be a JSON object"),
        (lambda desc: {**desc, "params": "logistic"},
         "params must be a JSON object")])
    def test_description_of_wrong_shape_exit_one(self, tmp_path, capsys,
                                                 edit, message):
        # these ended in an AttributeError traceback
        prob = _gen(tmp_path, "--n", "8", "--family", "logistic", kind="glm",
                    sub="p")
        prob.write_text(json.dumps(edit(json.loads(prob.read_text()))))
        code = main(["solve", "--problem", str(prob), "--max-iters", "5",
                     "--metrics", str(tmp_path / "m.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {prob}: {message}\n"

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"problemo": "x"}))
        assert main(["solve", "--config", str(cfg_path)]) == 1
        assert "problemo" in capsys.readouterr().err


class TestCompare:
    def _write_cfg(self, tmp_path, name, **fields):
        path = tmp_path / name
        path.write_text(json.dumps(fields))
        return str(path)

    def test_two_solvers_two_series(self, tmp_path):
        prob = _gen(tmp_path)
        c1 = self._write_cfg(tmp_path, "c1.json", problem=str(prob),
                             algo="ppg", max_iters=80, record_every=10)
        c2 = self._write_cfg(tmp_path, "c2.json", problem=str(prob),
                             algo="admm", max_iters=80, record_every=10)
        out = tmp_path / "merged.csv"
        assert main(["compare", c1, c2, "--out", str(out),
                     "--ref-iters", "400"]) == 0
        lines = out.read_text().strip().splitlines()
        algos = {ln.split(",")[0] for ln in lines[1:]}
        assert algos == {"ppg", "admm"}
        # distances to the shared reference must shrink for both series
        for algo in algos:
            dists = [float(ln.split(",")[5]) for ln in lines[1:]
                     if ln.split(",")[0] == algo]
            assert dists[-1] <= dists[0]

    def test_single_config_rejected(self, tmp_path, capsys):
        prob = _gen(tmp_path)
        c1 = self._write_cfg(tmp_path, "c1.json", problem=str(prob),
                             algo="ppg", max_iters=10)
        assert main(["compare", c1, "--out", str(tmp_path / "o.csv")]) == 1
        assert "two" in capsys.readouterr().err

    def test_mismatched_problems_rejected(self, tmp_path, capsys):
        p1 = _gen(tmp_path, sub="a")
        p2 = _gen(tmp_path, sub="b")
        c1 = self._write_cfg(tmp_path, "c1.json", problem=str(p1),
                             algo="ppg", max_iters=10)
        c2 = self._write_cfg(tmp_path, "c2.json", problem=str(p2),
                             algo="admm", max_iters=10)
        assert main(["compare", c1, c2,
                     "--out", str(tmp_path / "o.csv")]) == 1
        assert "same problem" in capsys.readouterr().err

    @pytest.mark.parametrize("ref_iters", ["0", "-5"])
    def test_ref_iters_below_one_rejected(self, tmp_path, capsys, ref_iters):
        prob = _gen(tmp_path)
        c1 = self._write_cfg(tmp_path, "c1.json", problem=str(prob),
                             algo="ppg", max_iters=10)
        c2 = self._write_cfg(tmp_path, "c2.json", problem=str(prob),
                             algo="admm", max_iters=10)
        out = tmp_path / "o.csv"
        assert main(["compare", c1, c2, "--out", str(out),
                     "--ref-iters", ref_iters]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "ref_iters" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_record_every_below_one_in_config_rejected(self, tmp_path,
                                                       capsys):
        prob = _gen(tmp_path)
        c1 = self._write_cfg(tmp_path, "c1.json", problem=str(prob),
                             algo="ppg", max_iters=10, record_every=-2)
        c2 = self._write_cfg(tmp_path, "c2.json", problem=str(prob),
                             algo="admm", max_iters=10)
        out = tmp_path / "o.csv"
        assert main(["compare", c1, c2, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "record_every" in err
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [("tol", float("nan")),
                                             ("ergodic", True),
                                             ("record_every", 2.5)])
    def test_bad_config_rejected_before_any_run(self, tmp_path, capsys,
                                                monkeypatch, field, value):
        # a NaN tol used to run the reference pass and every configuration
        runs = []
        monkeypatch.setattr(cli.ppg, "ppg_run",
                            lambda *a, **k: runs.append(a))
        prob = _gen(tmp_path)
        c1 = self._write_cfg(tmp_path, "c1.json", problem=str(prob),
                             algo="ppg", max_iters=10)
        c2 = self._write_cfg(tmp_path, "c2.json", problem=str(prob),
                             algo="admm", max_iters=10, **{field: value})
        out = tmp_path / "o.csv"
        assert main(["compare", c1, c2, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and field in err
        assert runs == [] and not out.exists()

    @pytest.mark.parametrize("seeds", [[1.5, 2.5], [True, 2], [1, "2"],
                                       [[1], 2]])
    def test_seeds_not_ints_rejected_before_any_run(self, tmp_path, capsys,
                                                    monkeypatch, seeds):
        # [1.5, 2.5] and [true, 2] ran seeds 1 and 2 and wrote the merged
        # CSV of [1, 2]
        runs = []
        monkeypatch.setattr(cli.ppg, "ppg_run",
                            lambda *a, **k: runs.append(a))
        prob = _gen(tmp_path)
        c1 = self._write_cfg(tmp_path, "c1.json", problem=str(prob),
                             algo="sppg", max_iters=20, seeds=seeds)
        c2 = self._write_cfg(tmp_path, "c2.json", problem=str(prob),
                             algo="ppg", max_iters=10)
        out = tmp_path / "o.csv"
        assert main(["compare", c1, c2, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: config field 'seeds' must be a list "
                              "of ints")
        assert runs == [] and not out.exists()

    def test_reference_budget_counts_sweeps(self, tmp_path, capsys):
        # sppg counts single-term steps: 41 of them on the 2 collections
        # are 21 sweeps, so the reference runs 10 * 21 ppg sweeps (it ran
        # 10 * 41)
        prob = _gen(tmp_path)
        c1 = self._write_cfg(tmp_path, "c1.json", problem=str(prob),
                             algo="ppg", max_iters=5)
        c2 = self._write_cfg(tmp_path, "c2.json", problem=str(prob),
                             algo="sppg", max_iters=41)
        assert main(["compare", c1, c2,
                     "--out", str(tmp_path / "o.csv")]) == 0
        assert "reference from 210 iterations" in capsys.readouterr().out

    def test_each_solver_form_loaded_once(self, tmp_path, monkeypatch):
        # every configuration names the same file; the reference and each
        # configuration loaded it again, six loads for these five
        loads = []
        load = cli.load_problem

        def counted(path, algo="ppg"):
            loads.append(algo)
            return load(path, algo)

        monkeypatch.setattr(cli, "load_problem", counted)
        out = tmp_path / "svm"
        assert main(["gen", "svm", "--out", str(out), "--n", "30",
                     "--d", "5"]) == 0
        cfgs = [self._write_cfg(tmp_path, f"c{i}.json",
                                problem=str(out / "problem.json"),
                                algo=algo, max_iters=60, seed=i)
                for i, algo in enumerate(("ppg", "sppg", "sppg", "spi",
                                          "admm"))]
        assert main(["compare", *cfgs, "--out", str(tmp_path / "o.csv"),
                     "--ref-iters", "50"]) == 0
        assert loads == ["ppg", "sppg", "spi", "admm"]

    def test_multi_seed_aggregation(self, tmp_path):
        prob = _gen(tmp_path)
        c1 = self._write_cfg(tmp_path, "c1.json", problem=str(prob),
                             algo="sppg", max_iters=40,
                             seeds=[0, 1, 2, 3])
        c2 = self._write_cfg(tmp_path, "c2.json", problem=str(prob),
                             algo="ppg", max_iters=20)
        out = tmp_path / "merged.csv"
        assert main(["compare", c1, c2, "--out", str(out),
                     "--ref-iters", "200"]) == 0
        lines = out.read_text().strip().splitlines()
        sppg_rows = [ln.split(",") for ln in lines[1:]
                     if ln.startswith("sppg")]
        ppg_rows = [ln.split(",") for ln in lines[1:] if ln.startswith("ppg")]
        assert all(row[6] != "" for row in sppg_rows)  # sd columns filled
        assert all(row[6] == "" for row in ppg_rows)
