"""Command-line interface tests, run in-process through main(argv).

Covers every subcommand, the documented exit codes, and the rule that a
config file overrides command-line flags.
"""
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import kanlmm
from kanlmm import analysis, cli, kan, odeint, systems, training


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def traj_csv(tmp_path_factory):
    """A small linear-system trajectory shared across the module."""
    path = tmp_path_factory.mktemp("data") / "linear.csv"
    rc = run_cli("gen", "--system", "linear", "--h", "0.02", "--out", str(path))
    assert rc == 0
    return path


DOCUMENTED_EXIT_CODES = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_IO, cli.EXIT_INTEGRATION,
                         cli.EXIT_MODEL, cli.EXIT_DIVERGED}
TRAIN_QUICK = ["--scheme", "am", "--steps", "1", "--k", "3", "--grid", "4",
               "--hidden", "2", "--lr", "0.05", "--iters", "5"]


class TestGen:
    def test_writes_expected_grid(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run_cli("gen", "--system", "linear", "--h", "0.1", "--out", str(out)) == 0
        traj = odeint.load_trajectory(out)
        assert traj.n_steps == 10 and traj.dim == 2
        npt.assert_allclose(traj.states[0], [0.0, 1.0])
        assert "wrote" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("gen", "--system", "opinion", "--dim", "8", "--seed", "3",
                "--t1", "0.5", "--h", "0.05", "--out", str(a))
        run_cli("gen", "--system", "opinion", "--dim", "8", "--seed", "3",
                "--t1", "0.5", "--h", "0.05", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_system_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("gen", "--system", "lorenz", "--out", str(tmp_path / "t.csv"))
        assert exc.value.code == 2

    def test_wrong_x0_length(self, tmp_path):
        rc = run_cli("gen", "--system", "linear", "--x0", "1,2,3",
                     "--out", str(tmp_path / "t.csv"))
        assert rc == cli.EXIT_USAGE

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_integration_failure_exit_code(self, tmp_path):
        rc = run_cli("gen", "--system", "glycolytic", "--x0", "1e300,1,1,1,1,1,1",
                     "--t1", "0.1", "--h", "0.01", "--out", str(tmp_path / "t.csv"))
        assert rc == cli.EXIT_INTEGRATION


class TestSolveGrid:
    def test_with_known_field(self, traj_csv, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        rc = run_cli("solve-grid", "--data", str(traj_csv), "--scheme", "am",
                     "--steps", "1", "--system", "linear", "--out", str(out))
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header == "t,x1,x2,fhat1,fhat2,ftrue1,ftrue2"
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        fhat, ftrue = table[:, 3:5], table[:, 5:7]
        assert np.max(np.abs(fhat - ftrue)) < 1e-2  # O(h^2) at h = 0.02
        assert "kappa2" in capsys.readouterr().out

    def test_ftrue_column_is_the_per_state_field(self, tmp_path):
        data, out = tmp_path / "opinion.csv", tmp_path / "grid.csv"
        assert run_cli("gen", "--system", "opinion", "--dim", "5", "--h", "0.05", "--t1", "1",
                       "--out", str(data)) == 0
        assert run_cli("solve-grid", "--data", str(data), "--system", "opinion", "--dim", "5",
                       "--out", str(out)) == 0
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        field = systems.opinion_system(dim=5).field
        want = np.array([field(x) for x in table[:, 1:6]])
        npt.assert_array_equal(table[:, 11:16], want)  # 17 digits read back exactly

    def test_kappa_above_dense_limit_is_labelled_a_bound(self, traj_csv, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert run_cli("solve-grid", "--data", str(traj_csv), "--out", str(out)) == 0
        line = capsys.readouterr().out.strip()  # 51 samples: dense SVD
        float(line.split("kappa2 = ")[1])  # the value ends the line: no label
        data = tmp_path / "fine.csv"
        assert run_cli("gen", "--system", "linear", "--h", "4e-4", "--out", str(data)) == 0
        capsys.readouterr()
        assert run_cli("solve-grid", "--data", str(data), "--out", str(out)) == 0
        line = capsys.readouterr().out.strip()
        assert "tau = 2501" in line and "kappa2 <= 6124.34 (1-/inf-norm bound)" in line

    def test_fresh_process_does_not_import_scipy_signal(self, traj_csv, tmp_path):
        out = tmp_path / "grid.csv"
        code = ("import sys\nfrom kanlmm import cli\n"
                f"assert cli.main(['solve-grid', '--data', {str(traj_csv)!r}, "
                f"'--scheme', 'ab', '--steps', '3', '--out', {str(out)!r}]) == 0\n"
                "assert 'scipy.signal' not in sys.modules, 'scipy.signal was imported'\n")
        env = {**os.environ, "PYTHONPATH": str(Path(kanlmm.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_opinion_reference_field_needs_no_seed(self, tmp_path):
        data, out = tmp_path / "opinion.csv", tmp_path / "grid.csv"
        assert run_cli("gen", "--system", "opinion", "--dim", "4", "--seed", "3",
                       "--h", "0.05", "--t1", "1", "--out", str(data)) == 0
        assert run_cli("solve-grid", "--data", str(data), "--system", "opinion",
                       "--dim", "4", "--out", str(out)) == 0
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        # the opinion field depends on dim and alpha only, not on the seed
        expected = np.apply_along_axis(systems.opinion_system(dim=4).field, 1, table[:, 1:5])
        npt.assert_array_equal(table[:, 9:13], expected)
        with pytest.raises(SystemExit):
            run_cli("solve-grid", "--data", str(data), "--seed", "3", "--out", str(out))

    def test_system_dimension_must_match_data(self, traj_csv, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        rc = run_cli("solve-grid", "--data", str(traj_csv), "--system", "opinion",
                     "--dim", "7", "--out", str(out))
        assert rc == cli.EXIT_USAGE
        assert "system dimension 7 != trajectory dim 2" in capsys.readouterr().err
        assert not out.exists()

    def test_without_reference_field(self, traj_csv, tmp_path):
        out = tmp_path / "grid.csv"
        assert run_cli("solve-grid", "--data", str(traj_csv), "--out", str(out)) == 0
        assert out.read_text().splitlines()[0] == "t,x1,x2,fhat1,fhat2"

    def test_missing_data_file(self, tmp_path):
        rc = run_cli("solve-grid", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "grid.csv"))
        assert rc == cli.EXIT_IO

    @pytest.mark.parametrize("h", ["1e-3", "4e-4"])  # tau at and above DENSE_LIMIT
    def test_unstable_scheme_writes_nothing(self, h, tmp_path, capsys):
        # AM-4 violates the root condition: its grid values overflow
        data, out = tmp_path / "fine.csv", tmp_path / "grid.csv"
        assert run_cli("gen", "--system", "linear", "--h", h, "--out", str(data)) == 0
        capsys.readouterr()
        rc = run_cli("solve-grid", "--data", str(data), "--scheme", "am", "--steps", "4",
                     "--out", str(out))
        assert rc == cli.EXIT_INTEGRATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "max |root| = 2.977" in err
        assert not out.exists()


class TestTrain:
    def test_writes_model_and_report(self, traj_csv, tmp_path, capsys):
        model, report = tmp_path / "m.json", tmp_path / "r.json"
        rc = run_cli("train", "--data", str(traj_csv), *TRAIN_QUICK,
                     "--system", "linear", "--out", str(model), "--report", str(report))
        assert rc == 0
        net = kan.load_model(model)
        assert (net.d_in, net.d_out, net.hidden) == (2, 2, 2)
        doc = json.loads(report.read_text())
        assert len(doc["loss_trace"]) == 5
        assert doc["config"]["intervals"] == 4
        assert doc["seminorm_error"] is not None
        assert "seminorm" in capsys.readouterr().out

    def test_report_holds_every_report_field(self, traj_csv, tmp_path):
        report = tmp_path / "r.json"
        rc = run_cli("train", "--data", str(traj_csv), *TRAIN_QUICK, "--seed", "3",
                     "--out", str(tmp_path / "m.json"), "--report", str(report))
        assert rc == 0
        doc = json.loads(report.read_text())
        assert set(doc) == {f.name for f in dataclasses.fields(training.TrainReport)}
        assert doc["seed"] == 3 and doc["seminorm_error"] is None

    def test_model_bytes_reproducible(self, traj_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            rc = run_cli("train", "--data", str(traj_csv), *TRAIN_QUICK,
                         "--seed", "7", "--out", str(path))
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_divergence_exit_code(self, traj_csv, tmp_path, capsys):
        # 1e300 and 1e308 overflow inside the loss and Adam before the guard;
        # under this suite's error::RuntimeWarning a numpy warning would raise
        for lr in ("1e8", "1e300", "1e308"):
            out = tmp_path / f"m-{lr}.json"
            rc = run_cli("train", "--data", str(traj_csv), "--grid", "4", "--hidden", "2",
                         "--lr", lr, "--iters", "60", "--out", str(out))
            assert rc == cli.EXIT_DIVERGED
            err = capsys.readouterr().err
            assert err.startswith("error: loss diverged") and err.count("\n") == 1, err
            assert not out.exists()

    def test_config_file_overrides_flags(self, traj_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iters": 3, "seed": 5}))
        report = tmp_path / "r.json"
        rc = run_cli("train", "--data", str(traj_csv), *TRAIN_QUICK,
                     "--iters", "999", "--config", str(cfg),
                     "--out", str(tmp_path / "m.json"), "--report", str(report))
        assert rc == 0
        doc = json.loads(report.read_text())
        assert len(doc["loss_trace"]) == 3
        assert doc["config"]["seed"] == 5

    def test_unknown_config_key_rejected(self, traj_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"momentum": 0.9}))
        rc = run_cli("train", "--data", str(traj_csv), *TRAIN_QUICK,
                     "--config", str(cfg), "--out", str(tmp_path / "m.json"))
        assert rc == cli.EXIT_USAGE

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=st.dictionaries(
        st.sampled_from(["grid", "k", "hidden", "steps", "iters", "seed",
                         "lr", "scheme", "loss"]),
        st.one_of(st.none(), st.booleans(), st.integers(-3, 9),
                  st.floats(allow_nan=True, allow_infinity=True),
                  st.text(alphabet="abjm.e-", max_size=4),
                  st.lists(st.integers(0, 3), max_size=2)),
        max_size=3))
    @example(doc={"grid": "abc"})
    @example(doc={"grid": 2.5})
    @example(doc={"lr": float("nan")})
    @example(doc={"lr": float("inf")})
    def test_config_values_end_in_documented_exit_code(self, traj_csv, tmp_path, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = ["train", "--data", str(traj_csv), *TRAIN_QUICK, "--config", str(cfg),
                "--out", str(tmp_path / "m.json")]
        try:
            rc = run_cli(*argv)
        except SystemExit as exc:  # argparse rejected a value
            rc = exc.code
        assert rc in DOCUMENTED_EXIT_CODES
        if "grid" in doc and not isinstance(doc["grid"], int):
            assert rc == cli.EXIT_USAGE
        if isinstance(doc.get("lr"), float) and not math.isfinite(doc["lr"]):
            assert rc == cli.EXIT_USAGE

    @pytest.mark.parametrize("system, data", [
        (["--system", "opinion", "--dim", "7"], "linear"),
        (["--system", "glycolytic"], "linear"),
        (["--system", "linear"], "glycolytic"),
    ], ids=["opinion7-on-linear", "glycolytic-on-linear", "linear-on-glycolytic"])
    def test_system_dimension_must_match_data(self, traj_csv, tmp_path, capsys,
                                              system, data):
        if data == "glycolytic":
            traj_csv = tmp_path / "glycolytic.csv"
            assert run_cli("gen", "--system", "glycolytic", "--t1", "0.5", "--h", "0.05",
                           "--out", str(traj_csv)) == 0
        data_dim = odeint.load_trajectory(traj_csv).dim
        capsys.readouterr()
        out = tmp_path / "m.json"
        rc = run_cli("train", "--data", str(traj_csv), *TRAIN_QUICK, *system,
                     "--out", str(out))
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert f"trajectory dim {data_dim}" in err
        assert not out.exists()

    def test_malformed_config_rejected(self, traj_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        rc = run_cli("train", "--data", str(traj_csv), *TRAIN_QUICK,
                     "--config", str(cfg), "--out", str(tmp_path / "m.json"))
        assert rc == cli.EXIT_USAGE


@pytest.fixture(scope="module")
def model_json(traj_csv, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    rc = run_cli("train", "--data", str(traj_csv), *TRAIN_QUICK, "--out", str(path))
    assert rc == 0
    return path


class TestPredict:
    def test_round_trip(self, model_json, tmp_path):
        out = tmp_path / "pred.csv"
        rc = run_cli("predict", "--model", str(model_json), "--x0", "0,1",
                     "--t1", "0.1", "--h", "0.01", "--out", str(out))
        assert rc == 0
        traj = odeint.load_trajectory(out)
        assert traj.dim == 2 and traj.n_steps == 10

    def test_wrong_x0_length(self, model_json, tmp_path):
        rc = run_cli("predict", "--model", str(model_json), "--x0", "1",
                     "--t1", "0.1", "--out", str(tmp_path / "p.csv"))
        assert rc == cli.EXIT_USAGE

    def test_missing_model(self, tmp_path):
        rc = run_cli("predict", "--model", str(tmp_path / "nope.json"), "--x0", "0,1",
                     "--t1", "0.1", "--out", str(tmp_path / "p.csv"))
        assert rc == cli.EXIT_IO

    def test_corrupt_model(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1}')
        rc = run_cli("predict", "--model", str(bad), "--x0", "0,1",
                     "--t1", "0.1", "--out", str(tmp_path / "p.csv"))
        assert rc == cli.EXIT_MODEL


def set_entry(doc, path, value):
    entry = doc
    for i in path[:-1]:
        entry = entry[i]
    entry[path[-1]] = value


INT_FIELDS = ["d_in", "N", "d_out", "k", "G"]
# integer fields holding a float, a string, a bool or null; the model has d_in=2, N=2, k=3, G=4
NOT_INTEGERS = [("k", 3.7), ("G", 4.9), ("N", "2"), ("d_in", 2.0), ("version", True),
                ("version", 1.0), ("version", "1"), ("d_out", None)]
# number fields holding strings or bools, which a float64 conversion would read as numbers
NOT_NUMBERS = [(("hidden_range",), "12"), (("hidden_range",), [True, 2]),
               (("input_range",), [["0", "1"], ["0", "1"]]),
               (("inner_coeffs", 0, 0, 0), "0.5"), (("outer_coeffs", 1, 0, 2), False)]


# json reads an overflowing literal such as "k": 1e400 as inf, like the Infinity written here
@pytest.mark.parametrize("command", ["predict", "bounds"])
@pytest.mark.parametrize("path,value", [
    (("inner_coeffs", 0, 0, 0), math.nan),
    (("outer_coeffs", 1, 0, 2), math.inf),
    (("input_range", 0, 0), math.nan),
    (("hidden_range", 1), math.inf),
    *[((key,), sign * math.inf) for key in INT_FIELDS for sign in (1, -1)],
    *[((key,), value) for key, value in NOT_INTEGERS],
    *NOT_NUMBERS,
], ids=["nan-inner-coeff", "inf-outer-coeff", "nan-input-range", "inf-hidden-range",
        *[f"{sign}inf-{key}" for key in INT_FIELDS for sign in "+-"],
        *[f"{key}={json.dumps(value)}" for key, value in NOT_INTEGERS],
        *[f"{path[0]}={json.dumps(value)}" for path, value in NOT_NUMBERS]])
def test_non_finite_model_is_model_error(model_json, tmp_path, capsys, command,
                                         path, value):
    doc = json.loads(model_json.read_text())
    set_entry(doc, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    if command == "predict":
        argv = ["predict", "--model", str(bad), "--x0", "0,1", "--t1", "0.1", "--h", "0.01"]
    else:
        argv = ["bounds", "--d", "2", "--model", str(bad)]
    rc = run_cli(*argv, "--out", str(out))
    assert rc == cli.EXIT_MODEL
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not out.exists()


class TestBounds:
    def test_report_printed_and_saved(self, tmp_path, capsys):
        out = tmp_path / "bounds.json"
        rc = run_cli("bounds", "--d", "2", "--k", "3", "--grid", "64",
                     "--hidden", "5", "--out", str(out))
        assert rc == 0
        text = capsys.readouterr().out
        assert "upper_bound" in text and "vc_lower_bound_shape" in text
        doc = json.loads(out.read_text())
        assert doc["upper_bound"] == pytest.approx(15.0 / 64.0, rel=1e-12)
        assert doc["inputs"]["P_pieces"] == 66
        assert set(doc) == {f.name for f in dataclasses.fields(analysis.BoundsReport)}

    def test_lipschitz_from_model(self, model_json, capsys):
        rc = run_cli("bounds", "--d", "2", "--model", str(model_json))
        assert rc == 0
        expected = analysis.lipschitz_estimate(kan.load_model(model_json))
        assert f"L = {expected}" in capsys.readouterr().out

    def test_model_shape_is_bounded(self, model_json, tmp_path):
        # --model alone: k, G, N and d are the model's (TRAIN_QUICK), not the flag defaults
        out = tmp_path / "bounds.json"
        assert run_cli("bounds", "--model", str(model_json), "--out", str(out)) == 0
        inputs = json.loads(out.read_text())["inputs"]
        assert (inputs["k"], inputs["G"], inputs["N"], inputs["d"]) == (3, 4, 2, 2)

    @pytest.mark.parametrize("flags", [["--grid", "64"], ["--hidden", "5"], ["--d", "3"],
                                       ["--k", "2"], ["--lipschitz", "1"]],
                             ids=["grid", "hidden", "d", "k", "lipschitz"])
    def test_flag_conflicting_with_model_is_usage_error(self, model_json, tmp_path, capsys,
                                                        flags):
        out = tmp_path / "bounds.json"
        rc = run_cli("bounds", "--model", str(model_json), *flags, "--out", str(out))
        assert rc == cli.EXIT_USAGE
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    def test_d_required_without_model(self, capsys):
        assert run_cli("bounds", "--k", "3") == cli.EXIT_USAGE
        assert "--d" in capsys.readouterr().err

    def test_bad_holder_alpha(self):
        assert run_cli("bounds", "--d", "2", "--alpha", "0") == cli.EXIT_USAGE

    @pytest.mark.parametrize("flag,value", [
        ("--lipschitz", "nan"), ("--lipschitz", "inf"), ("--lipschitz", "1e308"),
        ("--lam", "nan"), ("--lam", "inf"), ("--radius", "nan"), ("--radius", "inf"),
        ("--alpha", "nan"),
    ])
    def test_non_finite_parameters_are_usage_errors(self, tmp_path, capsys, flag, value):
        out = tmp_path / "bounds.json"
        rc = run_cli("bounds", "--d", "2", flag, value, "--out", str(out))
        assert rc == cli.EXIT_USAGE
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()


@pytest.mark.parametrize("command", ["train", "solve-grid"])
def test_nan_in_data_is_usage_error(traj_csv, tmp_path, capsys, command):
    rows = traj_csv.read_text().splitlines()
    cells = rows[3].split(",")
    cells[1] = "nan"
    rows[3] = ",".join(cells)
    bad = tmp_path / "nan.csv"
    bad.write_text("\n".join(rows) + "\n")
    extra = TRAIN_QUICK if command == "train" else []
    out = tmp_path / "out"
    rc = run_cli(command, "--data", str(bad), *extra, "--out", str(out))
    assert rc == cli.EXIT_USAGE
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_experiment_name_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("experiment", "nope", "--out-dir", str(tmp_path))
    assert exc.value.code == 2


def test_scheme_flag_rejects_unknown_family(traj_csv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("train", "--data", str(traj_csv), "--scheme", "rk4",
                "--out", str(tmp_path / "m.json"))
    assert exc.value.code == 2
