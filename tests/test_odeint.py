"""Reference integration and trajectory container tests."""
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import solve_ivp

from kanlmm import cli, odeint
from kanlmm.systems import linear_system, opinion_system


def test_zero_field_constant_trajectory():
    traj = odeint.integrate(lambda s: np.zeros(3), [1.0, -2.0, 0.5], 0.0, 1.0, 0.25)
    assert traj.states.shape == (5, 3)
    npt.assert_array_equal(traj.states, np.tile([1.0, -2.0, 0.5], (5, 1)))


def test_scalar_exponential_matches_closed_form():
    traj = odeint.integrate(lambda s: s, [1.0], 0.0, 1.0, 0.1)
    npt.assert_allclose(traj.states[:, 0], np.exp(traj.times), rtol=1e-11, atol=0.0)


def test_linear_system_matches_closed_form():
    sysd = linear_system()
    traj = odeint.integrate(sysd.field, sysd.x0, 0.0, 1.0, 1e-2)
    npt.assert_allclose(traj.states, sysd.solution(traj.times), rtol=0.0, atol=1e-10)
    assert traj.states[-1, 0] == pytest.approx(0.5 * np.e ** 2 - 0.5 * np.e ** -4, abs=1e-10)


def test_grid_times_are_exact_multiples():
    traj = odeint.integrate(lambda s: np.zeros(1), [0.0], 0.0, 0.7, 0.1)
    expected = 0.0 + 0.1 * np.arange(8)
    npt.assert_array_equal(traj.times, expected)


def dense_reference(field, x0, t0, t1, times):
    """States read from the interpolant of every step of one DOP853 run."""
    sol = solve_ivp(lambda _t, y: field(y), (t0, t1), x0, method="DOP853",
                    rtol=odeint.TOLERANCE, atol=odeint.TOLERANCE, dense_output=True)
    return sol.sol(times).T


@pytest.mark.parametrize("sysd,t1,h", [
    (linear_system(), 1.0, 1e-2),
    (opinion_system(dim=8), 1.0, 1e-2),
    (opinion_system(dim=8, seed=22), 5.0, 0.05),
])
def test_states_equal_dense_output(sysd, t1, h):
    # each grid time is read from the interpolant of the step holding it
    traj = odeint.integrate(sysd.field, sysd.x0, 0.0, t1, h)
    assert traj.times[-1] == t1
    npt.assert_array_equal(traj.states,
                           dense_reference(sysd.field, sysd.x0, 0.0, t1, traj.times))


def test_grid_end_past_t1_is_integrated_to():
    # 3 * 0.1 > 0.3: the run ends on the last grid time, an ulp past t1
    sysd = linear_system()
    traj = odeint.integrate(sysd.field, sysd.x0, 0.0, 0.3, 0.1)
    assert traj.times[-1] > 0.3 and traj.t1 == traj.times[-1]
    expected = dense_reference(sysd.field, sysd.x0, 0.0, 0.3, traj.times)
    npt.assert_array_equal(traj.states[:-1], expected[:-1])
    npt.assert_allclose(traj.states[-1], expected[-1], rtol=4e-16, atol=0.0)


def test_integrate_at_keeps_order_and_repeats():
    sysd = linear_system()
    times = np.array([0.5, 0.25, 0.5, 1.0, 0.0])
    got = odeint.integrate_at(sysd.field, sysd.x0, 0.0, 1.0, times)
    npt.assert_array_equal(got, dense_reference(sysd.field, sysd.x0, 0.0, 1.0, times))


@pytest.mark.parametrize("times", [[0.5, 1.5], [-0.5], []])
def test_integrate_at_rejects_times_outside_the_run(times):
    with pytest.raises(ValueError):
        odeint.integrate_at(lambda s: s, [1.0], 0.0, 1.0, times)


def test_tolerance_tightening_is_converged():
    # at rtol = atol = 1e-13 the result must already sit at the rounding
    # floor: tightening max_step an order of magnitude changes nothing
    # beyond 1e-10 relative
    sysd = linear_system()
    a = odeint.integrate(sysd.field, sysd.x0, 0.0, 1.0, 0.1)
    b = solve_ivp(lambda _t, y: sysd.field(y), (0.0, 1.0), sysd.x0, method="DOP853",
                  rtol=odeint.TOLERANCE, atol=odeint.TOLERANCE, max_step=1e-3,
                  dense_output=True)
    npt.assert_allclose(a.states, b.sol(a.times).T, rtol=1e-10, atol=1e-13)


def test_grid_size():
    assert odeint.grid_size(0.0, 1.0, 0.001) == 1000
    assert odeint.grid_size(-1.0, 1.0, 0.5) == 4
    with pytest.raises(ValueError):
        odeint.grid_size(0.0, 1.0, 0.3)
    with pytest.raises(ValueError):
        odeint.grid_size(0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        odeint.grid_size(1.0, 1.0, 0.1)


@pytest.mark.parametrize("t0,t1,h", [
    (0.0, np.inf, 1e-3),
    (-np.inf, 1.0, 1e-3),
    (0.0, 1e308, 1e-3),  # a finite span of infinitely many steps
    (-1e308, 1e308, 1.0),  # the span itself overflows
    (0.0, 1.0, np.nan),
    (np.nan, 1.0, 0.1),
])
def test_grid_size_rejects_non_finite_spans(t0, t1, h):
    with pytest.raises(ValueError, match="need h > 0 and a finite grid"):
        odeint.grid_size(t0, t1, h)


def test_field_not_finite_at_x0_raises():
    # inf - inf: a NaN first step, on which the integrator would never stop
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(odeint.NonFiniteStateError, match="not finite at the initial state"):
            odeint.integrate(linear_system().field, [1e308, -1e308], 0.0, 1.0, 0.1)


def test_overflow_past_x0_raises_without_warnings():
    # exp(700) is finite, the states past it are not; only the error reports that
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(odeint.IntegrationError):
            odeint.integrate(np.exp, [700.0], 0.0, 1.0, 0.1)


def test_finite_time_blowup_raises():
    # dx/dt = x^2 from x(0) = 2 escapes at t = 0.5
    with pytest.raises(odeint.IntegrationError):
        odeint.integrate(lambda s: s ** 2, [2.0], 0.0, 1.0, 0.1)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        odeint.Trajectory(t0=0.0, h=-0.5, states=np.zeros((3, 1)))
    with pytest.raises(odeint.NonFiniteStateError):
        odeint.Trajectory(t0=0.0, h=0.5, states=np.array([[0.0], [np.nan], [1.0]]))
    with pytest.raises(ValueError):
        odeint.Trajectory(t0=0.0, h=0.5, states=np.zeros((1, 2)))


@pytest.mark.parametrize("t0,h", [(0.0, 0.0), (0.0, np.nan), (np.inf, 0.1), (np.nan, 0.1),
                                  (0.0, np.inf), (1.0, 1e308)])  # the last: t1 overflows
def test_trajectory_rejects_a_non_finite_grid(t0, h):
    with pytest.raises(ValueError, match="finite grid times and h > 0"):
        odeint.Trajectory(t0=t0, h=h, states=np.zeros((11, 2)))


def test_trajectory_properties():
    traj = odeint.Trajectory(t0=0.5, h=0.25, states=np.arange(10.0).reshape(5, 2))
    assert traj.n_steps == 4
    assert traj.dim == 2
    assert traj.t1 == traj.times[-1] == 1.5


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    states = rng.standard_normal((17, 3)) * np.array([1e-8, 1.0, 1e6])
    traj = odeint.Trajectory(t0=0.0, h=0.1, states=states)
    path = tmp_path / "traj.csv"
    odeint.save_trajectory(traj, path)
    back = odeint.load_trajectory(path)
    # 17 significant digits round-trip float64 exactly
    npt.assert_array_equal(back.states, traj.states)
    assert back.h == traj.h and back.t0 == traj.t0 and back.t1 == traj.t1


def test_csv_header_and_shape(tmp_path):
    traj = odeint.integrate(lambda s: np.zeros(2), [1.0, 2.0], 0.0, 0.2, 0.1)
    odeint.save_trajectory(traj, tmp_path / "t.csv")
    lines = (tmp_path / "t.csv").read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2"
    assert len(lines) == 4
    # the exact bytes: \n line ends, floats at 17 significant digits
    assert (tmp_path / "t.csv").read_bytes() == (
        b"t,x1,x2\n0,1,2\n0.10000000000000001,1,2\n0.20000000000000001,1,2\n")


def test_crlf_file_loads_bitwise(tmp_path):
    """Trajectory files with csv.writer's \\r\\n line ends read back unchanged."""
    sysd = linear_system()
    traj = odeint.integrate(sysd.field, sysd.x0, 0.0, 1.0, 0.05)
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    odeint.save_trajectory(traj, lf)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    back, ref = odeint.load_trajectory(crlf), odeint.load_trajectory(lf)
    assert back.states.tobytes() == traj.states.tobytes()
    assert (back.t0, back.t1, back.h) == (ref.t0, ref.t1, ref.h)


def test_load_rejects_bad_files(tmp_path, capsys):
    bad = {
        "no header": "a,b\n1,2\n3,4\n",
        "one sample": "t,x1\n0.0,1.0\n",
        "uneven times": "t,x1\n0.0,1.0\n0.1,1.0\n0.35,1.0\n",
        "empty": "",
        "no state column": "t\n0.0\n0.1\n",
        "ragged row": "t,x1\n0.0,1.0\n0.1,1.0,2.0\n0.2,1.0\n",
        "ragged row after a blank line": "t,x1\n0.0,1.0\n\n0.1,1.0\n0.2,1.0,\n",
        "non-numeric entry": "t,x1\n0.0,1.0\n0.1,one\n",
        "nan entry": "t,x1\n0.0,1.0\n0.1,nan\n",
        "header only": "t,x1\n",
    }
    p, out = tmp_path / "bad.csv", tmp_path / "grid.csv"
    messages = {}
    for case, text in bad.items():
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's empty-input warning must not escape
            with pytest.raises(ValueError):
                odeint.load_trajectory(p)
            capsys.readouterr()
            assert cli.main(["solve-grid", "--data", str(p), "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, case
        assert not out.exists(), case
        messages[case] = err
    # the file's own line numbers, header and blank lines included
    assert messages["ragged row"] == "error: trajectory CSV line 3 has 3 values, the header 2\n"
    assert messages["ragged row after a blank line"] == (
        "error: trajectory CSV line 5 has 3 values, the header 2\n")
    assert messages["non-numeric entry"] == "error: trajectory CSV line 3: 'one' is not a number\n"


def test_gen_is_reproducible(tmp_path):
    sysd = linear_system()
    texts = []
    for name in ("a.csv", "b.csv"):
        odeint.save_trajectory(odeint.integrate(sysd.field, sysd.x0, 0.0, 1.0, 0.01),
                               tmp_path / name)
        texts.append((tmp_path / name).read_text())
    assert texts[0] == texts[1]

