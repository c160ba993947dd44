"""Grid-value recovery tests.

The banded triangular solve is checked against a per-row substitution
loop, against a dense numpy solve of the same ``lmm.grid_system``, against
exact derivatives on polynomial trajectories, and for the expected
convergence order on the linear benchmark.
"""
import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg.lapack import dtbtrs

from kanlmm import discovery, lmm, systems
from kanlmm.odeint import Trajectory


def linear_trajectory(h: float, t1: float = 1.0) -> Trajectory:
    sysd = systems.linear_system()
    n = round(t1 / h)
    ts = np.arange(n + 1) * h
    return Trajectory(t0=0.0, t1=n * h, h=h, states=sysd.solution(ts))


def poly_trajectory(coeffs, h: float, n1: int) -> Trajectory:
    """Scalar trajectory x(t) = polyval(coeffs, t) on n1 steps."""
    ts = np.arange(n1 + 1) * h
    states = np.polyval(coeffs, ts)[:, None]
    return Trajectory(t0=0.0, t1=n1 * h, h=h, states=states)


ALL_SMALL_SCHEMES = [(fam, m) for fam in lmm.FAMILIES for m in (1, 2, 3)]
# small schemes whose beta polynomial has no root outside the unit circle
STABLE_SMALL_SCHEMES = [(fam, m) for fam, m in ALL_SMALL_SCHEMES
                        if lmm.root_condition(lmm.scheme(fam, m)).max_modulus <= 1.0]


def grid_system(sch: lmm.LmmScheme, traj: Trajectory) -> lmm.GridSystem:
    return lmm.grid_system(sch, traj.states, traj.h)


def row_loop_reference(system: lmm.GridSystem) -> np.ndarray:
    """Forward substitution one multistep row at a time, one component at a time."""
    stencil = system.scheme.stencil
    pivot = stencil[-1]
    aux = system.window.aux_count
    width = stencil.shape[0]
    u = np.empty_like(system.rhs)
    u[:aux] = system.rhs[:aux]
    body = stencil[:-1]
    for c in range(u.shape[1]):
        for i, rhs in enumerate(system.rhs[aux:, c]):
            u[i + width - 1, c] = (rhs - body @ u[i : i + width - 1, c]) / pivot
    return u


@pytest.mark.parametrize("family,steps", STABLE_SMALL_SCHEMES)
def test_filter_matches_row_loop_reference(family, steps):
    """The banded solve against forward substitution written out row by row."""
    sch = lmm.scheme(family, steps)
    system = grid_system(sch, linear_trajectory(1e-4))
    u = discovery.solve_grid_values(system)
    expected = row_loop_reference(system)
    if sch.stencil.shape[0] == 1 or (family, steps) == ("am", 1):
        # dividing by 1 or by 1/2 rounds the same inside the banded solve
        npt.assert_array_equal(u, expected)
    else:
        assert np.max(np.abs(u - expected)) <= 1e-15 * np.max(np.abs(expected))


@pytest.mark.parametrize("family,steps", ALL_SMALL_SCHEMES)
def test_forward_substitution_matches_dense_solve(family, steps, dense_a_h):
    """The banded solve (forward substitution) against a dense LU solve."""
    # short window: schemes violating the root condition (e.g. AM-2/3)
    # amplify rounding exponentially in the number of rows, which would
    # swamp any solver comparison on long trajectories
    traj = linear_trajectory(0.05)
    system = grid_system(lmm.scheme(family, steps), traj)
    u = discovery.solve_grid_values(system)
    a = dense_a_h(system.scheme, traj.n_steps)  # start-up rows first
    dense = np.linalg.solve(a, system.rhs)
    npt.assert_allclose(u, dense, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("family,steps", ALL_SMALL_SCHEMES)
def test_polynomial_trajectory_recovered_exactly(family, steps):
    # for x(t) polynomial of degree <= scheme order, both the multistep
    # rows and the one-sided auxiliary rows are exact, so the recovered
    # values equal x'(t_n) up to rounding
    sch = lmm.scheme(family, steps)
    coeffs = np.arange(sch.order + 1, dtype=float) + 1.0  # degree == order
    traj = poly_trajectory(coeffs, h=0.05, n1=10)
    system = grid_system(sch, traj)
    u = discovery.solve_grid_values(system)
    w = system.window
    ts = (np.arange(w.r, w.q + 1)) * traj.h
    expected = np.polyval(np.polyder(coeffs), ts)[:, None]
    npt.assert_allclose(u, expected, rtol=1e-8, atol=1e-8)


def test_dense_matrix_structure(dense_a_h):
    traj = linear_trajectory(0.1)
    sch = lmm.scheme("am", 1)
    system = grid_system(sch, traj)
    w = system.window
    a = lmm.apply_system(sch, np.eye(w.tau))  # A_h column by column
    npt.assert_array_equal(a, dense_a_h(sch, traj.n_steps))
    assert a.shape == (w.tau, w.tau)
    npt.assert_array_equal(a[: w.aux_count, : w.aux_count],
                           np.eye(w.aux_count))
    # trapezoid rows carry [1/2, 1/2] along the band
    npt.assert_array_equal(system.scheme.stencil, [0.5, 0.5])
    assert np.all(np.tril(a) == a)  # stacked system is lower triangular


def test_recovered_values_converge_at_scheme_order():
    # AM-1 has order 2; max error over the window should shrink ~ h^2
    sch = lmm.scheme("am", 1)
    sysd = systems.linear_system()
    hs = [0.02, 0.01, 0.005, 0.0025]
    errs = []
    for h in hs:
        traj = linear_trajectory(h)
        system = grid_system(sch, traj)
        w, u = system.window, discovery.solve_grid_values(system)
        ts = np.arange(w.r, w.q + 1) * h
        f_true = np.apply_along_axis(sysd.field, 1, sysd.solution(ts))
        errs.append(np.max(np.abs(u - f_true)))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.3)


def test_first_order_scheme_converges_linearly():
    sch = lmm.scheme("ab", 1)
    sysd = systems.linear_system()
    hs = [0.02, 0.01, 0.005, 0.0025]
    errs = []
    for h in hs:
        traj = linear_trajectory(h)
        system = grid_system(sch, traj)
        w, u = system.window, discovery.solve_grid_values(system)
        ts = np.arange(w.r, w.q + 1) * h
        f_true = np.apply_along_axis(sysd.field, 1, sysd.solution(ts))
        errs.append(np.max(np.abs(u - f_true)))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.3)


def test_auxiliary_rows_approximate_field():
    sch = lmm.scheme("am", 2)  # order 3, aux_count > 0
    traj = linear_trajectory(0.005)
    sysd = systems.linear_system()
    system = grid_system(sch, traj)
    w = system.window
    assert w.aux_count > 0
    for j in range(w.aux_count):
        t = (w.r + j) * traj.h
        truth = sysd.field(sysd.solution(np.array([t]))[0])[0]
        # one-sided difference of order 3: truncation ~ h^3 |x''''| / 4
        assert system.rhs[j, 0] == pytest.approx(truth, rel=1e-4)


class TestConditionNumber:
    def test_backward_euler_is_identity(self):
        # BDF-1 stencil is the single coefficient 1, aux block empty
        sch = lmm.scheme("bdf", 1)
        for n1 in (50, 200):
            system = grid_system(sch, linear_trajectory(1.0 / n1))
            assert system.window.aux_count == 0
            npt.assert_array_equal(system.scheme.stencil, [1.0])
            assert discovery.condition_number(system) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("family,steps", [("ab", 2), ("am", 1), ("bdf", 1), ("ab", 6)])
    def test_dense_kappa_reads_the_entries_of_a_h(self, family, steps, dense_a_h):
        # the SVD input, filled diagonal by diagonal, is A_h entry for entry
        traj = linear_trajectory(1.0 / 120)
        system = grid_system(lmm.scheme(family, steps), traj)
        svals = np.linalg.svd(dense_a_h(system.scheme, traj.n_steps), compute_uv=False)
        assert discovery.condition_number(system) == float(svals[0] / svals[-1])

    def test_norm_bound_brackets_dense_kappa(self, monkeypatch):
        # every scheme except AM-2..6, whose A_h^-1 grows geometrically
        schemes = [sch for sch in lmm.all_schemes() if lmm.root_condition(sch).max_modulus <= 1.0]
        assert len(schemes) == 13
        for sch in schemes:
            for n1 in (sch.steps + sch.order, 50, 300, 1000):
                system = grid_system(sch, linear_trajectory(1.0 / n1))
                monkeypatch.setattr(discovery, "DENSE_LIMIT", 2000)
                dense = discovery.condition_number(system)
                monkeypatch.setattr(discovery, "DENSE_LIMIT", 0)
                bound = discovery.condition_number(system)
                assert dense * (1 - 1e-12) <= bound <= 3 * dense, (sch.family, sch.steps, n1)

    def test_norm_bound_reads_the_exact_norms(self, monkeypatch, dense_a_h):
        # the closed forms and the one-solve norms of A_h^-1 against dense norms
        monkeypatch.setattr(discovery, "DENSE_LIMIT", 0)
        for sch in lmm.all_schemes():
            for n1 in (sch.steps + sch.order, 50):
                a = dense_a_h(sch, n1)
                inv = np.linalg.inv(a)
                norms = [np.linalg.norm(m, p) for m in (a, inv) for p in (1, np.inf)]
                bound = discovery.condition_number(grid_system(sch, linear_trajectory(1.0 / n1)))
                assert bound == pytest.approx(np.sqrt(np.prod(norms)), rel=1e-12), (sch, n1)

    def test_norm_bound_of_unstable_adams_moulton_raises(self):
        # tau > DENSE_LIMIT: the impulse response overflows, with no warning
        traj = linear_trajectory(4e-4)
        for steps in range(2, 7):
            system = grid_system(lmm.scheme("am", steps), traj)
            assert system.window.tau > discovery.DENSE_LIMIT
            with pytest.raises(discovery.SingularSystemError, match="numerically singular"):
                discovery.condition_number(system)

    def test_norm_bound_takes_one_banded_solve(self, monkeypatch):
        calls = []

        def counting_dtbtrs(*args, **kwargs):
            calls.append(args[1].shape)
            return dtbtrs(*args, **kwargs)

        monkeypatch.setattr(discovery, "dtbtrs", counting_dtbtrs)
        monkeypatch.setattr(discovery, "DENSE_LIMIT", 0)
        system = grid_system(lmm.scheme("ab", 3), linear_trajectory(0.01))
        assert discovery.condition_number(system) >= 1.0
        assert calls == [(system.window.tau, system.window.aux_count + 1)]

    def test_adams_kappa_does_not_blow_up_with_length(self):
        sch = lmm.scheme("ab", 2)
        kappas = []
        for n1 in (50, 100, 200):
            system = grid_system(sch, linear_trajectory(1.0 / n1))
            kappas.append(discovery.condition_number(system))
        assert all(k >= 1.0 for k in kappas)
        assert max(kappas) / min(kappas) < 2.0

    def test_singular_system_detected(self):
        # AM-4's beta polynomial has a root outside the unit circle, so the
        # inverse of A_h grows geometrically along the window
        system = grid_system(lmm.scheme("am", 4), linear_trajectory(0.01))
        with pytest.raises(discovery.SingularSystemError):
            discovery.condition_number(system)

    def test_singular_message_names_max_root(self):
        system = grid_system(lmm.scheme("am", 4), linear_trajectory(0.02))  # 51 samples
        with pytest.raises(discovery.SingularSystemError,
                           match=r"^grid-value system is numerically singular; "
                                 r"am-4 beta polynomial has max \|root\| = 2\.977$"):
            discovery.condition_number(system)


def test_non_finite_grid_values_raise():
    # AM-3's grid values overflow over 1001 samples; no inf reaches the caller
    system = grid_system(lmm.scheme("am", 3), linear_trajectory(1e-3))
    with pytest.raises(discovery.SingularSystemError,
                       match=r"^recovered grid values are not finite; am-3 .* = 2\.366$"):
        discovery.solve_grid_values(system)


def test_band_only_system_is_rejected():
    traj = linear_trajectory(0.02)
    system = lmm.grid_system(lmm.scheme("am", 2), traj.states, traj.h, startup=False)
    with pytest.raises(ValueError, match="lacks its 2 start-up rows"):
        discovery.solve_grid_values(system)


def test_assemble_validation():
    traj = linear_trajectory(0.25)  # n1 = 4
    with pytest.raises(ValueError, match="component"):
        discovery.assemble(lmm.scheme("am", 1), traj, 2)
    # one length check, in lmm.grid_system, for every caller
    for build in (lambda sch: discovery.assemble(sch, traj, 0),
                  lambda sch: grid_system(sch, traj)):
        with pytest.raises(ValueError, match=r"too short: need n1 >= steps \+ order = 12, got 4"):
            build(lmm.scheme("bdf", 6))
    with pytest.raises(ValueError, match="too short: need n1 >= steps = 6, got 4"):
        lmm.grid_system(lmm.scheme("bdf", 6), traj.states, traj.h, startup=False)
    # the band rows alone fit where the start-up rows do not
    band = lmm.grid_system(lmm.scheme("am", 2), traj.states, traj.h, startup=False)
    assert band.window.tau == 5 and band.window.aux_count == 2 and band.rhs.shape == (3, 2)


def test_system_without_components_solves_to_empty_values():
    traj = linear_trajectory(0.02)
    system = lmm.grid_system(lmm.scheme("ab", 3), traj.states[:, :0], traj.h)
    assert discovery.solve_grid_values(system).shape == (system.window.tau, 0)


def test_assemble_columns_match_all_component_solve():
    traj = linear_trajectory(0.02)
    for family, steps in STABLE_SMALL_SCHEMES:
        sch = lmm.scheme(family, steps)
        system = grid_system(sch, traj)
        u = discovery.solve_grid_values(system)
        assert u.shape == (system.window.tau, traj.dim)
        for c in range(traj.dim):
            column = discovery.solve_grid_values(discovery.assemble(sch, traj, c))
            npt.assert_array_equal(column[:, 0], u[:, c])
