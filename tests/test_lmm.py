"""Multistep scheme tests.

Coefficient oracles are the classical printed tables (entered as exact
rationals) and, for every scheme, an independent reference: the moment
conditions solved here by Gaussian elimination over the rationals and
rounded once, which the closed-form tables must equal bitwise.  Order
behaviour is also checked against empirical truncation slopes on a
closed-form trajectory.
"""
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from kanlmm import lmm
from kanlmm.odeint import Trajectory
from kanlmm.systems import linear_system

# classical tables, newest sample first (offset m = 0..M)
CLASSICAL_BETA = {
    ("ab", 1): [0, 1],
    ("ab", 2): [0, Fraction(3, 2), Fraction(-1, 2)],
    ("ab", 3): [0, Fraction(23, 12), Fraction(-16, 12), Fraction(5, 12)],
    ("ab", 4): [0, Fraction(55, 24), Fraction(-59, 24), Fraction(37, 24), Fraction(-9, 24)],
    ("am", 1): [Fraction(1, 2), Fraction(1, 2)],
    ("am", 2): [Fraction(5, 12), Fraction(8, 12), Fraction(-1, 12)],
    ("am", 3): [Fraction(9, 24), Fraction(19, 24), Fraction(-5, 24), Fraction(1, 24)],
}
CLASSICAL_BDF_ALPHA = {
    1: [1, -1],
    2: [Fraction(3, 2), -2, Fraction(1, 2)],
    3: [Fraction(11, 6), -3, Fraction(3, 2), Fraction(-1, 3)],
    4: [Fraction(25, 12), -4, 3, Fraction(-4, 3), Fraction(1, 4)],
    5: [Fraction(137, 60), -5, 5, Fraction(-10, 3), Fraction(5, 4), Fraction(-1, 5)],
    6: [Fraction(49, 20), -6, Fraction(15, 2), Fraction(-20, 3), Fraction(15, 4),
        Fraction(-6, 5), Fraction(1, 6)],
}

# step lists for truncation-slope fits, keyed by scheme order; small
# orders need small h, high orders need h large enough that the
# truncation term stays above the (1/h)-amplified rounding noise
ORDER_FIT_STEPS = {
    1: [1e-3, 1 / 640, 1 / 400, 1 / 250, 1 / 160, 1e-2],
    2: [1e-3, 1 / 640, 1 / 400, 1 / 250, 1 / 160, 1e-2],
    3: [1 / 320, 1 / 224, 1 / 160, 1 / 112, 1 / 80, 1 / 56],
    4: [1 / 320, 1 / 224, 1 / 160, 1 / 112, 1 / 80, 1 / 56],
    5: [1 / 320, 1 / 224, 1 / 160, 1 / 112, 1 / 80],
    6: [1 / 160, 1 / 112, 1 / 80, 1 / 56],
    7: [1 / 160, 1 / 112, 1 / 80, 1 / 56],
}


def solve_exact(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination with partial pivoting over the rationals."""
    n = len(b)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [v - factor * w for v, w in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def moment_solve(family: str, steps: int) -> tuple[list[Fraction], list[Fraction], int]:
    """Exact alpha, beta and order p from the moment conditions.

    Order p means sum_m alpha_m (-m)^j = j sum_m beta_m (-m)^(j-1) for
    j = 1..p and sum_m alpha_m = 0.  Adams fixes alpha to x_n - x_{n-1}
    and solves for beta_1..beta_M (AB, p = M) or beta_0..beta_M (AM,
    p = M + 1); BDF fixes beta = e_0 and solves for alpha (p = M).
    """
    zero, one = Fraction(0), Fraction(1)
    if family == "bdf":
        beta = [one] + [zero] * steps
        a = [[Fraction(-m) ** j for m in range(steps + 1)] for j in range(steps + 1)]
        alpha = solve_exact(a, [zero, one] + [zero] * (steps - 1))
        return alpha, beta, steps
    alpha = [one, -one] + [zero] * (steps - 1)
    first = int(family == "ab")
    p = steps + 1 - first
    a = [[Fraction(-m) ** (j - 1) for m in range(first, steps + 1)] for j in range(1, p + 1)]
    b = [sum(al * Fraction(-m) ** j for m, al in enumerate(alpha)) / j for j in range(1, p + 1)]
    beta = [zero] * first + solve_exact(a, b)
    return alpha, beta, p


@pytest.mark.parametrize("family", lmm.FAMILIES)
@pytest.mark.parametrize("steps", range(1, 7))
def test_closed_form_equals_moment_solve(family, steps):
    alpha, beta, p = moment_solve(family, steps)
    for j in range(p + 1):  # the reference itself meets every condition
        lhs = sum(al * Fraction(-m) ** j for m, al in enumerate(alpha))
        rhs = j * sum(be * Fraction(-m) ** (j - 1) for m, be in enumerate(beta)) if j else 0
        assert lhs == rhs, f"j={j}"
    assert alpha[0] > 0
    sch = lmm.scheme(family, steps)
    assert sch.alpha.tobytes() == np.array([float(v) for v in alpha]).tobytes()
    assert sch.beta.tobytes() == np.array([float(v) for v in beta]).tobytes()
    assert sch.order == p and type(sch.order) is int


@pytest.mark.parametrize("family,steps", sorted(CLASSICAL_BETA))
def test_beta_matches_classical_tables(family, steps):
    sch = lmm.scheme(family, steps)
    expected = [float(b) for b in CLASSICAL_BETA[(family, steps)]]
    npt.assert_array_equal(sch.beta, expected)
    npt.assert_array_equal(sch.alpha, [1.0, -1.0] + [0.0] * (steps - 1))


@pytest.mark.parametrize("steps", sorted(CLASSICAL_BDF_ALPHA))
def test_bdf_matches_classical_tables(steps):
    sch = lmm.scheme("bdf", steps)
    expected = [float(a) for a in CLASSICAL_BDF_ALPHA[steps]]
    npt.assert_array_equal(sch.alpha, expected)
    npt.assert_array_equal(sch.beta, [1.0] + [0.0] * steps)


@pytest.mark.parametrize("family", lmm.FAMILIES)
@pytest.mark.parametrize("steps", range(1, 7))
def test_moment_conditions(family, steps):
    # order p means sum_m alpha_m (-m)^j = j sum_m beta_m (-m)^(j-1)
    # for j = 0..p; restated here with plain floats as the oracle
    sch = lmm.scheme(family, steps)
    ms = -np.arange(steps + 1.0)
    assert sch.alpha.sum() == pytest.approx(0.0, abs=1e-14)
    for j in range(1, sch.order + 1):
        lhs = np.sum(sch.alpha * ms ** j)
        rhs = j * np.sum(sch.beta * ms ** (j - 1))
        assert lhs == pytest.approx(rhs, abs=1e-12), f"j={j}"


@pytest.mark.parametrize("family,steps,order,explicit", [
    ("ab", 1, 1, True),
    ("ab", 6, 6, True),
    ("am", 1, 2, False),
    ("am", 6, 7, False),
    ("bdf", 1, 1, False),
    ("bdf", 6, 6, False),
])
def test_order_and_explicitness(family, steps, order, explicit):
    sch = lmm.scheme(family, steps)
    assert sch.order == order
    assert bool(sch.beta[0] == 0.0) is explicit  # no weight on the new value


def test_all_schemes_covers_families():
    schemes = lmm.all_schemes()
    assert len(schemes) == 18
    assert {(s.family, s.steps) for s in schemes} == {
        (f, m) for f in lmm.FAMILIES for m in range(1, 7)
    }


def test_scheme_validation():
    with pytest.raises(ValueError):
        lmm.scheme("rk", 1)
    with pytest.raises(ValueError):
        lmm.scheme("ab", 0)
    with pytest.raises(ValueError):
        lmm.scheme("bdf", 7)


def test_beta_support():
    assert lmm.scheme("am", 1).beta_support == (0, 1)
    assert lmm.scheme("ab", 2).beta_support == (1, 2)
    assert lmm.scheme("bdf", 3).beta_support == (0, 0)


def test_stencil_is_trimmed_band_in_column_order():
    npt.assert_array_equal(lmm.scheme("am", 1).stencil, [0.5, 0.5])
    npt.assert_array_equal(lmm.scheme("ab", 2).stencil, [-0.5, 1.5])
    npt.assert_array_equal(lmm.scheme("bdf", 3).stencil, [1.0])
    for sch in lmm.all_schemes():
        # both ends nonzero: the diagonal of A_h (stencil[-1]) never vanishes
        assert sch.stencil[0] != 0.0 and sch.stencil[-1] != 0.0


@pytest.mark.parametrize("family", lmm.FAMILIES)
@pytest.mark.parametrize("steps", range(1, 7))
def test_system_matrix_matches_scheme_rows(family, steps, dense_a_h):
    # the products and the band storage against A_h written out entry by entry
    sch = lmm.scheme(family, steps)
    for n1 in (steps, 20):
        w = lmm.index_window(sch, n1)
        expected = dense_a_h(sch, n1)
        eye = np.eye(w.tau)
        npt.assert_array_equal(lmm.apply_system(sch, eye), expected)
        npt.assert_array_equal(lmm.apply_system_t(sch, eye), expected.T)
        # the band storage that the banded solves read
        bands = lmm.system_bands(sch, w.tau)
        assert bands.shape == (w.aux_count + 1, w.tau)
        rebuilt = np.zeros_like(expected)
        for j in range(w.aux_count + 1):
            rebuilt += np.diag(bands[j, : w.tau - j], -j)
        npt.assert_array_equal(rebuilt, expected)


def _row_loop_products(sch, v):
    """A_h v and A_h^T v one entry at a time, each sum in CSR order: along
    a row of A_h (A_h v) or down a column (A_h^T v), from the first entry."""
    s = sch.stencil.tolist()
    aux = len(s) - 1
    tau = v.shape[0]
    av, atv = np.empty_like(v), np.empty_like(v)
    for c in range(v.shape[1]):
        for i in range(tau):
            if i < aux:
                av[i, c] = v[i, c]
            else:
                acc = s[0] * v[i - aux, c]
                for k in range(1, aux + 1):
                    acc = acc + s[k] * v[i - aux + k, c]
                av[i, c] = acc
            acc = v[i, c] if i < aux else None
            # band rows aux + b that reach column i, ascending: b = i - k
            for b in range(max(0, i - aux), min(i, tau - aux - 1) + 1):
                term = s[i - b] * v[aux + b, c]
                acc = term if acc is None else acc + term
            atv[i, c] = acc
    return av, atv


@pytest.mark.parametrize("family", lmm.FAMILIES)
@pytest.mark.parametrize("steps", range(1, 7))
def test_products_match_csr_order_row_loop_bitwise(family, steps):
    sch = lmm.scheme(family, steps)
    rng = np.random.default_rng(steps)
    for n1 in (steps + sch.order, 50):
        tau = lmm.index_window(sch, n1).tau
        for d in (1, 3):
            v = rng.standard_normal((tau, d))
            av, atv = _row_loop_products(sch, v)
            assert lmm.apply_system(sch, v).tobytes() == av.tobytes()
            assert lmm.apply_system_t(sch, v).tobytes() == atv.tobytes()
    # a one-dimensional vector reads as one column
    v = rng.standard_normal(tau)
    npt.assert_array_equal(lmm.apply_system(sch, v), lmm.apply_system(sch, v[:, None])[:, 0])
    npt.assert_array_equal(lmm.apply_system_t(sch, v), lmm.apply_system_t(sch, v[:, None])[:, 0])


def test_stencil_is_computed_once_and_read_only():
    sch = lmm.scheme("ab", 3)
    assert sch.stencil is sch.stencil
    with pytest.raises(ValueError):
        sch.stencil[0] = 1.0


@pytest.mark.parametrize("family,steps", [("ab", 3), ("bdf", 2)])
def test_grid_system_band_rows_across_blocks(family, steps):
    # more rows than one summation block; every row of b is its own alpha sum
    sch = lmm.scheme(family, steps)
    h, n1 = 0.01, 2 * lmm.RHS_BLOCK + 7
    states = np.random.default_rng(4).standard_normal((n1 + 1, 2))
    system = lmm.grid_system(sch, states, h, startup=False)
    expected = np.zeros_like(system.rhs)
    for row, n in enumerate(range(steps, n1 + 1)):
        for mm in range(steps + 1):
            expected[row] += (sch.alpha[mm] / h) * states[n - mm]
    npt.assert_array_equal(system.rhs, expected)


class TestResidual:
    def test_zero_for_exact_linear_motion(self):
        # constant field, affine trajectory: every consistent scheme is exact
        sch = lmm.scheme("am", 1)
        ts = 0.1 * np.arange(9)
        traj = Trajectory(t0=0.0, t1=0.8, h=0.1,
                          states=np.column_stack([2.0 + 3.0 * ts, 1.0 - 0.5 * ts]))
        r = lmm.residual(sch, traj, lambda s: np.array([3.0, -0.5]))
        npt.assert_allclose(r, 0.0, atol=1e-12)
        assert r.shape == (8, 2)

    def test_truncation_scale_on_smooth_trajectory(self):
        sysd = linear_system()
        h = 1e-3
        ts = h * np.arange(101)
        traj = Trajectory(t0=0.0, t1=ts[-1], h=h, states=sysd.solution(ts))
        r = lmm.residual(lmm.scheme("am", 1), traj, sysd.field)
        # trapezoid truncation is h^2 |x'''| / 12 plus rounding
        bound = h ** 2 * np.max(np.abs(64.0 * np.exp(4 * ts))) / 12 + 1e-9
        assert 0 < np.max(np.abs(r)) < bound

    def test_requires_enough_points(self):
        sch = lmm.scheme("ab", 3)
        traj = Trajectory(t0=0.0, t1=0.2, h=0.1, states=np.zeros((3, 1)))
        with pytest.raises(ValueError, match="trajectory too short"):
            lmm.residual(sch, traj, lambda s: s)


@pytest.mark.parametrize("family", lmm.FAMILIES)
@pytest.mark.parametrize("steps", range(1, 7))
def test_empirical_order_all_schemes(family, steps):
    sysd = linear_system()
    sch = lmm.scheme(family, steps)
    slope = lmm.empirical_order(sch, sysd.field, sysd.solution, ORDER_FIT_STEPS[sch.order])
    assert abs(slope - sch.order) <= 0.3, f"{family}-{steps}: slope {slope}"


def test_empirical_order_rejects_saturated_data():
    # a fixed point makes every residual vanish to rounding level
    sch = lmm.scheme("ab", 1)

    def solution(ts):
        return np.ones((len(np.atleast_1d(ts)), 1))

    with pytest.raises(lmm.DegenerateFitError):
        lmm.empirical_order(sch, lambda s: np.zeros(1), solution, [0.1, 0.05, 0.025])


def test_empirical_order_needs_three_steps():
    sysd = linear_system()
    with pytest.raises(ValueError):
        lmm.empirical_order(lmm.scheme("ab", 1), sysd.field, sysd.solution, [0.1, 0.05])


class TestIndexWindow:
    def test_am1_short_trajectory(self):
        w = lmm.index_window(lmm.scheme("am", 1), n1=4)
        assert (w.r, w.q, w.tau, w.aux_count) == (0, 4, 5, 1)

    def test_ab2_window(self):
        w = lmm.index_window(lmm.scheme("ab", 2), n1=10)
        assert (w.r, w.q, w.tau, w.aux_count) == (0, 9, 10, 1)

    def test_bdf_window_needs_no_aux_rows(self):
        w = lmm.index_window(lmm.scheme("bdf", 2), n1=10)
        assert (w.r, w.q, w.tau, w.aux_count) == (2, 10, 9, 0)

    def test_rejects_short_trajectories(self):
        with pytest.raises(ValueError):
            lmm.index_window(lmm.scheme("am", 3), n1=2)

    @settings(max_examples=80, deadline=None)
    @given(
        family=st.sampled_from(lmm.FAMILIES),
        steps=st.integers(min_value=1, max_value=6),
        extra=st.integers(min_value=0, max_value=200),
    )
    def test_window_accounting(self, family, steps, extra):
        sch = lmm.scheme(family, steps)
        n1 = steps + extra
        w = lmm.index_window(sch, n1)
        m_min, m_max = sch.beta_support
        # the window always covers the multistep rows plus bandwidth-1 aux rows
        assert w.tau == (n1 - steps + 1) + w.aux_count
        assert w.aux_count == m_max - m_min
        assert w.r == steps - m_max
        assert w.q == n1 - m_min
        assert 0 <= w.r <= w.q <= n1


class TestFdmCoefficients:
    def test_classical_values(self):
        npt.assert_array_equal(lmm.fdm_coefficients(1), [-1.0, 1.0])
        npt.assert_array_equal(lmm.fdm_coefficients(2), [-1.5, 2.0, -0.5])
        expected3 = [float(Fraction(-11, 6)), 3.0, -1.5, float(Fraction(1, 3))]
        npt.assert_array_equal(lmm.fdm_coefficients(3), expected3)

    @pytest.mark.parametrize("order", range(1, 8))
    def test_closed_form_matches_moment_solve(self, order):
        # sum_m mu_m m^j = [j == 1] for j = 0..order, solved over the rationals
        n = order + 1
        a = [[Fraction(m) ** j for m in range(n)] for j in range(n)]
        b = [Fraction(int(j == 1)) for j in range(n)]
        expected = [float(v) for v in solve_exact(a, b)]
        npt.assert_array_equal(lmm.fdm_coefficients(order), expected)

    @pytest.mark.parametrize("order", range(1, 8))
    def test_exact_on_polynomials(self, order):
        # (1/h) sum mu_m u(t + m h) reproduces u'(t) for deg <= order
        mu = lmm.fdm_coefficients(order)
        rng = np.random.default_rng(order)
        coeffs = rng.uniform(-1.0, 1.0, order + 1)
        h, t = 0.1, 0.3
        nodes = t + h * np.arange(order + 1)
        poly = np.polynomial.Polynomial(coeffs)
        approx = mu @ poly(nodes) / h
        assert approx == pytest.approx(poly.deriv()(t), rel=1e-9, abs=1e-11)

    def test_rejects_unsupported_order(self):
        with pytest.raises(ValueError):
            lmm.fdm_coefficients(0)
        with pytest.raises(ValueError):
            lmm.fdm_coefficients(8)


class TestRootCondition:
    def test_ab2_root_is_one_third(self):
        report = lmm.root_condition(lmm.scheme("ab", 2))
        assert report.satisfied and not report.boundary
        assert len(report.roots) == 1
        assert abs(report.roots[0] - 1.0 / 3.0) <= 1e-10

    def test_am1_boundary_root(self):
        report = lmm.root_condition(lmm.scheme("am", 1))
        assert not report.satisfied
        assert report.boundary
        assert abs(report.roots[0] + 1.0) <= 1e-12
        assert report.max_modulus == pytest.approx(1.0, abs=1e-12)

    def test_bdf_vacuous(self):
        for steps in range(1, 7):
            report = lmm.root_condition(lmm.scheme("bdf", steps))
            assert report.satisfied and not report.boundary
            assert report.roots.size == 0 and report.max_modulus == 0.0

    def test_am2_violates_strict_condition(self):
        # roots of 5 z^2 + 8 z - 1: (-4 +- sqrt(21)) / 5, one outside the disk
        report = lmm.root_condition(lmm.scheme("am", 2))
        assert not report.satisfied and not report.boundary
        assert report.max_modulus == pytest.approx((4.0 + np.sqrt(21.0)) / 5.0, rel=1e-12)
