"""B-spline basis tests.

The references are written independently below: a deliberately naive
scalar Cox-de Boor recursion, and the local de Boor triangle that
``eval_local``'s tables must reproduce.  scipy.interpolate.BSpline serves
as a second, external cross-check.
"""
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy.interpolate import BSpline as SciPyBSpline

from kanlmm.bspline import eval_basis, eval_basis_derivative, eval_local, make_basis


def local(basis, x):
    """``eval_local``'s ``(span, vals, derivs)``, from outputs and scratch filled with junk."""
    n, k = x.shape[0], basis.degree
    span = np.full(n, -7, dtype=np.intp)
    vals, derivs = np.full((n, k + 1), np.nan), np.full((n, k + 1), np.nan)
    eval_local(basis, x, span, vals, derivs, np.full((2 * k + 1, n), np.nan))
    return span, vals, derivs


def naive_bspline_value(knots, i, k, x):
    """Textbook recursive Cox-de Boor for one basis function at one point."""
    if k == 0:
        # half-open intervals, except the last nonempty one keeps its
        # right endpoint so the closed domain is covered
        if knots[i] <= x < knots[i + 1]:
            return 1.0
        if x == knots[-1] and knots[i] < knots[i + 1] and knots[i + 1] == knots[-1]:
            return 1.0
        return 0.0
    left = 0.0
    if knots[i + k] != knots[i]:
        left = (x - knots[i]) / (knots[i + k] - knots[i]) * naive_bspline_value(knots, i, k - 1, x)
    right = 0.0
    if knots[i + k + 1] != knots[i + 1]:
        right = (knots[i + k + 1] - x) / (knots[i + k + 1] - knots[i + 1]) * naive_bspline_value(
            knots, i + 1, k - 1, x
        )
    return left + right


def _cox_de_boor(knots, degree, x):
    """``eval_local``'s ``(span, vals, derivs)`` by the local de Boor triangle.

    Piegl & Tiller, algorithms A2.2/A2.3, on any clamped knot vector:
    inside a nonempty span no denominator vanishes, so no 0/0 convention
    is needed.
    """
    k, t = degree, knots
    span = np.clip(np.searchsorted(t, x, side="right") - 1, k, t.shape[0] - k - 2)
    n = x.shape[0]
    # left[:, j] = x - t[span+1-j], right[:, j] = t[span+j] - x
    left = np.zeros((n, k + 1))
    right = np.zeros((n, k + 1))
    vals = np.zeros((n, k + 1))
    vals[:, 0] = 1.0
    for j in range(1, k + 1):
        if j == k:
            lower = vals[:, :k].copy()  # degree k-1 values of functions span-k+1 .. span
        left[:, j] = x - t[span + 1 - j]
        right[:, j] = t[span + j] - x
        saved = np.zeros(n)
        for r in range(j):
            temp = vals[:, r] / (right[:, r + 1] + left[:, j - r])
            vals[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        vals[:, j] = saved
    # N'_{i,k} = k (N_{i,k-1} / (t_{i+k} - t_i) - N_{i+1,k-1} / (t_{i+k+1} - t_{i+1}))
    first = span[:, None] - k + np.arange(1, k + 1)
    scaled = k * lower / (t[first + k] - t[first])
    derivs = np.zeros((n, k + 1))
    derivs[:, 1:] += scaled
    derivs[:, :k] -= scaled
    return span, vals, derivs


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("intervals", [1, 3, 8])
def test_matches_naive_recursion(degree, intervals):
    basis = make_basis(degree, intervals)
    rng = np.random.default_rng(42)
    pts = np.concatenate([rng.uniform(0.0, 1.0, 40), [0.0, 1.0], basis.knots[degree:-degree]])
    vals = eval_basis(basis, pts)
    for j, x in enumerate(pts):
        expected = [naive_bspline_value(basis.knots, i, degree, x) for i in range(basis.size)]
        npt.assert_allclose(vals[j], expected, atol=1e-13, rtol=0.0)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("intervals", [*range(1, 41), 64, 100])
def test_power_form_matches_cox_de_boor(degree, intervals):
    # every knot, its floating-point neighbours on both sides, both ends;
    # partition of unity with test_partition_of_unity's floor holds there.
    # The triangle runs on the integer knots 0 .. G at t = G x.
    rng = np.random.default_rng(100 * degree + intervals)
    basis = make_basis(degree, intervals)
    knots = np.unique(basis.knots)
    x = np.concatenate([knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
                        rng.uniform(0.0, 1.0, 300)])
    x = np.clip(x, 0.0, 1.0)
    span, vals, derivs = local(basis, x)
    integer_knots = np.concatenate([np.zeros(degree), np.arange(intervals + 1.0),
                                    np.full(degree, float(intervals))])
    ref_span, ref_vals, ref_derivs = _cox_de_boor(integer_knots, degree, x * intervals)
    ref_derivs *= intervals
    npt.assert_array_equal(span, ref_span)
    npt.assert_allclose(vals, ref_vals, atol=1e-13, rtol=0.0)
    assert np.all(vals >= -1e-15)
    npt.assert_allclose(vals.sum(axis=1), 1.0, atol=1e-12, rtol=0.0)
    npt.assert_allclose(derivs, ref_derivs, atol=1e-12 * np.abs(ref_derivs).max(), rtol=0.0)


@pytest.mark.parametrize("degree", [1, 2, 3, 5])
def test_matches_scipy_spline_combination(degree):
    intervals = 7
    basis = make_basis(degree, intervals)
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(basis.size)
    x = np.linspace(0.0, 1.0, 301)
    ours = eval_basis(basis, x) @ coeffs
    ref = SciPyBSpline(basis.knots, coeffs, degree)(x)
    npt.assert_allclose(ours, ref, atol=5e-13, rtol=0.0)


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_derivative_matches_scipy(degree):
    basis = make_basis(degree, 9)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(basis.size)
    x = np.linspace(0.0, 1.0, 257)
    ours = eval_basis_derivative(basis, x) @ coeffs
    ref = SciPyBSpline(basis.knots, coeffs, degree).derivative(1)(x)
    # scipy takes the left limit at the top knot; ours keeps the interior
    # polynomial, so compare away from the last breakpoint
    npt.assert_allclose(ours[:-1], ref[:-1], atol=2e-11, rtol=0.0)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_top_knot_values_are_exact(degree):
    # the clamped spline ends on its last coefficient: only the last
    # function is nonzero at the top knot, and it is exactly 1
    expected = np.zeros(degree + 1)
    expected[-1] = 1.0
    for intervals in range(1, 41):
        _, vals, _ = local(make_basis(degree, intervals), np.array([1.0]))
        npt.assert_array_equal(vals[0], expected)


@settings(max_examples=60, deadline=None)
@given(
    degree=st.integers(min_value=1, max_value=5),
    intervals=st.integers(min_value=1, max_value=40),
    u=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_partition_of_unity(degree, intervals, u):
    basis = make_basis(degree, intervals)
    total = eval_basis(basis, u).sum()
    assert abs(total - 1.0) <= 1e-12
    assert np.all(eval_basis(basis, u) >= -1e-15)


@settings(max_examples=30, deadline=None)
@given(
    degree=st.integers(min_value=1, max_value=4),
    intervals=st.integers(min_value=2, max_value=20),
)
def test_derivatives_sum_to_zero(degree, intervals):
    # d/dx of the constant-1 spline is zero everywhere
    basis = make_basis(degree, intervals)
    x = np.linspace(0.0, 1.0, 101)
    sums = eval_basis_derivative(basis, x).sum(axis=1)
    npt.assert_allclose(sums, 0.0, atol=1e-10)


@pytest.mark.parametrize("degree,intervals", [(1, 4), (3, 8), (5, 6)])
def test_local_support(degree, intervals):
    basis = make_basis(degree, intervals)
    x = np.linspace(0.0, 1.0, 401)
    vals = eval_basis(basis, x)
    for i in range(basis.size):
        lo, hi = basis.knots[i], basis.knots[i + degree + 1]
        outside = (x < lo) | (x > hi)
        npt.assert_allclose(vals[outside, i], 0.0, atol=1e-14)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("intervals", [1, 4, 16, 64])
def test_polynomial_reproduction(degree, intervals):
    # splines of degree k reproduce every polynomial of degree <= k
    basis = make_basis(degree, intervals)
    x = np.linspace(0.0, 1.0, 200)
    design = eval_basis(basis, x)
    for power in range(degree + 1):
        target = x ** power
        coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)
        dense = np.linspace(0.0, 1.0, 777)
        err = np.max(np.abs(eval_basis(basis, dense) @ coeffs - dense ** power))
        assert err <= 1e-9, f"degree {degree}, G {intervals}, x^{power}: {err}"


def test_derivative_matches_finite_differences():
    basis = make_basis(3, 10)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(basis.size)
    x = rng.uniform(0.025, 0.975, 50)
    step = 1e-6
    fd = (eval_basis(basis, x + step) @ coeffs - eval_basis(basis, x - step) @ coeffs) / (2 * step)
    exact = eval_basis_derivative(basis, x) @ coeffs
    npt.assert_allclose(exact, fd, atol=1e-7, rtol=1e-7)


def test_clamping_extends_as_constant():
    basis = make_basis(3, 5)
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(basis.size)
    at_lo = eval_basis(basis, 0.0) @ coeffs
    at_hi = eval_basis(basis, 1.0) @ coeffs
    npt.assert_allclose(eval_basis(basis, [-2.0, -0.5]) @ coeffs, at_lo, rtol=0, atol=1e-14)
    npt.assert_allclose(eval_basis(basis, [1.5, 10.0]) @ coeffs, at_hi, rtol=0, atol=1e-14)
    npt.assert_allclose(eval_basis_derivative(basis, [-2.0, 4.0]) @ coeffs, 0.0, atol=0.0)


def test_top_knot_is_covered():
    for degree in (1, 2, 3):
        basis = make_basis(degree, 6)
        vals = eval_basis(basis, 1.0)
        assert abs(vals.sum() - 1.0) <= 1e-12
        # only the last basis function is nonzero at the clamped right end
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)
        npt.assert_allclose(vals[:-1], 0.0, atol=1e-12)


def test_knot_vector_structure():
    basis = make_basis(3, 8)
    assert basis.size == 11
    npt.assert_array_equal(basis.knots[:4], 0.0)
    npt.assert_array_equal(basis.knots[-4:], 1.0)
    interior = basis.knots[4:-4]
    assert interior.shape == (7,)
    npt.assert_allclose(np.diff(interior), 0.125, rtol=0, atol=1e-15)


def test_scalar_and_batch_shapes():
    basis = make_basis(2, 3)
    assert eval_basis(basis, 0.5).shape == (5,)
    assert eval_basis(basis, [0.1, 0.2, 0.3]).shape == (3, 5)
    assert eval_basis_derivative(basis, 0.5).shape == (5,)
    assert eval_basis_derivative(basis, np.array([0.1, 0.9])).shape == (2, 5)


@pytest.mark.parametrize("bad", [
    dict(degree=0, intervals=4),
    dict(degree=-1, intervals=4),
    dict(degree=3, intervals=0),
])
def test_invalid_construction(bad):
    with pytest.raises(ValueError):
        make_basis(**bad)


def test_non_finite_evaluation_points_rejected():
    basis = make_basis(3, 4)
    with pytest.raises(ValueError):
        eval_basis(basis, [0.1, np.nan])
    with pytest.raises(ValueError):
        eval_basis_derivative(basis, np.inf)
