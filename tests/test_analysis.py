"""Bound-calculator and error-metric tests.

The bound expressions are checked against hand-reduced values at small
parameter sets, their claimed monotonicity/linearity properties, and
the Lipschitz estimate against observed difference quotients.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from kanlmm import analysis, kan
from kanlmm.analysis import HolderSpec


def test_l2_seminorm_known_values():
    assert analysis.l2_seminorm([3.0, 4.0]) == pytest.approx(math.sqrt(12.5), rel=1e-15)
    assert analysis.l2_seminorm([[1.0, 1.0], [1.0, 1.0]]) == 1.0
    assert analysis.l2_seminorm([-2.0]) == 2.0
    with pytest.raises(ValueError):
        analysis.l2_seminorm([])


class TestHolderSpec:
    def test_modulus(self):
        hs = HolderSpec(alpha=0.5, lam=3.0)
        assert hs.omega(4.0) == pytest.approx(6.0, rel=1e-15)
        assert hs.omega(0.0) == 0.0
        with pytest.raises(ValueError):
            hs.omega(-1.0)

    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0}, {"alpha": 1.5}, {"alpha": 0.5, "lam": 0.0},
        {"alpha": 0.5, "radius": -1.0}, {"alpha": 0.5, "lam": math.nan},
        {"alpha": 0.5, "lam": math.inf}, {"alpha": 0.5, "radius": math.nan},
        {"alpha": 0.5, "radius": math.inf}, {"alpha": math.nan},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            HolderSpec(**kwargs)


class TestUpperBound:
    def test_hand_reduced_value(self):
        # k=3: mesh term = min(sqrt(2)/sqrt(2), sqrt(3/3)/64) = 1/64,
        # so the bound is lam*N*(L*d+1)*R*mesh = 5*3/64
        hs = HolderSpec(alpha=1.0, lam=1.0, radius=1.0)
        got = analysis.upper_bound(hs, k=3, g=64, n_hidden=5, d=2, lipschitz=1.0)
        assert got == pytest.approx(15.0 / 64.0, rel=1e-15)
        assert analysis.upper_bound_unit_box(hs, 3, 64, 5, 2, 1.0) == pytest.approx(
            got, rel=1e-15)

    def test_fractional_alpha(self):
        hs = HolderSpec(alpha=0.5, lam=2.0, radius=4.0)
        got = analysis.upper_bound(hs, k=3, g=64, n_hidden=5, d=2, lipschitz=1.0)
        assert got == pytest.approx(2 * 5 * 3 * 2.0 * (1.0 / 8.0), rel=1e-14)
        unit = analysis.upper_bound_unit_box(hs, 3, 64, 5, 2, 1.0)
        assert unit == pytest.approx(5 * 3 * 2.0 / 8.0, rel=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_non_increasing_in_grid(self, k):
        hs = HolderSpec(alpha=0.7, lam=1.3, radius=2.0)
        vals = [analysis.upper_bound(hs, k, g, 5, 3, 2.0)
                for g in (1, 2, 4, 8, 16, 64, 256)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_linear_in_hidden_width(self):
        hs = HolderSpec(alpha=1.0)
        one = analysis.upper_bound(hs, 3, 16, 1, 4, 0.5)
        for n in (2, 7, 40):
            assert analysis.upper_bound(hs, 3, 16, n, 4, 0.5) == pytest.approx(
                n * one, rel=1e-14)

    def test_degree_branch_saturates(self):
        # at k=5 and G=1 the quasi-interpolation branch is the smaller one,
        # so refining G=1 -> G=2 cannot change the bound until the G branch
        # crosses below sqrt(2)/2
        hs = HolderSpec(alpha=1.0)
        b1 = analysis.upper_bound(hs, 5, 1, 1, 1, 0.0)
        assert b1 == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-14)

    def test_validation(self):
        hs = HolderSpec(alpha=1.0)
        with pytest.raises(ValueError):
            analysis.upper_bound(hs, 0, 4, 1, 1, 1.0)
        with pytest.raises(ValueError):
            analysis.upper_bound(hs, 3, 4, 1, 1, -1.0)
        for bound in (analysis.upper_bound, analysis.upper_bound_unit_box):
            for lipschitz in (math.nan, math.inf, 1e308):  # 1e308 overflows L*d
                with pytest.raises(ValueError):
                    bound(hs, 3, 4, 1, 2, lipschitz)


class TestVcShape:
    def test_in_unit_interval_and_growing(self):
        ds = [5, 10, 20, 50, 100]
        vals = [analysis.vc_lower_bound_shape(3, 64, 2 * d + 1, d, 1.0) for d in ds]
        assert all(0.0 < v < 1.0 for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_log_domain_reduction(self):
        # brute-force the defining expression at small arguments
        k, g, n, d, alpha = 2, 3, 4, 2, 0.8
        p = g + k - 1
        base = n * p * (d + 1) * (d + n + 1) * math.log((d + 1) * p)
        assert analysis.vc_lower_bound_shape(k, g, n, d, alpha) == pytest.approx(
            base ** (-alpha / d), rel=1e-12)

    def test_huge_arguments_do_not_overflow(self):
        v = analysis.vc_lower_bound_shape(3, 10 ** 6, 10 ** 9, 10 ** 6, 1.0)
        assert 0.0 < v < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            analysis.vc_lower_bound_shape(3, 64, 5, 2, 0.0)


def test_piece_count():
    assert analysis.piece_count(3, 64) == (66, 67)
    assert analysis.piece_count(1, 1) == (1, 2)
    with pytest.raises(ValueError):
        analysis.piece_count(0, 4)


def test_bounds_report_is_consistent():
    hs = HolderSpec(alpha=0.9, lam=1.1, radius=2.0)
    rep = analysis.bounds_report(hs, 3, 16, 5, 2, 1.5)
    assert rep.upper_bound == analysis.upper_bound(hs, 3, 16, 5, 2, 1.5)
    assert rep.upper_bound_unit_box == analysis.upper_bound_unit_box(hs, 3, 16, 5, 2, 1.5)
    assert rep.vc_shape == analysis.vc_lower_bound_shape(3, 16, 5, 2, 0.9)
    assert rep.inputs["P_pieces"] == 18 and rep.inputs["basis_count"] == 19
    assert "unknown constant" in rep.notes


class TestLipschitzEstimate:
    def test_zero_network(self):
        net = kan.init_network(2, 2, hidden=3, seed=0)
        kan.set_params(net, np.zeros(net.n_params))
        assert analysis.lipschitz_estimate(net) == 0.0

    def test_scales_with_outer_coefficients(self):
        net = kan.init_network(2, 2, hidden=3, intervals=8, seed=1)
        base = analysis.lipschitz_estimate(net)
        net = replace(net, outer_coeffs=net.outer_coeffs * 3.0)
        assert analysis.lipschitz_estimate(net) == pytest.approx(3.0 * base, rel=1e-12)

    def test_dominates_observed_quotients(self):
        net = kan.init_network(2, 2, hidden=4, intervals=8, seed=5)
        est = analysis.lipschitz_estimate(net)
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(200, 2))
        y = rng.uniform(0, 1, size=(200, 2))
        fx, fy = kan.forward(net, x), kan.forward(net, y)
        quot = np.linalg.norm(fx - fy, axis=1) / np.linalg.norm(x - y, axis=1)
        assert np.max(quot) <= est * (1 + 1e-9)

    def test_bounds_euclidean_quotient_of_equal_outputs(self):
        # two equal outputs make ||dy||_2 = sqrt(2) |dy_0|, which a bound
        # on the max-norm quotient misses; the starting network is affine,
        # so the Euclidean bound is attained up to rounding
        net = kan.init_network(1, 2, hidden=1, intervals=4, seed=0)
        net.outer_coeffs[1] = net.outer_coeffs[0]
        x = np.linspace(0.0, 1.0, 2001)[:, None]
        y = kan.forward(net, x)
        quot = np.linalg.norm(np.diff(y, axis=0), axis=1) / np.diff(x[:, 0])
        assert np.max(quot) <= analysis.lipschitz_estimate(net) * (1 + 1e-9)


class TestGronwallStudy:
    def test_identical_fields_have_zero_gap(self):
        field = lambda y: np.array([-y[1], y[0]])  # noqa: E731
        pairs = analysis.gronwall_study(field, field, [1.0, 0.0], [0.5, 1.0, 2.0])
        assert [t for t, _ in pairs] == [0.5, 1.0, 2.0]
        assert all(e == 0.0 for _, e in pairs)

    def test_constant_field_gap_grows_linearly(self):
        a = lambda y: np.array([1.0, 0.0])  # noqa: E731
        b = lambda y: np.array([0.5, 0.0])  # noqa: E731
        pairs = analysis.gronwall_study(a, b, [0.0, 0.0], [1.0, 2.0, 4.0])
        for t, e in pairs:
            assert e == pytest.approx(0.5 * t, rel=1e-10)

    def test_horizons_are_sorted(self):
        field = lambda y: np.zeros(1)  # noqa: E731
        pairs = analysis.gronwall_study(field, field, [0.0], [3.0, 1.0, 2.0])
        assert [t for t, _ in pairs] == [1.0, 2.0, 3.0]

    def test_repeated_horizon_repeats_its_row(self):
        a = lambda y: np.array([-y[1], y[0]])  # noqa: E731
        b = lambda y: np.array([-1.1 * y[1], y[0]])  # noqa: E731
        pairs = analysis.gronwall_study(a, b, [1.0, 0.0], [2.0, 1.0, 2.0, 3.0])
        assert pairs[1] == pairs[2]
        assert pairs[:2] + pairs[3:] == analysis.gronwall_study(a, b, [1.0, 0.0], [1.0, 2.0, 3.0])

    def test_network_model_accepted(self):
        net = kan.init_network(2, 2, hidden=2, intervals=4, seed=3)
        as_field = lambda y: kan.forward(net, y)  # noqa: E731
        pairs = analysis.gronwall_study(net, as_field, [0.5, 0.5], [0.25, 0.5])
        assert all(e <= 1e-13 for _, e in pairs)

    def test_validation(self):
        field = lambda y: np.zeros(1)  # noqa: E731
        with pytest.raises(ValueError):
            analysis.gronwall_study(field, field, [0.0], [])
        with pytest.raises(ValueError):
            analysis.gronwall_study(field, field, [0.0], [-1.0, 2.0])


def test_fit_log_linear_recovers_exponential():
    xs = np.array([1.0, 2.0, 3.0, 4.0])
    ys = 5.0 * np.exp(2.0 * xs)
    slope, corr = analysis.fit_log_linear(xs, ys)
    assert slope == pytest.approx(2.0, rel=1e-12)
    assert corr == pytest.approx(1.0, abs=1e-12)
