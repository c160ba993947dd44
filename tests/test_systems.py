"""Benchmark system definitions: fields, closed forms, and parameters."""
import numpy as np
import numpy.testing as npt
import pytest

from kanlmm import odeint, systems


class TestLinearSystem:
    def setup_method(self):
        self.sysd = systems.linear_system()

    def test_metadata(self):
        assert self.sysd.name == "linear"
        assert self.sysd.dim == 2
        npt.assert_array_equal(self.sysd.x0, [0.0, 1.0])
        assert self.sysd.t_train == (0.0, 1.0)

    def test_field_values(self):
        npt.assert_array_equal(self.sysd.field(np.array([1.0, 2.0])), [8.0, -8.0])
        npt.assert_array_equal(self.sysd.field(np.array([0.0, 0.0])), [0.0, 0.0])

    def test_solution_satisfies_ode(self):
        # analytic derivative of the closed form equals the field exactly
        ts = np.linspace(0.0, 1.0, 23)
        x = self.sysd.solution(ts)
        dx = np.column_stack([np.exp(2 * ts) + 2 * np.exp(-4 * ts), -4 * np.exp(-4 * ts)])
        fx = np.apply_along_axis(self.sysd.field, 1, x)
        npt.assert_allclose(fx, dx, rtol=1e-13, atol=1e-13)

    def test_solution_starts_at_x0(self):
        npt.assert_allclose(self.sysd.solution(np.array([0.0]))[0], self.sysd.x0, atol=1e-15)


class TestGlycolyticSystem:
    def test_parameter_table(self):
        assert systems.GLYCOLYTIC_PARAMS == {
            "J0": 2.5, "k1": 100.0, "k2": 6.0, "k3": 16.0, "k4": 100.0,
            "k5": 1.28, "k6": 12.0, "k7": 1.8, "kappa": 13.0, "q": 4.0,
            "K1": 0.52, "psi": 0.1, "N": 1.0, "A": 4.0,
        }
        assert systems.GLYCOLYTIC_X0 == (1.125, 0.95, 0.075, 0.16, 0.265, 0.7, 0.092)

    def test_field_matches_independent_rewrite(self):
        sysd = systems.glycolytic_system()
        p = systems.GLYCOLYTIC_PARAMS
        rng = np.random.default_rng(1)
        for _ in range(10):
            s = rng.uniform(0.05, 2.0, 7)
            v1 = p["k1"] * s[0] * s[5] / (1 + (s[5] / p["K1"]) ** p["q"])
            v2 = p["k2"] * s[1] * (p["N"] - s[4])
            v3 = p["k3"] * s[2] * (p["A"] - s[5])
            expected = [
                p["J0"] - v1,
                2 * v1 - v2 - p["k6"] * s[1] * s[4],
                v2 - v3,
                v3 - p["k4"] * s[3] * s[4] - p["kappa"] * (s[3] - s[6]),
                v2 - p["k4"] * s[3] * s[4] - p["k6"] * s[1] * s[4],
                -2 * v1 + 2 * v3 - p["k5"] * s[5],
                p["psi"] * p["kappa"] * (s[3] - s[6]) - p["k7"] * s[6],
            ]
            npt.assert_allclose(sysd.field(s), expected, rtol=1e-14, atol=0.0)

    def test_field_at_initial_state(self):
        sysd = systems.glycolytic_system()
        f0 = sysd.field(sysd.x0)
        # hand-checked entries: dS3 = 6*0.95*0.735 - 16*0.075*3.3 and
        # dS7 = 0.1*13*(0.16-0.092) - 1.8*0.092
        assert f0[2] == pytest.approx(0.2295, abs=1e-12)
        assert f0[6] == pytest.approx(-0.0772, abs=1e-12)
        assert f0[0] == pytest.approx(2.5 - 78.75 / (1 + (0.7 / 0.52) ** 4), abs=1e-12)

    def test_short_trajectory_stays_positive(self):
        sysd = systems.glycolytic_system()
        traj = odeint.integrate(sysd.field, sysd.x0, 0.0, 2.0, 1e-2)
        assert np.min(traj.states) > 0.0


def adjacency_field(x: np.ndarray, alpha: float) -> np.ndarray:
    """The opinion field through an explicit row-normalized adjacency."""
    phi = (np.abs(x[None, :] - x[:, None]) <= 1.0).astype(np.float64)
    row = phi.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(row > 0.0, phi / row, 0.0)
    np.fill_diagonal(a, 0.0)
    return alpha * (a * (x[None, :] - x[:, None])).sum(axis=1)


class TestOpinionSystem:
    def test_interaction_rows_normalized(self):
        # weights [[.5, .5, 0], [.5, .5, 0], [0, 0, 1]]: the first two agents
        # meet halfway, the third sees only itself
        sysd = systems.opinion_system(dim=3)
        npt.assert_array_equal(sysd.field(np.array([0.0, 0.5, 3.0])), [0.25, -0.25, 0.0])

    @pytest.mark.parametrize("dim", [2, 8, 50])
    @pytest.mark.parametrize("alpha", [1.0, 0.7])
    def test_field_bits_match_adjacency_form(self, dim, alpha):
        sysd = systems.opinion_system(dim=dim, alpha=alpha)
        rng = np.random.default_rng(dim)
        states = ([rng.uniform(0.0, 10.0, dim) for _ in range(50)]
                  + [rng.uniform(0.0, 2.0, dim) for _ in range(50)]
                  + [np.full(dim, 4.2), np.full(dim, -1.5)])
        for x in states:
            got, want = sysd.field(x), adjacency_field(x, alpha)
            npt.assert_array_equal(got, want)
            npt.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_non_finite_state_gives_non_finite_field(self):
        sysd = systems.opinion_system(dim=4)
        for bad in (np.nan, np.inf):
            x = np.array([0.0, 0.5, bad, 3.0])
            with np.errstate(invalid="ignore", divide="ignore"):
                assert not np.all(np.isfinite(sysd.field(x)))

    def test_consensus_is_fixed_point(self):
        sysd = systems.opinion_system(dim=10, seed=3)
        npt.assert_array_equal(sysd.field(np.full(10, 4.2)), np.zeros(10))

    def test_field_is_translation_invariant(self):
        sysd = systems.opinion_system(dim=8, seed=1)
        rng = np.random.default_rng(2)
        x = rng.uniform(0.0, 10.0, 8)
        npt.assert_allclose(sysd.field(x + 3.7), sysd.field(x), atol=1e-12)

    def test_pair_attracts_symmetrically(self):
        sysd = systems.opinion_system(dim=2, alpha=2.0, seed=0)
        f = sysd.field(np.array([0.0, 1.0]))
        npt.assert_allclose(f, [1.0, -1.0])

    def test_seeded_initial_state_reproducible(self):
        a = systems.opinion_system(dim=50, seed=7)
        b = systems.opinion_system(dim=50, seed=7)
        npt.assert_array_equal(a.x0, b.x0)
        assert np.all(a.x0 >= 0.0) and np.all(a.x0 <= 10.0)
        c = systems.opinion_system(dim=50, seed=8)
        assert not np.array_equal(a.x0, c.x0)

    def test_component_count(self):
        assert systems.opinion_component_count(np.array([0.0, 1.0, 5.0])) == 2
        assert systems.opinion_component_count(np.array([0.0, 0.9, 1.8])) == 1
        assert systems.opinion_component_count(np.full(4, 2.0)) == 1
        assert systems.opinion_component_count(np.array([0.0, 2.0, 4.0, 6.0])) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            systems.opinion_system(dim=1)
        with pytest.raises(ValueError):
            systems.opinion_system(alpha=0.0)


def test_by_name_dispatch():
    assert systems.by_name("linear").name == "linear"
    assert systems.by_name("GLYCOLYTIC").dim == 7
    assert systems.by_name("opinion", dim=12, seed=4).dim == 12
    with pytest.raises(ValueError):
        systems.by_name("lorenz")


def trajectory_states(sysd, t1: float, h: float) -> np.ndarray:
    return odeint.integrate(sysd.field, sysd.x0, 0.0, t1, h).states


class TestBatchFields:
    """Every field takes an (m, d) batch; ``field_rows`` evaluates in blocks."""

    @pytest.mark.parametrize("name", ["linear", "opinion"])
    def test_rows_are_bitwise_the_per_state_field(self, name):
        sysd = systems.by_name(name)  # opinion: dim 50, seed 0
        rng = np.random.default_rng(4)
        states = np.vstack([trajectory_states(sysd, 1.0, 0.05),
                            rng.uniform(-3.0, 12.0, size=(40, sysd.dim)),
                            np.full((1, sysd.dim), 4.2)])
        want = np.array([sysd.field(s) for s in states])
        got = sysd.field(states)
        assert got.shape == states.shape
        npt.assert_array_equal(got, want)
        npt.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_opinion_consensus_batch_is_an_exact_zero(self):
        sysd = systems.opinion_system(dim=10, seed=3)
        states = np.full((3, 10), 4.2) + np.arange(3)[:, None]
        field = sysd.field(states)
        assert field.shape == (3, 10) and np.all(field == 0.0)

    def test_glycolytic_rows_match_to_rounding(self):
        # an array's ** rounds unlike a scalar's, so only the last bits may move
        sysd = systems.glycolytic_system()
        states = trajectory_states(sysd, 1.0, 0.01)
        want = np.array([sysd.field(s) for s in states])
        npt.assert_allclose(sysd.field(states), want, rtol=1e-13, atol=1e-13)

    # a block below d * d entries still passes one row per call
    @pytest.mark.parametrize("block, sizes", [(4 * 6 * 6 + 5, [4, 4, 4, 4, 4, 1]),
                                              (1, [1] * 21)])
    def test_field_rows_blocks_bound_the_rows_per_call(self, monkeypatch, block, sizes):
        sysd = systems.opinion_system(dim=6, seed=1)
        states = trajectory_states(sysd, 1.0, 0.05)  # 21 rows
        monkeypatch.setattr(systems, "FIELD_BLOCK", block)
        calls = []

        def field(x):
            calls.append(len(x))
            return sysd.field(x)

        got = systems.field_rows(field, states)
        assert calls == sizes
        npt.assert_array_equal(got, np.array([sysd.field(s) for s in states]))
