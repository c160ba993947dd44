"""Residual-loss and trainer tests.

The vectorized losses are checked against a scalar-loop oracle and,
bit for bit, against A_h as a scipy CSR matrix, their gradients against
central differences, and the zero of the augmented
loss against the grid values recovered by the exact linear solve (two
independent routes to the same minimizer).
"""
import numpy as np
import numpy.testing as npt
import pytest
from scipy import sparse

from kanlmm import discovery, kan, lmm, odeint, systems, training
from kanlmm.analysis import l2_seminorm
from kanlmm.odeint import Trajectory


def linear_trajectory(h: float, t1: float = 1.0) -> Trajectory:
    sysd = systems.linear_system()
    n = round(t1 / h)
    ts = np.arange(n + 1) * h
    return Trajectory(t0=0.0, h=h, states=sysd.solution(ts))


def naive_loss(scheme: lmm.LmmScheme, traj: Trajectory, u: np.ndarray, kind: str) -> float:
    """Scalar-loop rewrite of the mean squared residual."""
    m, n1, h = scheme.steps, traj.n_steps, traj.h
    x = traj.states
    total = 0.0
    for n in range(m, n1 + 1):
        r = sum(scheme.beta[mm] * u[n - mm] for mm in range(m + 1))
        r -= sum(scheme.alpha[mm] * x[n - mm] for mm in range(m + 1)) / h
        total += float(np.sum(r ** 2))
    if kind == "jh":
        return total / (n1 - m + 1)
    w = lmm.index_window(scheme, n1)
    mu = lmm.fdm_coefficients(scheme.order)
    for n in range(w.r, w.r + w.aux_count):
        c = mu @ x[n : n + scheme.order + 1] / h
        total += float(np.sum((u[n] - c) ** 2))
    return total / w.tau


@pytest.mark.parametrize("family,steps", [("am", 1), ("ab", 2), ("bdf", 3)])
@pytest.mark.parametrize("kind", ["jh", "jah"])
def test_loss_matches_scalar_loop(family, steps, kind):
    traj = linear_trajectory(0.05)
    sch = lmm.scheme(family, steps)
    stencil = training.ResidualStencil(sch, traj, kind)
    u = np.random.default_rng(3).standard_normal(traj.states.shape)
    got, _ = stencil.loss_and_grad(u)
    assert got == pytest.approx(naive_loss(sch, traj, u, kind), rel=1e-12)


@pytest.mark.parametrize("family,steps,kind", [
    ("am", 1, "jah"), ("ab", 2, "jh"), ("bdf", 2, "jah"),
])
def test_loss_gradient_matches_central_differences(family, steps, kind):
    traj = linear_trajectory(0.1)
    sch = lmm.scheme(family, steps)
    stencil = training.ResidualStencil(sch, traj, kind)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(traj.states.shape)
    _, grad = stencil.loss_and_grad(u)
    eps = 1e-6
    fd = np.zeros_like(u)
    for idx in np.ndindex(u.shape):
        up, down = u.copy(), u.copy()
        up[idx] += eps
        down[idx] -= eps
        fd[idx] = (stencil.loss_and_grad(up)[0] - stencil.loss_and_grad(down)[0]) / (2 * eps)
    npt.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)


def test_exact_grid_values_zero_the_augmented_loss():
    # grid values from the banded solve satisfy every residual row, so
    # they must be (up to rounding) the exact minimizer of J_ah
    traj = linear_trajectory(0.01)
    sch = lmm.scheme("am", 1)
    u = discovery.solve_grid_values(lmm.grid_system(sch, traj))  # window 0..n1
    stencil = training.ResidualStencil(sch, traj, "jah")
    assert stencil.loss_and_grad(u)[0] < 1e-18


@pytest.mark.parametrize("family,steps", [("am", 1), ("ab", 3), ("bdf", 2)])
def test_stencil_reads_the_one_grid_system(family, steps, dense_a_h):
    traj = linear_trajectory(0.05)
    sch = lmm.scheme(family, steps)
    u = np.random.default_rng(steps).standard_normal(traj.states.shape)
    for kind, startup in (("jah", True), ("jh", False)):
        stencil = training.ResidualStencil(sch, traj, kind)
        system = lmm.grid_system(sch, traj, startup=startup)
        assert stencil.window == system.window
        npt.assert_array_equal(stencil.rhs, system.rhs)
        # the residual of the dense A_h (its band rows alone for J_h)
        w = system.window
        a = dense_a_h(sch, traj.n_steps)[w.tau - system.rhs.shape[0]:]
        res = a @ u[w.r : w.q + 1] - system.rhs
        loss, grad = stencil.loss_and_grad(u)
        npt.assert_allclose(loss, np.sum(res ** 2) / len(res), rtol=1e-12)
        npt.assert_allclose(grad[w.r : w.q + 1], 2.0 / len(res) * (a.T @ res),
                            rtol=1e-12, atol=1e-14)
        npt.assert_array_equal(grad[: w.r], 0.0)
        npt.assert_array_equal(grad[w.q + 1:], 0.0)


def _csr_loss_and_grad(sch, traj, kind, u):
    """J_h / J_ah and gradient through A_h as a scipy CSR matrix: the band
    storage read as DIA and converted, with the CSR transpose copy."""
    w = lmm.index_window(sch, traj.n_steps)
    bands = lmm.system_bands(sch, w.tau)
    a = sparse.dia_array((bands, -np.arange(len(bands))), shape=(w.tau, w.tau)).tocsr()
    system = lmm.grid_system(sch, traj, startup=kind == "jah")
    if kind == "jh":
        a = a[w.aux_count:]
    res = a @ u[w.r : w.q + 1] - system.rhs
    grad = np.zeros_like(u)
    grad[w.r : w.q + 1] = (2.0 / res.shape[0]) * (a.T.tocsr() @ res)
    return float(np.sum(res ** 2)) / res.shape[0], grad, a


@pytest.mark.parametrize("family", lmm.FAMILIES)
@pytest.mark.parametrize("steps", range(1, 7))
def test_loss_and_grad_match_csr_product_bitwise(family, steps, dense_a_h):
    traj = linear_trajectory(0.02)
    sch = lmm.scheme(family, steps)
    u = np.random.default_rng(steps).standard_normal(traj.states.shape)
    for kind in training.LOSS_KINDS:
        loss, grad, a = _csr_loss_and_grad(sch, traj, kind, u)
        dense = dense_a_h(sch, traj.n_steps)
        npt.assert_array_equal(a.toarray(), dense[dense.shape[0] - a.shape[0]:])
        got_loss, got_grad = training.ResidualStencil(sch, traj, kind).loss_and_grad(u)
        assert got_loss == loss
        assert got_grad.tobytes() == grad.tobytes()  # sign bits included


def test_true_field_sits_at_truncation_floor():
    traj = linear_trajectory(0.01)
    sysd = systems.linear_system()
    u = np.apply_along_axis(sysd.field, 1, traj.states)
    sch = lmm.scheme("am", 1)
    stencil = training.ResidualStencil(sch, traj, "jah")
    # trapezoid truncation ~ h^2 |x'''| / 12 per row, squared and averaged
    assert 0.0 < stencil.loss_and_grad(u)[0] < 1e-6


def test_input_range_margins():
    states = np.array([[0.0, 5.0], [2.0, 5.0], [1.0, 5.0]])
    rng = training.input_range_from_states(states)
    npt.assert_allclose(rng[0], [-0.1, 2.1], atol=1e-15)
    # flat coordinate widens by a fixed half-unit pad
    npt.assert_array_equal(rng[1], [4.5, 5.5])


class TestStencilValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError, match="loss kind"):
            training.ResidualStencil(lmm.scheme("am", 1), linear_trajectory(0.5), "mse")

    def test_short_trajectory(self):
        traj = linear_trajectory(0.5)  # n1 = 2
        with pytest.raises(ValueError, match="too short: need n1 >= steps = 3, got 2"):
            training.ResidualStencil(lmm.scheme("bdf", 3), traj, "jh")
        # jah additionally needs room for the one-sided difference rows
        with pytest.raises(ValueError, match=r"too short: need n1 >= steps \+ order = 5, got 2"):
            training.ResidualStencil(lmm.scheme("am", 2), traj, "jah")


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": 0.0},
        {"learning_rate": -1.0},
        {"iterations": -1},
        {"loss_kind": "l2"},
        {"beta1": 1.0},
        {"beta2": -0.1},
        {"epsilon": 0.0},
        {"learning_rate": float("nan")},
        {"epsilon": float("inf")},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            training.TrainConfig(**kwargs)

    def test_defaults_are_valid(self):
        cfg = training.TrainConfig()
        assert cfg.family == "am" and cfg.steps == 1
        assert cfg.loss_kind == "jah"


def tiny_config(**overrides):
    defaults = dict(family="am", steps=1, degree=3, intervals=4, hidden=2,
                    learning_rate=0.05, iterations=40, seed=1)
    defaults.update(overrides)
    return training.TrainConfig(**defaults)


class TestTrain:
    def test_loss_decreases_and_best_is_returned(self):
        traj = linear_trajectory(0.02)
        net, rep = training.train(tiny_config(), traj)
        assert rep.loss_trace.shape == (40,)
        assert rep.best_loss < rep.loss_trace[0]
        assert rep.best_loss <= rep.final_loss
        assert rep.best_loss == pytest.approx(
            min(rep.loss_trace.min(), rep.final_loss), rel=1e-15)
        # the returned network carries the best iterate
        sch = lmm.scheme("am", 1)
        stencil = training.ResidualStencil(sch, traj, "jah")
        loss, _ = stencil.loss_and_grad(kan.forward(net, traj.states))
        assert loss == pytest.approx(rep.best_loss, rel=1e-12)

    def test_bitwise_deterministic(self):
        traj = linear_trajectory(0.02)
        net_a, rep_a = training.train(tiny_config(), traj)
        net_b, rep_b = training.train(tiny_config(), traj)
        npt.assert_array_equal(kan.get_params(net_a), kan.get_params(net_b))
        npt.assert_array_equal(rep_a.loss_trace, rep_b.loss_trace)
        assert rep_a.final_loss == rep_b.final_loss

    @pytest.mark.parametrize("block", [None, 5])
    def test_in_place_adam_matches_out_of_place_loop(self, block, monkeypatch):
        if block is not None:  # blocks that split both layers unevenly
            monkeypatch.setattr(training, "ADAM_BLOCK", block)
        traj = linear_trajectory(0.02)
        # G * d_in = 10 is no power of two, so the inner step's rounding
        # depends on the order of its factors
        cfg = tiny_config(iterations=5, intervals=5)
        net, rep = training.train(cfg, traj)
        assert rep.best_iteration == 5  # the returned network is the last iterate
        # plain Adam, one fresh array per operation
        start = kan.init_network(
            2, 2, hidden=2, degree=3, intervals=5,
            input_range=training.input_range_from_states(traj.states), seed=1)
        stencil = training.ResidualStencil(lmm.scheme("am", 1), traj, "jah")
        ev = kan.BatchEvaluator(start, traj.states)
        n_inner = start.inner_coeffs.size
        params = kan.get_params(start)
        step = np.full(params.shape, cfg.learning_rate)
        step[:n_inner] *= (start.hidden_hi - start.hidden_lo) / (cfg.intervals * 2)
        m = np.zeros_like(params)
        v = np.zeros_like(params)
        trace = []
        for t in range(1, cfg.iterations + 1):
            inner = params[:n_inner].reshape(start.inner_coeffs.shape)
            outer = params[n_inner:].reshape(start.outer_coeffs.shape)
            loss, grad_u = stencil.loss_and_grad(ev.forward(inner, outer))
            trace.append(loss)
            g_inner, g_outer = ev.backward(outer, grad_u)
            g = np.concatenate([g_inner.ravel(), g_outer.ravel()])
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
            m_hat = m / (1.0 - cfg.beta1 ** t)
            v_hat = v / (1.0 - cfg.beta2 ** t)
            params = params - step * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
        npt.assert_array_equal(rep.loss_trace, trace)
        npt.assert_array_equal(kan.get_params(net), params)

    @pytest.mark.parametrize("lr", [0.05, 3.0])
    def test_report_uses_outputs_of_returned_network(self, lr):
        traj = linear_trajectory(0.02)
        sysd = systems.linear_system()
        net, rep = training.train(tiny_config(learning_rate=lr, iterations=12), traj,
                                  true_field=sysd.field)
        for coeffs in (net.inner_coeffs, net.outer_coeffs):  # flat_view demands output-minor
            assert np.shares_memory(kan.flat_view(coeffs), coeffs)
        # overshooting steps leave the best iterate before the last
        assert (rep.best_iteration < 12) == (lr > 1.0)
        w = lmm.index_window(lmm.scheme("am", 1), traj.n_steps)
        sl = slice(w.r, w.q + 1)
        err = kan.forward(net, traj.states)[sl] - np.apply_along_axis(sysd.field, 1,
                                                                       traj.states)[sl]
        assert rep.seminorm_error == l2_seminorm(np.linalg.norm(err, axis=1))
        assert rep.seminorm_error_components == [l2_seminorm(err[:, c]) for c in range(2)]

    def test_report_matches_a_per_state_reference_over_many_blocks(self):
        # opinion at d = 50 gives the field 13 rows per block, so the
        # report's error comes from several blocks and a ragged last one
        sysd = systems.opinion_system(dim=50, seed=0, t_train=(0.0, 0.5))
        traj = odeint.integrate(sysd.field, sysd.x0, 0.0, 0.5, 0.01)
        cfg = tiny_config(intervals=8, hidden=5, iterations=3)
        net, rep = training.train(cfg, traj, true_field=sysd.field)
        w = lmm.index_window(lmm.scheme("am", 1), traj.n_steps)
        sl = slice(w.r, w.q + 1)
        per_state = np.array([sysd.field(s) for s in traj.states[sl]])
        err = kan.forward(net, traj.states)[sl] - per_state
        assert rep.seminorm_error == l2_seminorm(np.linalg.norm(err, axis=1))
        assert rep.seminorm_error_components == [l2_seminorm(err[:, c]) for c in range(50)]

    def test_zero_iterations_returns_initialization(self):
        traj = linear_trajectory(0.02)
        cfg = tiny_config(iterations=0)
        net, rep = training.train(cfg, traj)
        reference = kan.init_network(
            2, 2, hidden=2, degree=3, intervals=4,
            input_range=training.input_range_from_states(traj.states), seed=1)
        npt.assert_array_equal(kan.get_params(net), kan.get_params(reference))
        assert rep.loss_trace.shape == (0,)
        assert rep.best_iteration == 0
        assert rep.final_loss == rep.best_loss

    def test_inner_step_moves_hidden_sums_at_most_lr_outer_intervals(self):
        traj = linear_trajectory(0.02)
        cfg = tiny_config(intervals=16, hidden=3, learning_rate=0.3, iterations=1)
        net, rep = training.train(cfg, traj)
        assert rep.best_iteration == 1  # the returned network is the stepped one
        start = kan.init_network(
            2, 2, hidden=3, degree=3, intervals=16,
            input_range=training.input_range_from_states(traj.states), seed=1)
        ev = kan.BatchEvaluator(start, traj.states)
        moved = ev.hidden_sums(net.inner_coeffs - start.inner_coeffs)
        interval = (start.hidden_hi - start.hidden_lo) / cfg.intervals
        assert np.max(np.abs(moved)) > 0.1 * cfg.learning_rate * interval
        assert np.max(np.abs(moved)) <= cfg.learning_rate * interval * (1 + 1e-12)

    def test_seed_changes_outcome(self):
        traj = linear_trajectory(0.02)
        net_a, _ = training.train(tiny_config(seed=1), traj)
        net_b, _ = training.train(tiny_config(seed=2), traj)
        assert not np.array_equal(kan.get_params(net_a), kan.get_params(net_b))

    def test_divergence_guard(self):
        traj = linear_trajectory(0.02)
        with pytest.raises(training.TrainingDivergedError):
            training.train(tiny_config(learning_rate=1e8, iterations=60), traj)

    def test_seminorm_reporting(self):
        traj = linear_trajectory(0.02)
        sysd = systems.linear_system()
        _, rep = training.train(tiny_config(), traj, true_field=sysd.field)
        assert rep.seminorm_error is not None and rep.seminorm_error > 0
        assert len(rep.seminorm_error_components) == 2
        comps = np.array(rep.seminorm_error_components)
        assert rep.seminorm_error == pytest.approx(np.sqrt(np.sum(comps ** 2)), rel=1e-12)
        _, rep_plain = training.train(tiny_config(), traj)
        assert rep_plain.seminorm_error is None

    def test_config_recorded_in_report(self):
        traj = linear_trajectory(0.05)
        cfg = tiny_config(iterations=3)
        _, rep = training.train(cfg, traj)
        assert rep.config["learning_rate"] == cfg.learning_rate
        assert rep.config["intervals"] == 4
        assert rep.seed == cfg.seed

