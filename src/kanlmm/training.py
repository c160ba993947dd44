"""Multistep residual losses over a spline network and full-batch Adam.

Both losses are least-squares residuals of the grid-value system
A_h u = [c; b] that ``lmm.grid_system`` builds.  The plain loss J_h is
the mean squared residual of the band rows, ||B_h u - b||^2 / rows, with
u the network values over the index window and b the (1/h) alpha
combination of the data.  The augmented loss J_ah is
||A_h u - [c; b]||^2 / tau: its identity rows C pin the earliest window
values to one-sided difference estimates c, so its minimizer is unique
because A_h is invertible, and it is the grid-value solution that
``discovery`` recovers from the same system by one banded triangular
solve.  The output-space gradient is (2 / norm) A^T (A u - rhs), and
the coefficient gradient follows from one backward pass.

Training is deterministic: full-batch gradients, a seeded initializer,
and a fixed summation order; a given (config, trajectory) pair always
produces bitwise-identical parameters.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np
import numpy.typing as npt

from . import kan, lmm
from .analysis import l2_seminorm
from .kan import BatchEvaluator, KanNetwork
from .lmm import LmmScheme
from .odeint import Trajectory
from .systems import field_rows

Array = npt.NDArray[np.float64]

LOSS_KINDS = ("jh", "jah")
INPUT_MARGIN = 0.05
DIVERGENCE_LIMIT = 1e12
# Adam updates parameters in blocks of this many entries, so that the six
# arrays one block touches (1.5 MB) stay in a core's cache between passes.
ADAM_BLOCK = 1 << 15


class TrainingDivergedError(RuntimeError):
    """Loss blew past the divergence guard; carries the iteration index."""

    def __init__(self, iteration: int, loss: float):
        super().__init__(f"loss diverged at iteration {iteration}: {loss!r}")
        self.iteration = iteration
        self.loss = loss


@dataclass
class TrainConfig:
    """Hyperparameters for one training run.

    ``iterations = 0`` is allowed and returns the freshly initialized
    network, which makes initialization effects observable.
    """

    family: str = "am"
    steps: int = 1
    degree: int = 3
    intervals: int = 64
    hidden: int | None = None
    learning_rate: float = 0.01
    iterations: int = 2200
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0
    loss_kind: str = "jah"

    def __post_init__(self):
        for name in ("learning_rate", "beta1", "beta2", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("adam betas must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


@dataclass
class TrainReport:
    """What happened during a run, sufficient to reproduce and to judge it."""

    loss_trace: Array
    final_loss: float
    best_loss: float
    best_iteration: int
    wall_clock_s: float
    seed: int
    config: dict = field(default_factory=dict)
    seminorm_error: float | None = None
    seminorm_error_components: list | None = None


class ResidualStencil:
    """J_h / J_ah for one (scheme, trajectory) pair as a least-squares residual.

    Exposes the loss and its gradient with respect to the network values
    U[n] ~ u(x_n) stacked over every grid state.  The residual is
    A_h U[r..q] - rhs (``lmm.apply_system``) with ``rhs`` that of
    ``lmm.grid_system``: J_ah uses every row, J_h only the band rows B_h
    and b (``startup=False``); its start-up rows are zero.
    """

    def __init__(self, scheme: LmmScheme, traj: Trajectory, kind: str):
        if kind not in LOSS_KINDS:
            raise ValueError(f"loss kind must be one of {LOSS_KINDS}, got {kind!r}")
        system = lmm.grid_system(scheme, traj, startup=kind == "jah")
        self.scheme = scheme
        self.window = system.window
        self.rhs = system.rhs
        self.skip = self.window.tau - self.rhs.shape[0]  # start-up rows J_h leaves out
        self.norm = float(self.rhs.shape[0])

    def loss_and_grad(self, u: Array) -> tuple[float, Array]:
        columns = self.window.columns
        res = lmm.apply_system(self.scheme, u[columns])
        res[: self.skip] = 0.0
        res[self.skip :] -= self.rhs
        grad = np.zeros_like(u)
        np.multiply(2.0 / self.norm, lmm.apply_system_t(self.scheme, res), out=grad[columns])
        return float(np.sum(res[self.skip :] ** 2)) / self.norm, grad


def input_range_from_states(states: Array) -> Array:
    """Per-coordinate (lo, hi) of the data, padded by ``INPUT_MARGIN`` of the span."""
    lo = states.min(axis=0)
    hi = states.max(axis=0)
    span = hi - lo
    flat = span < 1e-12
    pad = np.where(flat, 0.5, INPUT_MARGIN * span)
    return np.column_stack([lo - pad, hi + pad])


def _adam_block(p: Array, m: Array, v: Array, g: Array, step: float, c1: float, c2: float,
                config: TrainConfig, num: Array, den: Array) -> None:
    """One bias-corrected Adam update of ``p``, ``m`` and ``v`` in place.

    ``num`` and ``den`` are scratch.  The operations round exactly as
    m = (b1*m) + ((1-b1)*g), v = (b2*v) + (((1-b2)*g)*g) and
    p = p - (step*(m/c1)) / (sqrt(v/c2) + eps) do.
    """
    m *= config.beta1
    m += np.multiply(1.0 - config.beta1, g, out=num)
    v *= config.beta2
    np.multiply(1.0 - config.beta2, g, out=num)
    v += np.multiply(num, g, out=num)
    np.divide(m, c1, out=num)
    num *= step
    np.divide(v, c2, out=den)
    np.sqrt(den, out=den)
    den += config.epsilon
    p -= np.divide(num, den, out=num)


def train(config: TrainConfig, traj: Trajectory,
          true_field=None) -> tuple[KanNetwork, TrainReport]:
    """Fit a network to one trajectory by Adam on the selected residual loss.

    Full-batch gradients, fixed learning rate, bias-corrected first and
    second moments; the returned network carries the best-loss iterate
    seen during the run (initialization included).  The Adam step of the
    inner coefficients is multiplied by (hidden_hi - hidden_lo) / (G * d_in),
    one outer-grid interval shared among the inputs.  The inner basis is a
    partition of unity, so a step whose normalized size m_hat / sqrt(v_hat)
    is at most 1 in every coefficient (as on the first iteration) moves
    each hidden sum by at most ``learning_rate`` outer-grid intervals.  When ``true_field``
    is given, the report also carries the windowed root-mean-square gap
    between the learned and true fields at the grid states.  Like every
    ``systems`` field, ``true_field`` must map a batch of states (m, d)
    to their derivatives (m, d): ``systems.field_rows`` calls it once per
    block of grid states.

    Adam updates the network's own coefficients in place, through
    ``kan.flat_view``, and reads each gradient of the backward pass where
    it lies.  Adam is elementwise, so the memory order (see ``kan``) does
    not change its bits, and ``kan.get_params`` order is unchanged.
    """
    t_start = time.perf_counter()
    scheme = lmm.scheme(config.family, config.steps)
    stencil = ResidualStencil(scheme, traj, config.loss_kind)

    net = kan.init_network(
        d_in=traj.dim,
        d_out=traj.dim,
        hidden=config.hidden,
        degree=config.degree,
        intervals=config.intervals,
        input_range=input_range_from_states(traj.states),
        seed=config.seed,
    )
    evaluator = BatchEvaluator(net, traj.states)
    params = (kan.flat_view(net.inner_coeffs), kan.flat_view(net.outer_coeffs))
    lr = config.learning_rate
    steps = (lr * ((net.hidden_hi - net.hidden_lo) / (net.intervals * net.d_in)), lr)
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    scratch = np.empty((2, min(ADAM_BLOCK, max(p.size for p in params))))
    trace = np.zeros(config.iterations)
    best_loss = np.inf
    best_params = [p.copy() for p in params]
    best_iteration = 0

    # The guard reports overflow; the last pass only evaluates the final iterate.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(config.iterations + 1):
            u = evaluator.forward(net.inner_coeffs, net.outer_coeffs)
            loss, grad_u = stencil.loss_and_grad(u)
            if not np.isfinite(loss) or loss > DIVERGENCE_LIMIT:
                raise TrainingDivergedError(it, loss)
            if loss < best_loss:
                best_loss = loss
                for best, p in zip(best_params, params):
                    np.copyto(best, p)
                best_u = u
                best_iteration = it
            if it == config.iterations:
                break
            trace[it] = loss
            grads = [kan.flat_view(g) for g in evaluator.backward(net.outer_coeffs, grad_u)]
            t = it + 1
            c1, c2 = 1.0 - config.beta1 ** t, 1.0 - config.beta2 ** t
            for p, m, v, g, step in zip(params, m_state, v_state, grads, steps):
                for lo in range(0, p.size, ADAM_BLOCK):
                    sl = slice(lo, lo + ADAM_BLOCK)
                    n = p[sl].size
                    _adam_block(p[sl], m[sl], v[sl], g[sl], step, c1, c2,
                                config, scratch[0, :n], scratch[1, :n])
            del grads, g  # free this iteration's gradients before the next backward allocates
    final_loss = loss

    for best, p in zip(best_params, params):
        np.copyto(p, best)
    report = TrainReport(
        loss_trace=trace,
        final_loss=final_loss,
        best_loss=float(best_loss),
        best_iteration=best_iteration,
        wall_clock_s=time.perf_counter() - t_start,
        seed=config.seed,
        config=asdict(config),
    )
    if true_field is not None:
        sl = stencil.window.columns
        err = best_u[sl] - field_rows(true_field, traj.states[sl])
        report.seminorm_error = l2_seminorm(np.linalg.norm(err, axis=1))
        report.seminorm_error_components = [l2_seminorm(err[:, c]) for c in range(err.shape[1])]
    return net, report

