"""Recovery of vector-field grid values from a single trajectory.

For a multistep scheme the residual equations in the unknowns
u_n = f(x(t_n)) form a banded block B_h acting on the window n = r..q.
Squaring the system requires aux_count = len(stencil) - 1 extra rows;
these pin down the earliest unknowns with one-sided difference
approximations of the same order as the scheme.  Stacked as
A_h = [C; B_h], the system is lower triangular and every row below the
identity block C carries the same beta stencil, so solving it is a
linear recursive filter: the multistep right-hand side is the input and
the one-sided start-up values are the initial conditions (Keller & Du,
SINUM 59, 2021).  Grid values follow from scipy.signal.lfilter in
O(tau * steps) time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt
from scipy import sparse

from . import lmm
from .lmm import IndexWindow, LmmScheme
from .odeint import Trajectory

Array = npt.NDArray[np.float64]

DENSE_LIMIT = 2000


class ZeroDiagonalError(RuntimeError):
    """The recursive filter would divide by a (structurally) zero pivot."""


class SingularSystemError(RuntimeError):
    """The assembled system is numerically singular."""


@dataclass(frozen=True)
class GridSystem:
    """Assembled linear system A_h u = rhs for one state component.

    ``stencil`` holds the nonzero band of each multistep row in ascending
    column order, i.e. [beta_{m_max}, ..., beta_{m_min}]; multistep row i
    occupies columns i..i+len(stencil)-1 of the window.  ``lmm_rhs`` is
    the (1/h) alpha combination of the data and ``aux_rhs`` the one-sided
    difference values that make the system square.
    """

    scheme: LmmScheme
    window: IndexWindow
    h: float
    stencil: Array
    lmm_rhs: Array
    aux_rhs: Array

    @property
    def tau(self) -> int:
        return self.window.tau

    def matrix(self) -> sparse.csr_array:
        """A_h = [C; B_h] as a sparse (tau, tau) band."""
        rows = self.lmm_rhs.shape[0]
        width = self.stencil.shape[0]
        lmm_block = sparse.diags_array(list(self.stencil), offsets=range(width),
                                       shape=(rows, self.tau))
        aux_block = sparse.eye_array(self.window.aux_count, self.tau)
        return sparse.vstack([aux_block, lmm_block], format="csr")


def assemble(sch: LmmScheme, traj: Trajectory, component: int) -> GridSystem:
    """Build the grid-value system for one state component of a trajectory.

    Requires n1 >= steps + order so the one-sided difference rows fit
    inside the sampled window.
    """
    if not 0 <= component < traj.dim:
        raise ValueError(f"component {component} out of range for dim {traj.dim}")
    n1 = traj.n_steps
    if n1 < sch.steps + sch.order:
        raise ValueError(
            f"need n1 >= steps + order = {sch.steps + sch.order}, got {n1}"
        )
    b, c = lmm.data_terms(sch, traj.states[:, [component]], traj.h)
    m_min, m_max = sch.beta_support
    stencil = sch.beta[m_min : m_max + 1][::-1].copy()
    return GridSystem(scheme=sch, window=lmm.index_window(sch, n1), h=traj.h,
                      stencil=stencil, lmm_rhs=b[:, 0], aux_rhs=c[:, 0])


def _filter(system: GridSystem, lmm_rhs: Array, initial: Array) -> Array:
    """Solve the multistep rows for the unknowns after the first aux_count.

    Row i reads sum_j stencil[j] u[i + j] = lmm_rhs[i]; with y_i the
    newest unknown u[i + aux_count] this is the recursion
    sum_k stencil[-1 - k] y_{i-k} = lmm_rhs[i], started from the
    aux_count earlier values ``initial`` (oldest first).
    """
    # Importing scipy.signal adds about 23 MB of resident memory, so only
    # grid-value recovery pays for it, not every import of the package.
    from scipy.signal import lfilter, lfiltic

    a = system.stencil[::-1]
    if a[0] == 0.0:
        raise ZeroDiagonalError("trailing beta coefficient is zero")
    return lfilter([1.0], a, lmm_rhs, zi=lfiltic([1.0], a, initial[::-1]))[0]


def solve_grid_values(system: GridSystem) -> Array:
    """Grid values u_r..u_q: the auxiliary values, then the filter output."""
    return np.concatenate([system.aux_rhs, _filter(system, system.lmm_rhs, system.aux_rhs)])


def solve_all_components(sch: LmmScheme, traj: Trajectory) -> tuple[IndexWindow, Array]:
    """Grid values for every component, stacked as (tau, dim)."""
    cols = []
    window = None
    for c in range(traj.dim):
        system = assemble(sch, traj, c)
        window = system.window
        cols.append(solve_grid_values(system))
    return window, np.column_stack(cols)


def condition_number(system: GridSystem, dense_limit: int = DENSE_LIMIT) -> float:
    """Spectral condition number kappa_2(A_h).

    Systems of at most ``dense_limit`` unknowns go through a dense SVD.
    Larger ones get an estimate of the extreme singular values: power
    iteration on A^T A for the largest and on A^-1 A^-T for the smallest,
    whose solves are the recursive filter.  Power iteration approaches
    both from below, so the estimate can read low by about 1e-3 relative:
    AB-2 on 1001 samples reads 2.2337 with ``dense_limit=0`` against the
    dense 2.2361.
    """
    a = system.matrix()
    if system.tau <= dense_limit:
        svals = np.linalg.svd(a.toarray(), compute_uv=False)
        if svals[-1] <= 1e-14 * svals[0]:
            raise SingularSystemError("grid-value system is numerically singular")
        return float(svals[0] / svals[-1])

    aux = system.window.aux_count
    # A^T = [[I, B1^T], [0, B2^T]] with B2 the square Toeplitz part of B_h;
    # reversing both axes of B2^T gives B2 back, so B2^T solves are the
    # same filter run backwards from zero initial conditions.
    b1_t = a[aux:, :aux].T

    def solve(v: Array) -> Array:
        return np.concatenate([v[:aux], _filter(system, v[aux:], v[:aux])])

    def solve_t(v: Array) -> Array:
        body = _filter(system, v[aux:][::-1], np.zeros(aux))[::-1]
        return np.concatenate([v[:aux] - b1_t @ body, body])

    rng = np.random.default_rng(1234)
    sigma_max = _power_iterate(lambda v: a.T @ (a @ v), system.tau, rng)
    sigma_min_inv = _power_iterate(lambda v: solve(solve_t(v)), system.tau, rng)
    if not np.isfinite(sigma_min_inv) or sigma_min_inv <= 0:
        raise SingularSystemError("grid-value system is numerically singular")
    return float(np.sqrt(sigma_max) * np.sqrt(sigma_min_inv))


def _power_iterate(op, n: int, rng, iters: int = 200, tol: float = 1e-10) -> float:
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = op(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v_new = w / nw
        if abs(nw - lam) <= tol * max(nw, 1.0):
            return nw
        lam, v = nw, v_new
    return lam
