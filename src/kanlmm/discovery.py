"""Recovery of vector-field grid values from a single trajectory.

For a multistep scheme the residual equations in the unknowns
u_n = f(x(t_n)) form a banded block B_h acting on the window n = r..q.
Squaring the system requires aux_count = len(scheme.stencil) - 1 extra
rows; these pin down the earliest unknowns with one-sided difference
approximations of the same order as the scheme.  ``lmm.grid_system``
builds the stacked system A_h u = [c; b] once, for every component; its
least-squares residual is the training loss J_ah, so the grid values
solved here are that loss's exact minimizer.  A_h = [C; B_h] is lower
triangular and every row below the identity block C carries the same
beta stencil, so solving it is a linear recursive filter: the multistep
right-hand side b is the input and the one-sided start-up values c are
the initial conditions (Keller & Du, SINUM 59, 2021).  Grid values of
all components follow from one scipy.signal.lfilter call in
O(tau * steps * d) time, and ``condition_number`` reads the same matrix.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import numpy.typing as npt

from . import lmm
from .lmm import GridSystem, LmmScheme
from .odeint import Trajectory

Array = npt.NDArray[np.float64]

DENSE_LIMIT = 2000


class SingularSystemError(RuntimeError):
    """The assembled system is numerically singular."""


def assemble(sch: LmmScheme, traj: Trajectory, component: int) -> GridSystem:
    """``lmm.grid_system`` of a trajectory with only column ``component`` of [c; b].

    benchmark/layers.py is its only library caller; the CLI and the
    experiments solve every component of one ``lmm.grid_system`` at once,
    with the same bits.
    """
    if not 0 <= component < traj.dim:
        raise ValueError(f"component {component} out of range for dim {traj.dim}")
    system = lmm.grid_system(sch, traj.states, traj.h)
    return replace(system, rhs=system.rhs[:, [component]])


def _filter(stencil: Array, rhs: Array, initial: Array) -> Array:
    """Solve the multistep rows for the unknowns after the first aux_count.

    Row i reads sum_j stencil[j] u[i + j] = rhs[i]; with y_i the newest
    unknown u[i + aux_count] this is the recursion
    sum_k stencil[-1 - k] y_{i-k} = rhs[i], started from the aux_count
    earlier values ``initial`` (oldest first).  ``rhs`` and ``initial``
    hold one column per component.  The leading filter coefficient
    stencil[-1] = beta_{m_min} is nonzero by construction of
    ``LmmScheme.stencil``.
    """
    # Importing scipy.signal adds about 23 MB of resident memory, so only
    # grid-value recovery pays for it, not every import of the package.
    from scipy.signal import lfilter, lfiltic

    a = stencil[::-1]
    # lfiltic takes one output history at a time
    zi = np.array([lfiltic([1.0], a, col[::-1]) for col in initial.T]).T
    return lfilter([1.0], a, rhs, axis=0, zi=zi)[0]


def solve_grid_values(system: GridSystem) -> Array:
    """Grid values u_r..u_q, (tau, d): the start-up values c, then the filter output.

    ``system`` must hold its start-up rows (``lmm.grid_system``'s default).
    """
    aux = system.window.aux_count
    c, b = system.rhs[:aux], system.rhs[aux:]
    return np.concatenate([c, _filter(system.scheme.stencil, b, c)])


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
    a, tau, aux = system.matrix, system.window.tau, system.window.aux_count
    if tau <= dense_limit:
        svals = np.linalg.svd(a.toarray(), compute_uv=False)
        if svals[-1] <= 1e-14 * svals[0]:
            raise SingularSystemError("grid-value system is numerically singular")
        return float(svals[0] / svals[-1])

    # A^T = [[I, B1^T], [0, B2^T]] with B2 the square Toeplitz part of B_h;
    # reversing both axes of B2^T gives B2 back, so B2^T solves are the
    # same filter run backwards from zero initial conditions.
    b1_t = a[aux:, :aux].T
    stencil = system.scheme.stencil

    def solve(v: Array) -> Array:
        return np.concatenate([v[:aux], _filter(stencil, v[aux:, None], v[:aux, None])[:, 0]])

    def solve_t(v: Array) -> Array:
        body = _filter(stencil, v[aux:][::-1, None], np.zeros((aux, 1)))[::-1, 0]
        return np.concatenate([v[:aux] - b1_t @ body, body])

    rng = np.random.default_rng(1234)
    sigma_max = _power_iterate(lambda v: a.T @ (a @ v), tau, rng)
    sigma_min_inv = _power_iterate(lambda v: solve(solve_t(v)), tau, rng)
    if not np.isfinite(sigma_min_inv) or sigma_min_inv <= 0:
        raise SingularSystemError("grid-value system is numerically singular")
    return float(np.sqrt(sigma_max) * np.sqrt(sigma_min_inv))


def _power_iterate(op, n: int, rng) -> float:
    """Largest eigenvalue of ``op`` on R^n: at most 200 power steps, to relative change 1e-10."""
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(200):
        w = op(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v_new = w / nw
        if abs(nw - lam) <= 1e-10 * max(nw, 1.0):
            return nw
        lam, v = nw, v_new
    return lam
