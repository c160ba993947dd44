"""Recovery of vector-field grid values from a single trajectory.

For a multistep scheme the residual equations in the unknowns
u_n = f(x(t_n)) form a banded block B_h on the window n = r..q, and
aux_count = len(scheme.stencil) - 1 start-up rows, one-sided differences
of the scheme's order, square it.  ``lmm.grid_system`` builds the
stacked system A_h u = [c; b] for every component; its least-squares
residual is the training loss J_ah, so the grid values solved here are
that loss's exact minimizer.  A_h = [C; B_h] is lower triangular with
aux_count subdiagonals, so the grid values of all components (the
discovery of Keller & Du, SINUM 59, 2021) are one LAPACK ``dtbtrs``
solve on ``lmm.system_bands``, in O(tau * steps * d) time;
``condition_number`` solves with its transpose the same way.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import numpy.typing as npt
from scipy.linalg.lapack import dtbtrs

from . import lmm
from .lmm import GridSystem, LmmScheme, apply_system, apply_system_t
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


def _band_solve(bands: Array, rhs: Array, trans: str = "N") -> Array:
    """A^-1 rhs (``trans="T"``: A^-T rhs) for A lower triangular in band storage ``bands``."""
    if rhs.size == 0:
        return np.zeros_like(rhs)  # scipy 1.17.1's dtbtrs corrupts the heap when b has no columns
    x, info = dtbtrs(bands, rhs, uplo="L", trans=trans)
    if info != 0:
        raise SingularSystemError(f"grid-value system is singular (dtbtrs info {info})")
    return x


def solve_grid_values(system: GridSystem) -> Array:
    """Grid values u_r..u_q, (tau, d): A_h^-1 [c; b], one banded triangular solve.

    ``system`` must hold its start-up rows (``lmm.grid_system``'s default).
    """
    return _band_solve(lmm.system_bands(system.scheme, system.window.tau), system.rhs)


def condition_number(system: GridSystem) -> float:
    """Spectral condition number kappa_2(A_h).

    Systems of at most ``DENSE_LIMIT`` unknowns go through a dense SVD.
    Larger ones get power iteration on A^T A for the largest singular
    value and on A^-1 A^-T, two banded triangular solves, for the smallest.
    It approaches both from below, so the estimate can read low by about
    1e-3 relative: AB-2 on 1001 samples reads 2.2337 with
    ``DENSE_LIMIT = 0`` against the dense 2.2361.
    """
    sch, tau = system.scheme, system.window.tau
    if tau <= DENSE_LIMIT:
        a, aux = np.zeros((tau, tau)), len(sch.stencil) - 1  # no band array: lower peak memory
        a.ravel()[: aux * (tau + 1) : tau + 1] = 1.0  # identity rows C
        for k, s in enumerate(sch.stencil.tolist()):
            a.ravel()[aux * tau + k :: tau + 1] = s  # band rows: A_h[aux + i, i + k]
        svals = np.linalg.svd(a, compute_uv=False)
        if svals[-1] <= 1e-14 * svals[0]:
            raise SingularSystemError("grid-value system is numerically singular")
        return float(svals[0] / svals[-1])

    bands = lmm.system_bands(sch, tau)
    rng = np.random.default_rng(1234)
    sigma_max = _power_iterate(lambda v: apply_system_t(sch, apply_system(sch, v)), tau, rng)
    sigma_min_inv = _power_iterate(
        lambda v: _band_solve(bands, _band_solve(bands, v, trans="T")), tau, rng)
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
