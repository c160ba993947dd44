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
solve on ``lmm.system_bands``, in O(tau * steps * d) time.  Above
``DENSE_LIMIT`` unknowns ``condition_number`` bounds kappa_2(A_h) from
above through one more such solve, with aux_count + 1 right-hand sides.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import numpy.typing as npt
from scipy.linalg.lapack import dtbtrs

from . import lmm
from .lmm import GridSystem, LmmScheme
from .odeint import Trajectory

Array = npt.NDArray[np.float64]

DENSE_LIMIT = 2000


class SingularSystemError(RuntimeError):
    """A_h of ``sch`` is singular or its solve is not finite; names the beta max |root|."""

    def __init__(self, sch: LmmScheme, problem: str):
        super().__init__(f"{problem}; {sch.family}-{sch.steps} beta polynomial has max "
                         f"|root| = {lmm.root_condition(sch).max_modulus:.4g}")


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


def _band_solve(system: GridSystem, rhs: Array, problem: str) -> Array:
    """A_h^-1 rhs; raises SingularSystemError(scheme, problem) unless it is finite."""
    if rhs.size == 0:
        return np.zeros_like(rhs)  # scipy 1.17.1's dtbtrs corrupts the heap when b has no columns
    x, info = dtbtrs(lmm.system_bands(system.scheme, system.window.tau), rhs, uplo="L")
    if info != 0 or not np.all(np.isfinite(x)):  # info > 0: a zero on the diagonal
        raise SingularSystemError(system.scheme, problem)
    return x


def solve_grid_values(system: GridSystem) -> Array:
    """Grid values u_r..u_q, (tau, d): A_h^-1 [c; b], one banded triangular solve.

    ``system`` must hold its start-up rows (``lmm.grid_system``'s default).
    Non-finite values (AM-3 on 1001 samples) raise SingularSystemError.
    """
    if system.rhs.shape[0] != system.window.tau:
        raise ValueError(f"grid-value system lacks its {system.window.aux_count} start-up rows")
    return _band_solve(system, system.rhs, "recovered grid values are not finite")


def condition_number(system: GridSystem) -> float:
    """Spectral condition number kappa_2(A_h), or above ``DENSE_LIMIT`` a bound on it.

    Systems of at most ``DENSE_LIMIT`` unknowns go through a dense SVD.
    Larger ones get sqrt(|A|_1 |A|_inf) * sqrt(|A^-1|_1 |A^-1|_inf), which
    is at least kappa_2 because |M|_2 <= sqrt(|M|_1 |M|_inf) for every M.
    The norms of A_h follow from the stencil s and the identity rows C.
    Those of A_h^-1 come from one banded solve for its first aux + 1
    columns: column aux is the band rows' impulse response g, and every
    later column is a truncated copy of it.  At n1 <= 1000 the bound reads
    at most 2.57 times kappa_2 (AB-6) for a stable scheme, and is exact
    for BDF.
    """
    sch, tau = system.scheme, system.window.tau
    aux, singular = len(sch.stencil) - 1, "grid-value system is numerically singular"
    if tau <= DENSE_LIMIT:
        a = np.zeros((tau, tau))  # no band array: lower peak memory
        a.ravel()[: aux * (tau + 1) : tau + 1] = 1.0  # identity rows C
        for k, s in enumerate(sch.stencil.tolist()):
            a.ravel()[aux * tau + k :: tau + 1] = s  # band rows: A_h[aux + i, i + k]
        svals = np.linalg.svd(a, compute_uv=False)
        if svals[-1] <= 1e-14 * svals[0]:
            raise SingularSystemError(sch, singular)
        return float(svals[0] / svals[-1])

    x = np.abs(_band_solve(system, np.eye(tau, aux + 1), singular))
    inv_1 = x.sum(axis=0).max()  # later columns are truncated copies of g
    row_sums = x[:, :aux].sum(axis=1)  # a row of C is its own row of A_h^-1: sum 1
    row_sums[aux:] += np.cumsum(x[aux:, aux])  # row i >= aux meets g[0..i - aux]
    s = np.abs(sch.stencil)
    norm_inf = max(s.sum(), float(aux > 0))  # band rows, identity rows
    norm_1 = max(s.sum(), 1.0 + s[:aux].sum())  # inner columns, column aux - 1
    return float(np.sqrt(norm_1 * norm_inf) * np.sqrt(inv_1 * row_sums.max()))
