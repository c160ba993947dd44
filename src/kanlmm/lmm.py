"""Linear multistep schemes and their discovery-side bookkeeping.

Coefficients for the Adams-Bashforth, Adams-Moulton, and backward
differentiation families are their closed-form backward-difference
expansions, kept as exact fractions and converted to floats once.
Scheme convention, with x_n the state at t_n and f the field:

    (1/h) * sum_{m=0}^{M} alpha_m x_{n-m} = sum_{m=0}^{M} beta_m f(x_{n-m})

normalized so alpha_0 > 0.  The module also owns the one grid-value
system A_h u = [c; b] over the index window (``grid_system``), whose
A_h ``apply_system``, ``apply_system_t`` and ``system_bands`` read from
the scheme's stencil.  Alongside are an empirical-order fit, one-sided
difference weights, and the root condition on the beta polynomial.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

import numpy as np
import numpy.typing as npt

from .odeint import Trajectory
from .systems import field_rows

Array = npt.NDArray[np.float64]

FAMILIES = ("ab", "am", "bdf")
MAX_STEPS = 6
RHS_BLOCK = 4096  # rows of [c; b] that grid_system sums at a time


class DegenerateFitError(RuntimeError):
    """Raised when an order fit would run on saturated (noise-level) data."""


@dataclass(frozen=True)
class LmmScheme:
    """One member of a multistep family.

    ``alpha`` and ``beta`` are indexed by the history offset m = 0..steps,
    so ``alpha[0]`` multiplies the newest state.  ``order`` is the exact
    consistency order p of the scheme.
    """

    family: str
    steps: int
    alpha: Array
    beta: Array
    order: int

    @property
    def beta_support(self) -> tuple[int, int]:
        """(min, max) offsets m with beta_m != 0."""
        nz = np.nonzero(self.beta)[0]
        if nz.size == 0:
            raise ValueError("scheme has an all-zero beta row")
        return int(nz.min()), int(nz.max())

    @cached_property
    def stencil(self) -> Array:
        """[beta_{m_max}, ..., beta_{m_min}]: the band of one multistep row.

        In ascending column order, so the last entry multiplies the newest
        unknown; ``beta_support`` trims zeros, so both ends are nonzero.
        Computed once and read-only: every product with A_h reads it.
        """
        m_min, m_max = self.beta_support
        s = self.beta[m_min : m_max + 1][::-1].copy()
        s.setflags(write=False)
        return s


def _adams_beta(steps: int, implicit: bool) -> list[Fraction]:
    """Adams beta over offsets 0..steps, exact, from the difference form.

    x_n - x_{n-1} = h sum_j gamma_j nabla^j f_k with k = n, j = 0..steps
    (AM) or k = n - 1, j = 0..steps - 1 (AB); gamma solves
    sum_{i<=j} gamma_i / (j + 1 - i) = [j == 0] (AM) or 1 (AB), and
    nabla^j f_k = sum_m (-1)^m C(j, m) f_{k-m}.
    """
    shift = int(not implicit)
    gamma: list[Fraction] = []
    for j in range(steps + 1 - shift):
        # a Fraction, not an int: int / int would make every gamma a float
        rhs = Fraction(j == 0 or not implicit)
        gamma.append(rhs - sum(g / (j + 1 - i) for i, g in enumerate(gamma)))
    beta = [Fraction(0)] * (steps + 1)
    for j, g in enumerate(gamma):
        for m in range(j + 1):
            beta[shift + m] += (-1) ** m * comb(j, m) * g
    return beta


def scheme(family: str, steps: int) -> LmmScheme:
    """Return the ``steps``-step member of ``family`` ("ab", "am", "bdf").

    AB is explicit of order ``steps``; AM is implicit of order
    ``steps + 1``; BDF is implicit of order ``steps``.  Steps are
    supported for 1..6 (beyond 6 the BDF members lose zero-stability and
    the classical tables stop).  BDF-M is (1/h) sum_{j=1}^{M} nabla^j x_n / j
    = f_n, whose alpha is the negated start-up weights ``fdm_coefficients``.
    """
    fam = family.lower()
    if fam not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if not 1 <= steps <= MAX_STEPS:
        raise ValueError(f"steps must be in 1..{MAX_STEPS}, got {steps}")
    if fam == "bdf":
        alpha, beta = -fdm_coefficients(steps), np.zeros(steps + 1)
        beta[0] = 1.0
    else:
        alpha = np.zeros(steps + 1)
        alpha[:2] = 1.0, -1.0
        beta = np.array([float(b) for b in _adams_beta(steps, fam == "am")])
    return LmmScheme(family=fam, steps=steps, alpha=alpha, beta=beta,
                     order=steps + (fam == "am"))


def all_schemes() -> list[LmmScheme]:
    """All 18 supported schemes (3 families x 6 step counts)."""
    return [scheme(f, m) for f in FAMILIES for m in range(1, MAX_STEPS + 1)]


def residual(sch: LmmScheme, traj: Trajectory, field) -> Array:
    """Multistep residual of a trajectory against a candidate field.

    r_n = (1/h) sum_m alpha_m x_{n-m} - sum_m beta_m field(x_{n-m}) for
    n = steps..N1, i.e. b - B_h f of ``grid_system``'s band rows, as an
    array of shape (N1 - steps + 1, d).  The field is evaluated through
    ``systems.field_rows``, so it must accept an (m, d) batch.
    """
    system = grid_system(sch, traj, startup=False)
    w = system.window
    fvals = field_rows(field, traj.states[w.columns])
    return system.rhs - apply_system(sch, fvals)[w.aux_count:]


def empirical_order(sch: LmmScheme, field, solution, h_list) -> float:
    """Fitted log-log slope of the max residual norm against step size.

    Each step size h runs the scheme on the grid t_n = n*h over [0, 1].

    ``solution(ts)`` must return exact states (len(ts), d); the residual
    of the exact solution is the truncation error, so the slope should
    approach the scheme's order.
    """
    hs = np.asarray(sorted(h_list, reverse=True), dtype=np.float64)
    if hs.size < 3:
        raise ValueError("need at least 3 step sizes for a slope fit")
    if np.any(hs <= 0):
        raise ValueError("step sizes must be positive")
    errs = []
    for h in hs:
        ts = h * np.arange(int(round(1.0 / h)) + 1)
        traj = Trajectory(t0=0.0, h=float(h), states=solution(ts))
        errs.append(np.max(np.abs(residual(sch, traj, field))))
    errs = np.asarray(errs)
    if np.all(errs < 1e-14):
        raise DegenerateFitError(
            "residuals are at rounding level for every step size; order fit is meaningless"
        )
    slope, _ = np.polyfit(np.log(hs), np.log(errs), 1)
    return float(slope)


@dataclass(frozen=True)
class IndexWindow:
    """Index bookkeeping for recovering grid values of f from one trajectory.

    For a trajectory with samples 0..n1 and a scheme with beta support
    [m_min, m_max], the multistep equations for n = steps..n1 involve
    the unknowns f(x_r), ..., f(x_q).  ``aux_count`` is the number of
    one-sided-difference rows needed to square the system, defined as
    tau - (n1 - steps + 1) = m_max - m_min = len(stencil) - 1.
    """

    r: int
    q: int
    aux_count: int

    @property
    def tau(self) -> int:
        """Number of unknown grid values, q - r + 1."""
        return self.q - self.r + 1

    @property
    def columns(self) -> slice:
        """The window's rows of an array indexed by grid point, r..q."""
        return slice(self.r, self.q + 1)


def index_window(sch: LmmScheme, n1: int) -> IndexWindow:
    """Window of grid indices whose f-values enter the multistep equations."""
    if n1 < sch.steps:
        raise ValueError(f"trajectory too short: need n1 >= steps = {sch.steps}, got {n1}")
    m_min, m_max = sch.beta_support
    return IndexWindow(r=sch.steps - m_max, q=n1 - m_min, aux_count=m_max - m_min)


def system_bands(sch: LmmScheme, tau: int) -> Array:
    """A_h = [C; B_h] on tau unknowns in LAPACK lower band storage, for banded solves.

    ``bands[j, col] = A_h[col + j, col]``, shape (aux_count + 1, tau); the
    last j entries of row j lie outside A_h and are never read.  C is
    aux_count identity rows; below them multistep row i carries
    ``sch.stencil`` in window columns i - aux_count..i (lower triangular).
    """
    bands = np.repeat(sch.stencil[::-1, None], tau, axis=1)
    aux = bands.shape[0] - 1
    for j in range(aux + 1):
        # entries of band j in the identity rows: 1 on the diagonal, 0 below
        bands[j, : aux - j] = float(j == 0)
    return bands


def apply_system(sch: LmmScheme, u: Array) -> Array:
    """A_h u for u of shape (tau, ...); a band row sums ascending columns, as CSR does."""
    s = sch.stencil.tolist()  # Python floats: cheaper per product than numpy scalars
    aux, rows = len(s) - 1, u.shape[0] - len(s) + 1
    out = np.array(u, dtype=np.float64)  # the identity rows' entries; the rest is overwritten
    np.multiply(s[0], u[:rows], out=out[aux:])
    for k in range(1, aux + 1):
        out[aux:] += s[k] * u[k : k + rows]
    return out


def apply_system_t(sch: LmmScheme, r: Array) -> Array:
    """A_h^T r for r of shape (tau, ...); each column sums down the rows of A_h, as CSR does."""
    s = sch.stencil.tolist()
    aux, rows = len(s) - 1, r.shape[0] - len(s) + 1
    out = np.array(r, dtype=np.float64)  # the identity rows' entries; the rest is overwritten
    np.multiply(s[aux], r[aux:], out=out[aux:])
    for k in range(aux - 1, -1, -1):  # band row c - k meets column c; ascending rows
        out[k : k + rows] += s[k] * r[aux:]
    return out


def fdm_coefficients(order: int) -> Array:
    """Weights of the forward difference u'(t_n) ~ (1/h) sum_m mu_m u_{n+m}.

    Exact for polynomials of degree p = ``order`` on the nodes m = 0..p:
    the derivative at 0 of the interpolant, sum_{j=1}^{p} (-1)^{j+1}
    Delta^j u_n / j, which gives mu_0 = -H_p (the p-th harmonic number)
    and mu_m = (-1)^{m+1} C(p, m) / m.  Each is exact as a fraction and
    rounded once.
    """
    if not 1 <= order <= 7:
        raise ValueError(f"difference order must be in 1..7, got {order}")
    mu = [-sum(Fraction(1, m) for m in range(1, order + 1))]
    mu += [Fraction((-1) ** (m + 1) * comb(order, m), m) for m in range(1, order + 1)]
    return np.array([float(v) for v in mu])


@dataclass(frozen=True)
class GridSystem:
    """A_h u = [c; b] on the grid values u_r..u_q of every state component.

    A_h = [C; B_h] is the scheme's (``apply_system``); ``rhs`` is [c; b]
    with one column per component: b, the (1/h) alpha combination of the
    states for n = steps..n1, below c, the one-sided difference estimates
    of the field at the first aux_count window indices.  Built with
    ``startup=False`` it holds only b.
    """

    scheme: LmmScheme
    window: IndexWindow
    rhs: Array


def grid_system(sch: LmmScheme, traj: Trajectory, startup: bool = True) -> GridSystem:
    """The grid-value system of a trajectory, one column of [c; b] per component.

    ``traj`` guarantees finite states and a positive, finite step h.  The
    band rows need n1 >= steps; the start-up rows c, one-sided
    differences of the scheme's order, need n1 >= steps + order.
    """
    states, h, n1 = traj.states, traj.h, traj.n_steps
    m = sch.steps
    if startup and n1 < (needed := m + sch.order):
        raise ValueError(f"trajectory too short: need n1 >= steps + order = {needed}, got {n1}")
    w = index_window(sch, n1)  # checks n1 >= steps
    aux = w.aux_count if startup else 0
    rows = n1 - m + 1
    rhs = np.zeros((aux + rows, traj.dim))
    # Row blocks keep the sums in cache.  On finite states a zero alpha
    # adds only +-0.0, which changes no sum that starts at +0.0: skipped.
    for lo in range(0, rows, RHS_BLOCK):
        hi = min(lo + RHS_BLOCK, rows)
        for mm in np.flatnonzero(sch.alpha):
            rhs[aux + lo : aux + hi] += (sch.alpha[mm] / h) * states[m - mm + lo : m - mm + hi]
    if startup:
        mu = fdm_coefficients(sch.order)
        for j, n in enumerate(range(w.r, w.r + aux)):
            rhs[j] = mu @ states[n : n + sch.order + 1] / h
    return GridSystem(scheme=sch, window=w, rhs=rhs)


@dataclass(frozen=True)
class RootConditionReport:
    """Roots of the beta polynomial and the strict stability verdict.

    ``satisfied`` means every root has modulus < 1 - 1e-12.  Roots within
    1e-12 of the unit circle are flagged as ``boundary`` so marginal cases
    are reported rather than silently passed or failed.
    """

    roots: npt.NDArray[np.complex128]
    satisfied: bool
    boundary: bool
    max_modulus: float


def root_condition(sch: LmmScheme) -> RootConditionReport:
    """Check the root condition for the grid-value recursion.

    Forward substitution through the band rows of A_h, which recovers
    grid values, amplifies perturbations through the polynomial
    p(z) = sum_{i=m_min}^{m_max} beta_i z^(m_max - i); the recursion is
    stable when all roots lie strictly inside the unit circle.  A scheme
    with a single nonzero beta gives a constant polynomial and the
    condition holds vacuously.
    """
    m_min, m_max = sch.beta_support
    coeffs = sch.beta[m_min : m_max + 1]
    if coeffs.size == 1:
        return RootConditionReport(
            roots=np.zeros(0, dtype=np.complex128), satisfied=True, boundary=False, max_modulus=0.0,
        )
    roots = np.roots(coeffs)
    mods = np.abs(roots)
    return RootConditionReport(
        roots=roots,
        satisfied=bool(np.all(mods < 1.0 - 1e-12)),
        boundary=bool(np.any(np.abs(mods - 1.0) <= 1e-12)),
        max_modulus=float(mods.max()),
    )
