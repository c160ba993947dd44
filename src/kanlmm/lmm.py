"""Linear multistep schemes and their discovery-side bookkeeping.

Coefficients for the Adams-Bashforth, Adams-Moulton, and backward
differentiation families are their closed-form backward-difference
expansions, kept as exact fractions and converted to floats once.
Scheme convention, with x_n the state at t_n and f the field:

    (1/h) * sum_{m=0}^{M} alpha_m x_{n-m} = sum_{m=0}^{M} beta_m f(x_{n-m})

normalized so alpha_0 > 0.  The module also owns the multistep
operator: the grid-value system A_h = [C; B_h] over the index window,
which the residual, the training losses and grid-value recovery all
read.  Alongside are an empirical-order fit, one-sided difference
weights, and the root condition on the beta polynomial.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np
import numpy.typing as npt
from scipy import sparse

Array = npt.NDArray[np.float64]

FAMILIES = ("ab", "am", "bdf")
MAX_STEPS = 6


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

    @property
    def stencil(self) -> Array:
        """[beta_{m_max}, ..., beta_{m_min}]: the band of one multistep row.

        In ascending column order, so the last entry multiplies the newest
        unknown; ``beta_support`` trims zeros, so both ends are nonzero.
        """
        m_min, m_max = self.beta_support
        return self.beta[m_min : m_max + 1][::-1].copy()


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


def residual(sch: LmmScheme, times: Array, states: Array, field) -> Array:
    """Multistep residual of a trajectory against a candidate field.

    r_n = (1/h) sum_m alpha_m x_{n-m} - sum_m beta_m field(x_{n-m}) for
    n = steps..N1, i.e. b - B_h f over the index window, returned as an
    array of shape (N1 - steps + 1, d).  ``times`` must be equidistant.
    """
    times = np.asarray(times, dtype=np.float64)
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or times.shape[0] != states.shape[0]:
        raise ValueError("states must be (n_points, d) aligned with times")
    n1 = states.shape[0] - 1
    if n1 < sch.steps:
        raise ValueError(f"need at least steps+1 = {sch.steps + 1} points, got {n1 + 1}")
    h = (times[-1] - times[0]) / n1
    if h <= 0 or not np.allclose(np.diff(times), h, rtol=0.0, atol=1e-9 * max(abs(h), 1.0)):
        raise ValueError("times must be strictly increasing and equidistant")
    w = index_window(sch, n1)
    b, _ = data_terms(sch, states, h, startup=False)
    fvals = np.apply_along_axis(field, 1, states[w.r : w.q + 1])
    return b - system_matrix(sch, n1)[w.aux_count:] @ fvals


def empirical_order(sch: LmmScheme, field, solution, h_list, t0: float = 0.0, t1: float = 1.0) -> float:
    """Fitted log-log slope of the max residual norm against step size.

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
        n1 = int(round((t1 - t0) / h))
        ts = t0 + h * np.arange(n1 + 1)
        states = np.asarray(solution(ts), dtype=np.float64)
        r = residual(sch, ts, states, field)
        errs.append(np.max(np.abs(r)))
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

    n1: int
    r: int
    q: int
    aux_count: int

    @property
    def tau(self) -> int:
        """Number of unknown grid values, q - r + 1."""
        return self.q - self.r + 1


def index_window(sch: LmmScheme, n1: int) -> IndexWindow:
    """Window of grid indices whose f-values enter the multistep equations."""
    if n1 < sch.steps:
        raise ValueError(f"trajectory must have n1 >= steps, got n1={n1} steps={sch.steps}")
    m_min, m_max = sch.beta_support
    r = sch.steps - m_max
    q = n1 - m_min
    tau = q - r + 1
    aux = tau - (n1 - sch.steps + 1)
    return IndexWindow(n1=n1, r=r, q=q, aux_count=aux)


def system_matrix(sch: LmmScheme, n1: int) -> sparse.csr_array:
    """A_h = [C; B_h] over the window r..q as one sparse (tau, tau) matrix.

    The first aux_count rows are C, identity rows that pin the earliest
    unknowns to the one-sided difference values.  Below them multistep
    row i carries ``sch.stencil`` in window columns i..i + aux_count, so
    beta_{m_min} sits on the diagonal and A_h is lower triangular.  The
    rows of B_h are those of ``data_terms``' b, n = steps..n1.
    """
    w = index_window(sch, n1)
    aux, rows = w.aux_count, w.tau - w.aux_count
    # Diagonal offset j - aux holds stencil[j] in the multistep rows; its
    # first j entries lie in the identity rows: 1 on the main diagonal, 0 below.
    bands = [np.concatenate([np.full(j, float(j == aux)), np.full(rows, beta)])
             for j, beta in enumerate(sch.stencil)]
    return sparse.diags_array(bands, offsets=range(-aux, 1), shape=(w.tau, w.tau),
                              format="csr")


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


def data_terms(sch: LmmScheme, states: Array, h: float,
               startup: bool = True) -> tuple[Array, Array]:
    """Data side of the multistep rows and of the one-sided start-up rows.

    Returns b, the (1/h) alpha combination of the states for
    n = steps..n1 with shape (n1 - steps + 1, d), and c, the one-sided
    difference estimates of the field at the first aux_count window
    indices with shape (aux_count, d).  ``startup=False`` skips c
    (returned with shape (0, d)); otherwise n1 >= steps + order is needed.
    """
    n1, d = states.shape[0] - 1, states.shape[1]
    m = sch.steps
    b = np.zeros((n1 - m + 1, d))
    for mm in range(m + 1):
        b += (sch.alpha[mm] / h) * states[m - mm : n1 + 1 - mm]
    if not startup:
        return b, np.zeros((0, d))
    w = index_window(sch, n1)
    mu = fdm_coefficients(sch.order)
    c = np.zeros((w.aux_count, d))
    for j, n in enumerate(range(w.r, w.r + w.aux_count)):
        c[j] = mu @ states[n : n + sch.order + 1] / h
    return b, c


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

    The recursive filter that recovers grid values amplifies
    perturbations through the polynomial
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
