"""Error metrics and theoretical bound calculators.

The bound calculators are "what-if" evaluators: the regularity of an
unknown field is unobservable, so the caller supplies Holder parameters
and the functions evaluate the closed-form expressions.  The VC shape
value is the dimension-dependent factor of the approximation lower
bound, known only up to a constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from . import kan as kan_mod
from .kan import KanNetwork
from .odeint import integrate_at

Array = npt.NDArray[np.float64]


@dataclass(frozen=True)
class HolderSpec:
    """Holder-continuity parameters: |f(x)-f(y)| <= lam * |x-y|**alpha.

    ``radius`` is the half-width R of the centered input box the bound
    is evaluated over.
    """

    alpha: float
    lam: float = 1.0
    radius: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not (0.0 < self.lam < math.inf and 0.0 < self.radius < math.inf):
            raise ValueError("lam and radius must be positive and finite")

    def omega(self, r: float) -> float:
        """Modulus of continuity omega(r) = lam * r**alpha."""
        if r < 0:
            raise ValueError("modulus argument must be nonnegative")
        return self.lam * r ** self.alpha


@dataclass(frozen=True)
class BoundsReport:
    """Evaluated bounds plus the inputs they came from."""

    upper_bound: float
    upper_bound_unit_box: float
    vc_shape: float
    inputs: dict
    notes: str


def l2_seminorm(values) -> float:
    """Root mean square over the window: sqrt((1/tau) * sum |v_n|^2)."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("seminorm of an empty value set is undefined")
    return float(np.sqrt(np.mean(np.abs(v) ** 2)))


def _check_bound_args(k: int, g: int, n_hidden: int, d: int):
    if k < 1 or g < 1 or n_hidden < 1 or d < 1:
        raise ValueError("k, G, N, d must all be >= 1")


def _check_lipschitz(lipschitz: float):
    if not 0.0 <= lipschitz < math.inf:
        raise ValueError(f"lipschitz constant must be nonnegative and finite, got {lipschitz}")


def _finite(bound: float) -> float:
    """``bound`` itself; a bound that overflowed is no bound and raises."""
    if not math.isfinite(bound):
        raise ValueError(f"upper bound overflows to {bound} for these parameters")
    return bound


def _mesh_term(k: int, g: int) -> float:
    """min{ sqrt(2)/sqrt(k-1), sqrt(1/3) * sqrt(k)/G }; only the G branch at k=1.

    The first branch is the spline quasi-interpolation radius and is
    undefined at k = 1; the min structure keeps the G branch valid alone.
    """
    g_branch = math.sqrt(1.0 / 3.0) * math.sqrt(k) / g
    if k == 1:
        return g_branch
    return min(math.sqrt(2.0) / math.sqrt(k - 1.0), g_branch)


def upper_bound(holder: HolderSpec, k: int, g: int, n_hidden: int, d: int,
                lipschitz: float) -> float:
    """Approximation error bound over the box of half-width ``holder.radius``.

    lam * N * (L*d + 1) * R**alpha * mesh_term**alpha, where mesh_term is
    the min of the degree and grid branches.  Monotone non-increasing in
    G, linear in N.
    """
    _check_bound_args(k, g, n_hidden, d)
    _check_lipschitz(lipschitz)
    mesh = _mesh_term(k, g)
    return _finite(holder.lam * n_hidden * (lipschitz * d + 1.0)
                   * holder.radius ** holder.alpha * mesh ** holder.alpha)


def upper_bound_unit_box(holder: HolderSpec, k: int, g: int, n_hidden: int, d: int,
                         lipschitz: float) -> float:
    """Unit-box variant: N * (L*d + 1) * omega(mesh_term)."""
    _check_bound_args(k, g, n_hidden, d)
    _check_lipschitz(lipschitz)
    return _finite(n_hidden * (lipschitz * d + 1.0) * holder.omega(_mesh_term(k, g)))


def vc_lower_bound_shape(k: int, g: int, n_hidden: int, d: int, alpha: float) -> float:
    """Shape factor (N*P*(d+1)*(d+N+1)*ln((d+1)*P))**(-alpha/d), P = G+k-1.

    This is the best-approximation lower bound modulo its unknown
    constant.  Evaluated in the log domain so large d and N cannot
    overflow; the value always lies in (0, 1) and tends to 1 as d grows
    with N = 2d+1.
    """
    _check_bound_args(k, g, n_hidden, d)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    p = g + k - 1
    log_base = (
        math.log(n_hidden) + math.log(p) + math.log(d + 1.0)
        + math.log(d + n_hidden + 1.0) + math.log(math.log((d + 1.0) * p))
    )
    return math.exp(-alpha / d * log_base)


def piece_count(k: int, g: int) -> tuple[int, int]:
    """(pieces, basis_count) for a clamped degree-k basis with G intervals.

    The VC argument counts P = G + k - 1 polynomial pieces per activation
    (interior breakpoints only), while the basis itself has G + k
    functions; both counts are reported so they are never conflated.
    """
    if k < 1 or g < 1:
        raise ValueError("k and G must be >= 1")
    return g + k - 1, g + k


def bounds_report(holder: HolderSpec, k: int, g: int, n_hidden: int, d: int,
                  lipschitz: float) -> BoundsReport:
    """All bound calculators evaluated on one parameter set."""
    pieces, basis_count = piece_count(k, g)
    return BoundsReport(
        upper_bound=upper_bound(holder, k, g, n_hidden, d, lipschitz),
        upper_bound_unit_box=upper_bound_unit_box(holder, k, g, n_hidden, d, lipschitz),
        vc_shape=vc_lower_bound_shape(k, g, n_hidden, d, holder.alpha),
        inputs={
            "k": k, "G": g, "N": n_hidden, "d": d,
            "L": lipschitz, "alpha": holder.alpha, "lam": holder.lam,
            "R": holder.radius, "P_pieces": pieces, "basis_count": basis_count,
        },
        notes="lower bound holds modulo an unknown constant; "
              "upper bound assumes the supplied Holder parameters",
    )


def _edge_slopes(basis, coeffs: Array) -> Array:
    """Hull bound on |s'| over the basis domain; basis index last in ``coeffs``."""
    k, t, n = basis.degree, basis.knots, basis.size
    scale = k / (t[k + 1 : n + k] - t[1:n])
    # in C order, so the sums over it round alike for every memory order of coeffs
    return np.ascontiguousarray(np.max(np.abs(np.diff(coeffs, axis=-1)) * scale, axis=-1))


def lipschitz_estimate(net: KanNetwork) -> float:
    """Upper bound on the network's Lipschitz constant, Euclidean in x and y.

    Read off the spline coefficients alone.  The derivative of an edge
    s = sum_q c_q B_q of degree k is a degree k-1 spline with coefficients
    k (c_q - c_{q-1}) / (t_{q+k} - t_q); those B-splines are nonnegative
    and sum to one, so |s'| is at most the largest coefficient in modulus
    (Lyche & Morken, *Spline Methods*, ch. 2).  Times the slope of the
    affine rescaling into the basis domain this gives L_in[j, i] and
    L_out[m, j]; clamping to the domain is 1-Lipschitz and cannot raise
    them.  Then |z_j(x) - z_j(y)| <= sum_i L_in[j, i] |x_i - y_i| <=
    ||L_in[j, :]||_2 ||x - y||_2 by Cauchy-Schwarz, and |y_m(x) - y_m(y)|
    <= a_m ||x - y||_2 with a_m = sum_j L_out[m, j] ||L_in[j, :]||_2, so
    ||a||_2 bounds ||y(x) - y(y)||_2 / ||x - y||_2 everywhere.
    """
    l_in = _edge_slopes(net.inner_basis, net.inner_coeffs) / (net.input_hi - net.input_lo)
    l_out = _edge_slopes(net.outer_basis, net.outer_coeffs) / (net.hidden_hi - net.hidden_lo)
    return float(np.linalg.norm(l_out @ np.linalg.norm(l_in, axis=1)))


def gronwall_study(model, field, x0, t_list):
    """Max-norm state discrepancy between two fields at each horizon.

    ``model`` may be a KanNetwork or any state->derivative callable; both
    fields are integrated once over [0, max(t_list)] and compared exactly
    at the listed times.  Returns a list of (T, error) pairs.
    """
    t_list = sorted(float(t) for t in t_list)
    if not t_list or t_list[0] <= 0:
        raise ValueError("horizons must be positive")
    if isinstance(model, KanNetwork):
        net = model
        model_field = lambda y: kan_mod.forward(net, y)  # noqa: E731
    else:
        model_field = model
    t_max = t_list[-1]
    ref = integrate_at(field, x0, 0.0, t_max, t_list)
    learned = integrate_at(model_field, x0, 0.0, t_max, t_list)
    gaps = np.max(np.abs(ref - learned), axis=1)
    return [(t, float(e)) for t, e in zip(t_list, gaps)]


def fit_log_linear(xs, ys) -> tuple[float, float]:
    """Slope and correlation of log(y) against x (exponential-growth fit)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.log(np.asarray(ys, dtype=np.float64))
    slope, _ = np.polyfit(xs, ys, 1)
    corr = np.corrcoef(xs, ys)[0, 1]
    return float(slope), float(corr)
