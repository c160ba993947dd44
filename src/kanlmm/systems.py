"""Benchmark dynamical systems used throughout the experiments.

Each system is packaged as a SystemDef: an autonomous field, an initial
state, the interval the training data is drawn from, and (when one
exists) the closed-form solution.

Every field maps one state (d,) to its derivative (d,), and a batch of
states (m, d) to their derivatives (m, d).  ``field_rows`` evaluates a
field over many states in blocks of rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import numpy.typing as npt

Array = npt.NDArray[np.float64]

OPINION_INIT_RANGE = (0.0, 10.0)  # initial opinions are uniform on this interval
# field_rows gives a field max(1, FIELD_BLOCK // d**2) rows per call, so that
# (rows, d, d) temporaries, as the opinion field builds, stay at 256 KB each.
FIELD_BLOCK = 1 << 15

GLYCOLYTIC_PARAMS: dict[str, float] = {
    "J0": 2.5,
    "k1": 100.0,
    "k2": 6.0,
    "k3": 16.0,
    "k4": 100.0,
    "k5": 1.28,
    "k6": 12.0,
    "k7": 1.8,
    "kappa": 13.0,
    "q": 4.0,
    "K1": 0.52,
    "psi": 0.1,
    "N": 1.0,
    "A": 4.0,
}

GLYCOLYTIC_X0 = (1.125, 0.95, 0.075, 0.16, 0.265, 0.7, 0.092)


@dataclass(frozen=True)
class SystemDef:
    """A named autonomous system dx/dt = field(x) with benchmark metadata.

    ``field`` takes a state (d,) or a batch of states (m, d).
    """

    name: str
    dim: int
    field: Callable[[Array], Array]
    x0: Array
    t_train: tuple[float, float]
    solution: Callable[[Array], Array] | None = None


def linear_system() -> SystemDef:
    """Two-dimensional linear model: dx/dt = 2x + 3y, dy/dt = -4y.

    From x0 = [0, 1] the solution is x(t) = (e^{2t} - e^{-4t})/2,
    y(t) = e^{-4t}, which makes this the standard closed-form check.
    Each row of a batch's field is bitwise the field of that state.
    """

    def field(s: Array) -> Array:
        s = s.T  # a batch as its two columns; a state is its own transpose
        return np.array([2.0 * s[0] + 3.0 * s[1], -4.0 * s[1]]).T

    def solution(ts) -> Array:
        ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
        return np.column_stack([0.5 * np.exp(2.0 * ts) - 0.5 * np.exp(-4.0 * ts),
                                np.exp(-4.0 * ts)])

    return SystemDef(
        name="linear",
        dim=2,
        field=field,
        x0=np.array([0.0, 1.0]),
        t_train=(0.0, 1.0),
        solution=solution,
    )


def glycolytic_system() -> SystemDef:
    """Seven-species glycolytic oscillator.

    Standard Selkov-style reaction network; the S3 consumption term uses
    the ATP pool (A - S6), matching the S4 production and S6 balance
    terms it must cancel against.  With the benchmark parameters the
    trajectory from GLYCOLYTIC_X0 stays positive and bounded on [0, 10].
    A batch's rows may differ from the per-state field in the last bits:
    an array's ``**`` does not round as a scalar's does.
    """
    p = GLYCOLYTIC_PARAMS
    J0, k1, k2, k3 = p["J0"], p["k1"], p["k2"], p["k3"]
    k4, k5, k6, k7 = p["k4"], p["k5"], p["k6"], p["k7"]
    kap, q, K1, psi = p["kappa"], p["q"], p["K1"], p["psi"]
    N, A = p["N"], p["A"]

    def field(s: Array) -> Array:
        s1, s2, s3, s4, s5, s6, s7 = s.T
        v1 = k1 * s1 * s6 / (1.0 + (s6 / K1) ** q)
        v2 = k2 * s2 * (N - s5)
        v3 = k3 * s3 * (A - s6)
        return np.array([
            J0 - v1,
            2.0 * v1 - v2 - k6 * s2 * s5,
            v2 - v3,
            v3 - k4 * s4 * s5 - kap * (s4 - s7),
            v2 - k4 * s4 * s5 - k6 * s2 * s5,
            -2.0 * v1 + 2.0 * v3 - k5 * s6,
            psi * kap * (s4 - s7) - k7 * s7,
        ]).T

    return SystemDef(
        name="glycolytic",
        dim=7,
        field=field,
        x0=np.array(GLYCOLYTIC_X0),
        t_train=(0.0, 10.0),
    )


def opinion_system(dim: int = 50, alpha: float = 1.0, seed: int = 0,
                   t_train: tuple[float, float] = (0.0, 10.0)) -> SystemDef:
    """Bounded-confidence opinion model with ``dim`` scalar agents.

    dx_i/dt = alpha * sum_{j != i} a_ij (x_j - x_i) with the row-normalized
    bounded-confidence weights a_ij = phi_ij / sum_k phi_ik, where
    phi_ij = 1 when |x_j - x_i| <= 1.  The normalizer sums over all k
    including i, so it is at least 1 for a finite state.  Initial opinions
    are drawn uniformly from ``OPINION_INIT_RANGE`` with a seeded generator so
    every run of a given (dim, seed) pair sees identical data.  Each row
    of a batch's field is bitwise the field of that state; a batch costs
    (m, dim, dim) temporaries.
    """
    if dim < 2:
        raise ValueError(f"opinion model needs at least 2 agents, got {dim}")
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(*OPINION_INIT_RANGE, size=dim)

    def field(x: Array) -> Array:
        # Summed in pair-difference form so equal opinions give an exact
        # zero field (a @ x - rowsum * x rounds differently per term).  The
        # diagonal needs no masking: d_ii = 0 contributes +0.0 to its row.
        x = np.asarray(x, dtype=np.float64)
        d = x[..., None, :] - x[..., :, None]
        near = np.abs(d) <= 1.0
        d *= near / near.sum(axis=-1, keepdims=True)
        return alpha * d.sum(axis=-1)

    return SystemDef(
        name="opinion",
        dim=dim,
        field=field,
        x0=x0,
        t_train=t_train,
    )


def field_rows(field, states: Array) -> Array:
    """``field`` at every row of ``states`` (n, d), one call per block of rows."""
    states = np.asarray(states, dtype=np.float64)
    n, d = states.shape
    rows = max(1, FIELD_BLOCK // (d * d))
    out = np.empty((n, d))
    for lo in range(0, n, rows):
        out[lo : lo + rows] = field(states[lo : lo + rows])
    return out


def opinion_component_count(x: Array) -> int:
    """Components of the interaction graph at x: 1 plus the gaps > 1 of the sorted opinions.

    It is an interval graph, and rounded subtraction is monotone: no
    pair across such a gap is within 1, so the count is exact.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        raise ValueError("opinions must be a finite vector")
    return int(np.count_nonzero(np.diff(np.sort(x)) > 1.0)) + min(x.size, 1)


_BUILDERS = {
    "linear": linear_system,
    "glycolytic": glycolytic_system,
    "opinion": opinion_system,
}


def by_name(name: str, **kwargs) -> SystemDef:
    """Look up a benchmark system by name ("linear", "glycolytic", "opinion")."""
    try:
        builder = _BUILDERS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown system {name!r}, expected one of {sorted(_BUILDERS)}") from None
    return builder(**kwargs)
