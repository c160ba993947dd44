"""Univariate B-spline bases on clamped uniform knot vectors.

Values and first derivatives come from per-span power-form tables (the
pp-form of de Boor, *A Practical Guide to Splines*, ch. VII): on a
uniform knot vector the ``degree + 1`` functions nonzero on a knot span
are fixed polynomials in the local coordinate ``u = G (x - lo) / (hi -
lo) - span``, so each basis tabulates their coefficients once, from the
local Cox-de Boor triangle, and a point costs one gather and one small
product.  The dense tables are scatters of the local values.  Inputs
outside the domain are clamped to it, so downstream consumers never see
a non-finite basis value and the splines extend as constants.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

Array = npt.NDArray[np.float64]


@dataclass(frozen=True)
class BSplineBasis:
    """Clamped uniform B-spline basis of degree ``degree`` on ``[lo, hi]``.

    The knot vector repeats each boundary ``degree + 1`` times and places
    ``intervals - 1`` uniformly spaced interior knots, giving ``intervals``
    polynomial pieces and ``intervals + degree`` basis functions.
    ``power[s, j, r]`` is the coefficient of ``(u - 1/2)**j`` in function
    ``s + r`` on the ``s``-th piece, with ``u`` in ``[0, 1]`` across it.
    """

    degree: int
    intervals: int
    lo: float
    hi: float
    knots: Array
    power: Array

    @property
    def size(self) -> int:
        """Number of basis functions, ``intervals + degree``."""
        return self.intervals + self.degree


def make_basis(degree: int, intervals: int, lo: float = 0.0, hi: float = 1.0) -> BSplineBasis:
    """Build a clamped uniform basis of the given degree on ``[lo, hi]``.

    Parameters
    ----------
    degree : int
        Spline degree, at least 1.
    intervals : int
        Number of polynomial pieces, at least 1.
    lo, hi : float
        Domain endpoints with ``lo < hi``.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if intervals < 1:
        raise ValueError(f"intervals must be >= 1, got {intervals}")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("domain endpoints must be finite")
    if not lo < hi:
        raise ValueError(f"domain must satisfy lo < hi, got [{lo}, {hi}]")
    return BSplineBasis(degree, intervals, float(lo), float(hi),
                        _clamped_knots(degree, intervals, lo, hi),
                        _power_table(degree, intervals))


def _clamped_knots(degree: int, intervals: int, lo: float, hi: float) -> Array:
    interior = lo + (hi - lo) * np.arange(1, intervals) / intervals
    return np.concatenate([np.full(degree + 1, lo), interior, np.full(degree + 1, hi)])


def _power_table(degree: int, intervals: int) -> Array:
    """Power-form coefficients ``(intervals, k+1, k+1)`` of every span.

    Runs the Cox-de Boor triangle on the integer knots ``0 .. G`` at
    ``k + 1`` nodes inside each span and interpolates.  The nodes are
    Chebyshev points rounded to multiples of 2**-20, so every knot
    difference in the triangle is exact and spans with the same local
    knot pattern get bit-identical rows.  Expanded about u = 1/2, a
    value anywhere in a span sums terms of at most 2.5 in size (k <= 5,
    G <= 40); in powers of u they reach 80, and their rounding near u = 1
    put values that should be zero below zero.
    """
    k = degree
    cheb = 0.5 - 0.5 * np.cos((2 * np.arange(k + 1) + 1) * np.pi / (2 * k + 2))
    nodes = np.round(cheb * 2.0 ** 20) / 2.0 ** 20
    x = (np.arange(intervals)[:, None] + nodes).ravel()
    _, vals, _ = _cox_de_boor(_clamped_knots(k, intervals, 0.0, float(intervals)), k, x)
    vander = (nodes[:, None] - 0.5) ** np.arange(k + 1)
    return np.linalg.solve(vander, vals.reshape(intervals, k + 1, k + 1))


def greville_abscissae(basis: BSplineBasis) -> Array:
    """Knot averages ``(t_q+1 + ... + t_q+k) / k``, one per basis function.

    Coefficients set to an affine function at these points reproduce that
    function exactly; the first and last abscissae are ``lo`` and ``hi``.
    """
    k, t = basis.degree, basis.knots
    return np.array([t[q + 1 : q + k + 1].mean() for q in range(basis.size)])


def eval_local(basis: BSplineBasis, x: Array) -> tuple[Array, Array, Array]:
    """Nonzero basis values and first derivatives at already-clamped points.

    Returns ``(span, vals, derivs)``: ``span`` (n,) is the index of the
    knot interval ``[t_span, t_span+1)`` holding each point, and ``vals``
    and ``derivs`` (n, k+1) hold functions ``span-k .. span``, the only
    ones nonzero there.  Half-open spans give right-limit values at
    interior knots; the top knot belongs to the last nonempty span so
    partition of unity holds on the closed domain.  The span is the one
    a binary search of ``basis.knots`` gives, found as ``floor(G (x -
    lo) / (hi - lo))`` plus one correction step against the stored knots.

    Both come from ``basis.power``, built once from the Cox-de Boor
    triangle: with ``c = u - 1/2``, values are ``[1, c, .., c^k]`` times
    the span's table and derivatives ``[1, 2c, .., k c^(k-1)] * G / (hi -
    lo)`` times its last ``k`` rows.  A span's functions depend only on the
    knots ``t_span-k+1 .. t_span+k``, so pieces ``k-1 .. G-k`` share one
    cardinal table and take one matrix product; the rest gather theirs.
    """
    k, g, knots = basis.degree, basis.intervals, basis.knots
    scale = g / (basis.hi - basis.lo)
    span = np.clip(((x - basis.lo) * scale).astype(np.intp), 0, g - 1) + k
    span -= x < knots[span]
    span += x >= knots[span + 1]
    np.clip(span, k, k + g - 1, out=span)
    piece = span - k
    powers = np.empty((k + 1, x.shape[0]))
    powers[0] = 1.0
    np.multiply(x - knots[span], scale, out=powers[1])
    # x >= knots[span] makes u >= 0, but u can pass 1 by an ulp where the
    # stored knots round off 1 / scale
    np.minimum(powers[1], 1.0, out=powers[1])
    powers[1] -= 0.5
    for j in range(2, k + 1):
        np.multiply(powers[j - 1], powers[1], out=powers[j])
    slopes = powers[:k] * (np.arange(1, k + 1) * scale)[:, None]
    # below G = 2k - 1 no piece is cardinal and every row is an edge row
    shared = basis.power[min(k - 1, g - 1)]
    vals = powers.T @ shared
    derivs = slopes.T @ shared[1:]
    edge = np.flatnonzero((piece < k - 1) | (piece > g - k))
    rows = basis.power[piece[edge]]
    vals[edge] = np.einsum("jn,njr->nr", powers.take(edge, axis=1), rows)
    derivs[edge] = np.einsum("jn,njr->nr", slopes.take(edge, axis=1), rows[:, 1:])
    # At the top knot only the last function is nonzero, and it is 1; the
    # power form leaves rounding there that can put a value below zero.
    top = np.flatnonzero(x >= basis.hi)
    vals[top] = 0.0
    vals[top, k] = 1.0
    return span, vals, derivs


def _cox_de_boor(knots: Array, degree: int, x: Array) -> tuple[Array, Array, Array]:
    """``eval_local``'s ``(span, vals, derivs)`` by the local de Boor triangle.

    Piegl & Tiller, algorithms A2.2/A2.3, on any clamped knot vector:
    inside a nonempty span no denominator vanishes, so no 0/0 convention
    is needed.  The power-form tables are built from it.
    """
    k, t = degree, knots
    span = np.clip(np.searchsorted(t, x, side="right") - 1, k, t.shape[0] - k - 2)
    n = x.shape[0]
    # left[:, j] = x - t[span+1-j], right[:, j] = t[span+j] - x
    left = np.zeros((n, k + 1))
    right = np.zeros((n, k + 1))
    vals = np.zeros((n, k + 1))
    vals[:, 0] = 1.0
    for j in range(1, k + 1):
        if j == k:
            lower = vals[:, :k].copy()  # degree k-1 values of functions span-k+1 .. span
        left[:, j] = x - t[span + 1 - j]
        right[:, j] = t[span + j] - x
        saved = np.zeros(n)
        for r in range(j):
            temp = vals[:, r] / (right[:, r + 1] + left[:, j - r])
            vals[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        vals[:, j] = saved
    # N'_{i,k} = k (N_{i,k-1} / (t_{i+k} - t_i) - N_{i+1,k-1} / (t_{i+k+1} - t_{i+1}))
    first = span[:, None] - k + np.arange(1, k + 1)
    scaled = k * lower / (t[first + k] - t[first])
    derivs = np.zeros((n, k + 1))
    derivs[:, 1:] += scaled
    derivs[:, :k] -= scaled
    return span, vals, derivs


def _scatter(basis: BSplineBasis, span: Array, local: Array) -> Array:
    """Dense ``(n, size)`` table from the ``(n, k+1)`` nonzero entries."""
    k = basis.degree
    dense = np.zeros((span.shape[0], basis.size))
    cols = span[:, None] - k + np.arange(k + 1)
    np.put_along_axis(dense, cols, local, axis=1)
    return dense


def _clean_input(basis: BSplineBasis, x) -> tuple[Array, bool]:
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if arr.ndim != 1:
        raise ValueError("evaluation points must be a scalar or 1-d array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("evaluation points must be finite")
    return np.clip(arr, basis.lo, basis.hi), scalar


def eval_basis(basis: BSplineBasis, x) -> Array:
    """Evaluate all basis functions at ``x``.

    ``x`` may be a scalar or 1-d array; out-of-domain points are clamped.
    Returns shape ``(size,)`` for scalar input, else ``(len(x), size)``.
    """
    pts, scalar = _clean_input(basis, x)
    span, vals, _ = eval_local(basis, pts)
    dense = _scatter(basis, span, vals)
    return dense[0] if scalar else dense


def eval_basis_derivative(basis: BSplineBasis, x) -> Array:
    """First derivatives of all basis functions at ``x``.

    At knots the right-limit value is returned, and the derivative is
    zero in the clamped (out-of-domain) region.
    """
    pts, scalar = _clean_input(basis, x)
    span, _, derivs = eval_local(basis, pts)
    raw = np.atleast_1d(np.asarray(x, dtype=np.float64))
    derivs[(raw < basis.lo) | (raw > basis.hi)] = 0.0
    dense = _scatter(basis, span, derivs)
    return dense[0] if scalar else dense
