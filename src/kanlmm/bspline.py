"""Univariate B-spline bases on clamped uniform knot vectors over [0, 1].

A basis of G intervals works in knot units t = G x, where every knot is
an integer.  A point lies on piece ``s = min(floor(t), G - 1)``, and the
``degree + 1`` functions nonzero there are fixed polynomials in the
local coordinate ``c = t - s - 1/2`` (the pp-form of de Boor, *A
Practical Guide to Splines*, ch. VII).  Each basis tabulates their
coefficients once, by the Cox-de Boor recurrence run on polynomials, so
a point costs one gather and one small product.  The dense tables are
scatters of the local values.  Inputs outside [0, 1] are clamped to it,
so downstream consumers never see a non-finite basis value and the
splines extend as constants.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt
from numpy.lib.stride_tricks import sliding_window_view

Array = npt.NDArray[np.float64]


@dataclass(frozen=True)
class BSplineBasis:
    """Clamped uniform B-spline basis of degree ``degree`` on ``[0, 1]``.

    The knot vector repeats each boundary ``degree + 1`` times and places
    ``intervals - 1`` uniformly spaced interior knots, giving ``intervals``
    polynomial pieces and ``intervals + degree`` basis functions.
    ``power[s, j, r]`` is the coefficient of ``c**j`` in function ``s + r``
    on the ``s``-th piece, with ``c = G x - s - 1/2`` in ``[-1/2, 1/2]``
    across it.
    """

    degree: int
    intervals: int
    knots: Array
    power: Array

    @property
    def size(self) -> int:
        """Number of basis functions, ``intervals + degree``."""
        return self.intervals + self.degree


def make_basis(degree: int, intervals: int) -> BSplineBasis:
    """Build a clamped uniform basis of the given degree on ``[0, 1]``.

    Parameters
    ----------
    degree : int
        Spline degree, at least 1.
    intervals : int
        Number of polynomial pieces, at least 1.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if intervals < 1:
        raise ValueError(f"intervals must be >= 1, got {intervals}")
    return BSplineBasis(degree, intervals, _integer_knots(degree, intervals) / intervals,
                        _power_table(degree, intervals))


def _integer_knots(degree: int, intervals: int) -> Array:
    """The clamped knot vector in knot units: 0 and G repeated ``degree + 1`` times."""
    return np.concatenate([np.zeros(degree), np.arange(intervals + 1.0),
                           np.full(degree, float(intervals))])


def _power_table(degree: int, intervals: int) -> Array:
    """Power-form coefficients ``(intervals, k+1, k+1)`` of every span.

    Runs the Cox-de Boor triangle (Piegl & Tiller, algorithm A2.2) on
    polynomials in c, for all pieces at once, over the integer knots
    ``0 .. G``.  On piece s, t = s + 1/2 + c, so each factor ``t - tau``
    or ``tau - t`` is c plus or minus a multiple of 1/2, and each
    denominator is a difference of integer knots: the recurrence rounds
    only in its products and sums.  Expanded about the middle of its span,
    a value sums terms of at most 2.5 in size (k <= 5, G <= 40); in powers
    of c + 1/2 they reach 80, and rounding near the right end of a span
    then puts values that should be zero below zero.
    """
    k = degree
    knots = _integer_knots(k, intervals)
    first = np.arange(intervals) + k + 1  # index of each piece's right knot
    mid = np.arange(intervals) + 0.5
    # vals[:, :, r]: coefficients in c of function span - j + r at degree j
    vals = np.zeros((intervals, k + 1, k + 1))
    vals[:, 0, 0] = 1.0
    for j in range(1, k + 1):
        saved = np.zeros((intervals, k + 1))
        for r in range(j):
            right, left = knots[first + r], knots[first + r - j]
            temp = vals[:, :, r] / (right - left)[:, None]
            # right - t = (right - mid) - c and t - left = (mid - left) + c
            vals[:, :, r] = saved + (right - mid)[:, None] * temp
            vals[:, 1:, r] -= temp[:, :-1]
            saved = (mid - left)[:, None] * temp
            saved[:, 1:] += temp[:, :-1]
        vals[:, :, j] = saved
    return vals


def greville_abscissae(basis: BSplineBasis) -> Array:
    """Knot averages ``(t_q+1 + ... + t_q+k) / k``, one per basis function.

    Coefficients set to an affine function at these points reproduce that
    function exactly; the first and last abscissae are 0 and 1.
    """
    # row q of the windows is t[q+1 : q+k+1]; the knots hold size + k + 1 entries
    return sliding_window_view(basis.knots[1:-1], basis.degree).mean(axis=1)


def eval_local(basis: BSplineBasis, x: Array, span: Array, vals: Array, derivs: Array,
               work: Array) -> None:
    """Nonzero basis values and first derivatives at points in ``[0, 1]``.

    Writes into arrays the caller gives, so that a batch evaluated again
    refills the same memory: ``span`` (n,) of an integer type gets the
    index of the knot interval ``[t_span, t_span+1)`` holding each point,
    and ``vals`` and ``derivs`` (n, k+1) the values and derivatives of
    functions ``span-k .. span``, the only ones nonzero there.  ``work``
    (2k+1, n) is scratch; it, ``vals`` and ``derivs`` are C-contiguous
    float64.  In knot units t = G x the piece is ``s = min(floor(t), G -
    1)`` and ``span = s + k``: half-open spans give right-limit values at
    interior knots, and the top knot belongs to the last piece so
    partition of unity holds on the closed domain.

    Both come from ``basis.power``: with ``c = t - s - 1/2``, values are
    ``[1, c, .., c^k]`` times the piece's table and derivatives ``[1, 2c,
    .., k c^(k-1)] * G`` times its last ``k`` rows.  A span's functions
    depend only on the knots ``t_span-k+1 .. t_span+k``, so pieces ``k-1
    .. G-k`` share one cardinal table and take one matrix product; the
    rest gather theirs.
    """
    k, g = basis.degree, basis.intervals
    powers, slopes = work[: k + 1], work[k + 1 :]
    t = np.multiply(x, g, out=powers[1])
    # t >= 0, so truncation is the floor; t <= G keeps c <= 1/2.  The
    # lower bound only catches NaN, which then gives NaN values, not an
    # out-of-range index.
    np.copyto(span, t, casting="unsafe")
    np.minimum(span, g - 1, out=span)
    np.maximum(span, 0, out=span)
    powers[0] = 1.0
    powers[1] -= span
    powers[1] -= 0.5
    for j in range(2, k + 1):
        np.multiply(powers[j - 1], powers[1], out=powers[j])
    np.multiply(powers[:k], (np.arange(1, k + 1) * g)[:, None], out=slopes)
    # below G = 2k - 1 no piece is cardinal and every row is an edge row
    shared = basis.power[min(k - 1, g - 1)]
    np.matmul(powers.T, shared, out=vals)
    np.matmul(slopes.T, shared[1:], out=derivs)
    edge = np.flatnonzero((span < k - 1) | (span > g - k))
    if edge.size:
        rows = basis.power[span[edge]]
        vals[edge] = np.einsum("jn,njr->nr", powers.take(edge, axis=1), rows)
        derivs[edge] = np.einsum("jn,njr->nr", slopes.take(edge, axis=1), rows[:, 1:])
    span += k
    # At the top knot only the last function is nonzero, and it is 1; the
    # power form leaves rounding there that can put a value below zero.
    top = np.flatnonzero(x >= 1.0)
    vals[top] = 0.0
    vals[top, k] = 1.0


def _local(basis: BSplineBasis, x: Array) -> tuple[Array, Array, Array]:
    """``(span, vals, derivs)`` of ``eval_local`` in fresh arrays."""
    n, k = x.shape[0], basis.degree
    span, vals, derivs = np.empty(n, dtype=np.intp), np.empty((n, k + 1)), np.empty((n, k + 1))
    eval_local(basis, x, span, vals, derivs, np.empty((2 * k + 1, n)))
    return span, vals, derivs


def _scatter(basis: BSplineBasis, span: Array, local: Array) -> Array:
    """Dense ``(n, size)`` table from the ``(n, k+1)`` nonzero entries."""
    k = basis.degree
    dense = np.zeros((span.shape[0], basis.size))
    cols = span[:, None] - k + np.arange(k + 1)
    np.put_along_axis(dense, cols, local, axis=1)
    return dense


def _clean_input(x) -> tuple[Array, bool]:
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if arr.ndim != 1:
        raise ValueError("evaluation points must be a scalar or 1-d array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("evaluation points must be finite")
    return np.clip(arr, 0.0, 1.0), scalar


def eval_basis(basis: BSplineBasis, x) -> Array:
    """Evaluate all basis functions at ``x``.

    ``x`` may be a scalar or 1-d array; out-of-domain points are clamped.
    Returns shape ``(size,)`` for scalar input, else ``(len(x), size)``.
    """
    pts, scalar = _clean_input(x)
    span, vals, _ = _local(basis, pts)
    dense = _scatter(basis, span, vals)
    return dense[0] if scalar else dense


def eval_basis_derivative(basis: BSplineBasis, x) -> Array:
    """First derivatives of all basis functions at ``x``.

    Where ``G x`` is an integer below ``G`` (an interior knot, or 0) the
    right limit is returned; at 1 the last piece's polynomial gives the
    left limit.  The derivative is zero in the clamped region outside
    ``[0, 1]``.
    """
    pts, scalar = _clean_input(x)
    span, _, derivs = _local(basis, pts)
    raw = np.atleast_1d(np.asarray(x, dtype=np.float64))
    derivs[(raw < 0.0) | (raw > 1.0)] = 0.0
    dense = _scatter(basis, span, derivs)
    return dense[0] if scalar else dense
