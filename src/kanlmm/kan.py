"""Two-layer network with learnable B-spline edge activations.

The network computes, for input x in R^d_in,

    y_m = sum_j phi_out[m,j]( z_j ),    z_j = sum_i phi_in[j,i]( x_i ),

where every phi is a spline sum_q c_q B_q(.) over one basis, which both
layers share.  Input coordinates are affinely rescaled from their data
range into the basis domain [0, 1]; hidden sums are rescaled into [0, 1]
over a range calibrated once at initialization, so the basis stays
static during training.  Inputs falling outside either range are
clamped, extending the splines as constants.

All learnable state lives in two dense coefficient arrays:

    inner_coeffs (hidden, d_in, inner_size)   hidden unit, then input, then basis
    outer_coeffs (d_out, hidden, outer_size)  output, then hidden unit, then basis

Each is stored output-minor: a view of a C-order (inputs * size, outputs)
array, as the sparse basis products read and write it.  ``flat_view``
gives that memory as one vector, so training updates a network in place;
no other module knows the order.  The flat parameter vector is still
inner_coeffs.ravel() followed by outer_coeffs.ravel(), in C order.

``BatchEvaluator`` runs the passes over a fixed batch.  It holds each
layer's basis as a sparse matrix with a fixed sparsity structure: the
outer one is refilled in place on every ``forward``, which returns a
fresh output array.  All its per-point arrays are allocated once, so one
evaluator serves one forward/backward sequence at a time.  The first
``backward`` builds the transposes of both matrices, as CSC views of the
same arrays, and keeps them; a one-row evaluator, as ``forward`` builds
for a single point, never pays for them.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from scipy import sparse

from .bspline import BSplineBasis, eval_local, greville_abscissae, make_basis

Array = npt.NDArray[np.float64]

MODEL_VERSION = 1
CORNER_ENUM_LIMIT = 10  # enumerate all 2^d input-box corners only up to here
CALIBRATION_SAMPLES = 1024
# backward gathers outer coefficients for blocks of samples of at most this
# many entries (256 KB), so that one block stays in a core's cache.
GATHER_BLOCK = 1 << 15


class ModelFormatError(ValueError):
    """A model document is malformed or inconsistent."""


class ModelVersionError(ModelFormatError):
    """A model document has an unsupported version tag."""


@dataclass(frozen=True)
class KanNetwork:
    """Two-layer spline network; see the module docstring for the layout.

    The fields are read-only: ``set_params`` is the one writer of the
    coefficients, and ``dataclasses.replace`` builds a changed copy.  The
    input ranges are private read-only copies, so no write can get past
    the finiteness check; the coefficients stay writable for ``flat_view``.
    """

    basis: BSplineBasis
    input_lo: Array
    input_hi: Array
    hidden_lo: float
    hidden_hi: float
    inner_coeffs: Array
    outer_coeffs: Array

    def __post_init__(self):
        for name in ("input_lo", "input_hi"):
            # Copy first, so that the caller's own array stays writable.
            bounds = np.array(getattr(self, name), dtype=np.float64)
            bounds.setflags(write=False)
            object.__setattr__(self, name, bounds)
        object.__setattr__(self, "inner_coeffs", _output_minor(self.inner_coeffs))
        object.__setattr__(self, "outer_coeffs", _output_minor(self.outer_coeffs))
        hidden, d_in, p_in = self.inner_coeffs.shape
        d_out, hidden2, p_out = self.outer_coeffs.shape
        if hidden2 != hidden:
            raise ValueError("inner and outer coefficient arrays disagree on hidden width")
        if p_in != self.basis.size or p_out != self.basis.size:
            raise ValueError("coefficient vectors must match the basis size")
        if self.input_lo.shape != (d_in,) or self.input_hi.shape != (d_in,):
            raise ValueError("input_range must provide one (lo, hi) pair per input")
        numbers = (self.input_lo, self.input_hi, self.hidden_lo, self.hidden_hi,
                   self.inner_coeffs, self.outer_coeffs)
        if not all(np.all(np.isfinite(a)) for a in numbers):
            raise ValueError("coefficients and rescaling ranges must be finite")
        if np.any(self.input_hi <= self.input_lo) or not self.hidden_hi > self.hidden_lo:
            raise ValueError("all rescaling ranges must have positive width")

    @property
    def d_in(self) -> int:
        return self.inner_coeffs.shape[1]

    @property
    def hidden(self) -> int:
        return self.inner_coeffs.shape[0]

    @property
    def d_out(self) -> int:
        return self.outer_coeffs.shape[0]

    @property
    def degree(self) -> int:
        return self.basis.degree

    @property
    def intervals(self) -> int:
        return self.basis.intervals

    @property
    def n_params(self) -> int:
        return self.inner_coeffs.size + self.outer_coeffs.size

    # read-only aliases of ``basis``; the benchmark harness is their only reader
    inner_basis = outer_basis = property(lambda self: self.basis)


def _output_minor(coeffs) -> Array:
    """An output-minor copy of ``coeffs`` (outputs, inputs, size), even of one already so."""
    return np.asarray(coeffs, dtype=np.float64).transpose(1, 2, 0).copy().transpose(2, 0, 1)


def flat_view(coeffs: Array) -> Array:
    """A one-dimensional view of an output-minor array's memory.

    Network coefficients and the gradients of ``BatchEvaluator.backward``
    are stored so.  Entry (i * size + q) * outputs + j is ``coeffs[j, i, q]``.
    """
    memory = coeffs.transpose(1, 2, 0)
    if not memory.flags.c_contiguous:
        raise ValueError("coefficient array is not stored output-minor")
    return memory.reshape(-1)


def init_network(d_in: int, d_out: int | None = None, hidden: int | None = None,
                 degree: int = 3, intervals: int = 64,
                 input_range=None, seed: int = 0) -> KanNetwork:
    """Random network of affine edges with a calibrated hidden range.

    Defaults: d_out = d_in and hidden = 2*d_in + 1.  ``input_range`` is a
    (d_in, 2) array of per-coordinate data ranges; omitted, the unit box.
    Every edge, inner and outer, starts as a random affine function of its
    rescaled input: its values at the two ends of the basis domain are
    drawn uniformly from [-s, s] with the Xavier bound s = sqrt(6/(fan_in
    + fan_out)) counted at the node owning the activation, (d_in + d_out)
    for inner edges and (hidden + 0) for outer edges, and its coefficients
    are that line at the Greville abscissae.  The coefficients therefore
    lie on a line and inside [-s, s].  A smooth start keeps each hidden
    sum from sweeping across many outer-grid intervals between successive
    samples, which would alias the outer splines along the trajectory.

    The hidden range is the span of the hidden sums over the input-box
    corners (all 2^d_in when d_in <= 10, else 1024 random sign corners)
    plus 1024 uniform samples, padded by 10% on each side.  The basis is a
    partition of unity that reproduces x from its Greville abscissae, so
    an inner edge with end values (e0, e1) is exactly the line
    (1 - x) e0 + x e1, and the sums come in closed form from one dense
    product, z = sum_i (1 - xhat_i) e0[:, i] + xhat_i e1[:, i], with no
    basis evaluation.  At a corner each edge contributes exactly its end
    value, as the spline itself does there.  Draw order is fixed (inner
    end values, calibration points, outer end values) so a seed pins down
    the whole network.
    """
    if d_in < 1:
        raise ValueError(f"d_in must be >= 1, got {d_in}")
    d_out = d_in if d_out is None else d_out
    hidden = 2 * d_in + 1 if hidden is None else hidden
    if d_out < 1 or hidden < 1:
        raise ValueError("d_out and hidden must be >= 1")
    if input_range is None:
        input_range = np.column_stack([np.zeros(d_in), np.ones(d_in)])
    input_range = np.asarray(input_range, dtype=np.float64)
    if input_range.shape != (d_in, 2):
        raise ValueError(f"input_range must be (d_in, 2), got {input_range.shape}")
    lo, hi = input_range[:, 0].copy(), input_range[:, 1].copy()
    if np.any(hi <= lo):
        raise ValueError("each input range must have positive width")

    basis = make_basis(degree, intervals)
    xi = greville_abscissae(basis)
    rng = np.random.default_rng(seed)

    def affine_edges(bound: float, shape: tuple) -> tuple[Array, Array]:
        """Coefficients of random lines, and their end values (*shape, 2)."""
        ends = rng.uniform(-bound, bound, size=(*shape, 2))
        return ends[..., :1] * (1.0 - xi) + ends[..., 1:] * xi, ends

    inner, ends = affine_edges(np.sqrt(6.0 / (d_in + d_out)), (hidden, d_in))

    if d_in <= CORNER_ENUM_LIMIT:
        bits = ((np.arange(2 ** d_in)[:, None] >> np.arange(d_in)) & 1).astype(np.float64)
    else:
        bits = rng.integers(0, 2, size=(CALIBRATION_SAMPLES, d_in)).astype(np.float64)
    corners = lo + bits * (hi - lo)
    interior = rng.uniform(lo, hi, size=(CALIBRATION_SAMPLES, d_in))
    probe = np.vstack([corners, interior])
    xhat = np.clip((probe - lo) / (hi - lo), 0.0, 1.0)
    # weights (n, d_in * 2) interleave 1 - xhat and xhat as ends holds e0, e1
    weights = np.stack([1.0 - xhat, xhat], axis=-1).reshape(len(xhat), -1)
    z = weights @ ends.reshape(hidden, -1).T
    z_lo, z_hi = float(z.min()), float(z.max())
    span = z_hi - z_lo
    if span < 1e-12:
        z_lo, z_hi, span = z_lo - 0.5, z_hi + 0.5, 1.0
    hidden_lo = z_lo - 0.1 * span
    hidden_hi = z_hi + 0.1 * span

    outer, _ = affine_edges(np.sqrt(6.0 / hidden), (d_out, hidden))

    return KanNetwork(
        basis=basis, input_lo=lo, input_hi=hi,
        hidden_lo=hidden_lo, hidden_hi=hidden_hi,
        inner_coeffs=inner, outer_coeffs=outer,
    )


def _basis_pattern(basis: BSplineBasis, n: int, d: int) -> sparse.csr_array:
    """A CSR matrix (n, d * size) holding k+1 entries per input in every row.

    Every row has d * (k+1) entries, so ``indptr`` is fixed and only
    ``data`` and ``indices`` change; ``_fill_basis`` writes them in place.
    Until then a row holds zeros in its first d * (k+1) columns: a valid
    matrix.
    """
    width = d * (basis.degree + 1)
    return sparse.csr_array((np.zeros(n * width), np.tile(np.arange(width), n),
                             np.arange(n + 1) * width), shape=(n, d * basis.size))


def _fill_basis(basis: BSplineBasis, points: Array, matrix: sparse.csr_array, derivs: Array,
                span: Array, work: Array) -> None:
    """Write one layer's basis at n samples of d clamped inputs into ``matrix``.

    ``matrix`` comes from ``_basis_pattern``.  Row b gets the k+1 nonzero
    basis values of every input of sample b, input i's in columns
    i * size + span - k .. i * size + span; the blocks follow the inputs,
    so the column indices of a row ascend without a sort.  Multiplied by
    the layer's coefficients reshaped (outputs, d * size) and transposed,
    it gives the layer's sums.  ``derivs`` (n, d, k+1) gets the matching
    derivatives; ``span`` (n * d,) and ``work`` (2k+1, n * d) are scratch.
    """
    n, d = points.shape
    k = basis.degree
    eval_local(basis, points.reshape(-1), span, matrix.data.reshape(-1, k + 1),
               derivs.reshape(-1, k + 1), work)
    first = span.reshape(n, d)
    first += basis.size * np.arange(d) - k
    # one column at a time: a broadcast over the short last axis buffers
    indices = matrix.indices.reshape(n * d, k + 1)
    for r in range(k + 1):
        np.add(span, r, out=indices[:, r])


class BatchEvaluator:
    """Forward/backward passes over a fixed sample batch.

    The inner basis matrix depends only on the samples, so it is built
    once.  The outer one moves with the coefficients but keeps its
    sparsity structure: it is built once too, and ``forward`` refills its
    values and column indices in place.  Every per-point array is
    allocated here, so a training iteration faults in no fresh pages for
    them.  ``forward`` returns a fresh array, which the caller may keep;
    ``backward`` reads what the last ``forward`` left, so one evaluator
    serves one forward/backward sequence at a time.

    The products read each layer's coefficients as ``coeffs.reshape(
    outputs, -1).T``; for arrays stored output-minor, as every network
    holds them, that is a C-contiguous view and nothing is copied.
    ``backward`` returns its gradients output-minor too.
    """

    def __init__(self, net: KanNetwork, x: Array):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != net.d_in:
            raise ValueError(f"batch must be (n, {net.d_in})")
        if not np.all(np.isfinite(x)):
            raise ValueError("batch contains non-finite samples")
        self.net = net
        basis, (n, d_in), hidden, k = net.basis, x.shape, net.hidden, net.degree
        xhat = np.clip((x - net.input_lo) / (net.input_hi - net.input_lo), 0.0, 1.0)
        self._inner = _basis_pattern(basis, n, d_in)
        _fill_basis(basis, xhat, self._inner, np.empty((n, d_in, k + 1)),
                    np.empty(n * d_in, np.intp), np.empty((2 * k + 1, n * d_in)))
        self.hidden_slope = 1.0 / (net.hidden_hi - net.hidden_lo)
        self._outer = _basis_pattern(basis, n, hidden)
        self._outer_derivs = np.empty((n, hidden, k + 1))
        self._span = np.empty(n * hidden, np.intp)
        self._inside = np.empty((n, hidden), dtype=bool)
        # eval_local's scratch in forward; backward's slopes and dz after it
        self._work = np.empty((2 * k + 1, n * hidden))
        width = hidden * (k + 1)
        block = max(1, GATHER_BLOCK // (width * net.d_out))
        self._gather = np.empty((min(n, block), width, net.d_out))
        self._forwarded = False
        self._transposes = None  # (outer.T, inner.T), built by the first backward

    def hidden_sums(self, inner_coeffs: Array) -> Array:
        """Hidden sums z (n, hidden) of the batch under ``inner_coeffs``."""
        return self._inner @ inner_coeffs.reshape(inner_coeffs.shape[0], -1).T

    def forward(self, inner_coeffs: Array, outer_coeffs: Array) -> Array:
        zraw = self.hidden_sums(inner_coeffs)
        zraw -= self.net.hidden_lo
        zraw *= self.hidden_slope
        np.greater(zraw, 0.0, out=self._inside)
        self._inside &= zraw < 1.0
        np.clip(zraw, 0.0, 1.0, out=zraw)
        _fill_basis(self.net.basis, zraw, self._outer, self._outer_derivs, self._span, self._work)
        self._forwarded = True
        return self._outer @ outer_coeffs.reshape(outer_coeffs.shape[0], -1).T

    def backward(self, outer_coeffs: Array, upstream: Array) -> tuple[Array, Array]:
        """Gradients of sum_b <upstream_b, forward_b> from the last forward pass."""
        if not self._forwarded:
            raise RuntimeError("backward requires a preceding forward pass")
        if self._transposes is None:
            # CSC views sharing data, indices and indptr with the CSR
            # matrices, so forward's in-place refill keeps them current
            self._transposes = (self._outer.T, self._inner.T)
        outer_t, inner_t = self._transposes
        n, hidden, k1 = self._outer_derivs.shape
        grad_outer = (outer_t @ upstream).T.reshape(outer_coeffs.shape)
        coeffs = outer_coeffs.reshape(outer_coeffs.shape[0], -1).T
        # the basis matrix's column indices are the flat positions of the
        # outer coefficients at the nonzero functions, hidden * (k+1) per sample
        idx = self._outer.indices.reshape(n, -1)
        slopes = self._work[:k1].reshape(n, -1)
        block = self._gather.shape[0]
        for lo in range(0, n, block):
            rows = slice(lo, lo + block)
            picked = self._gather[: idx[rows].shape[0]]  # (block, hidden * (k+1), d_out)
            # mode="clip" gathers without buffering; the indices are in range
            coeffs.take(idx[rows], axis=0, out=picked, mode="clip")
            np.matmul(picked, upstream[rows, :, None], out=slopes[rows].reshape(*picked.shape[:2], 1))
        dz = np.einsum("bjr,bjr->bj", slopes.reshape(n, hidden, k1), self._outer_derivs,
                       out=self._work[k1].reshape(n, hidden))
        dz *= self.hidden_slope
        dz *= self._inside
        grad_inner = (inner_t @ dz).T.reshape(self.net.inner_coeffs.shape)
        return grad_inner, grad_outer


def forward(net: KanNetwork, x) -> Array:
    """Evaluate the network at one point (d_in,) or a batch (n, d_in)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    batch = x[None, :] if single else x
    out = BatchEvaluator(net, batch).forward(net.inner_coeffs, net.outer_coeffs)
    return out[0] if single else out


def field(net: KanNetwork):
    """The network as a state -> derivative callable: ``forward`` at one point.

    Callers must not change the network's coefficients while they use the
    field, so that its body may evaluate a snapshot of them.
    """
    return lambda y: forward(net, y)


def gradient(net: KanNetwork, x, upstream) -> Array:
    """Flat gradient of <upstream, forward(net, x)> in parameter order."""
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if not np.all(np.isfinite(upstream)):
        raise ValueError("upstream vector must be finite")
    single = x.ndim == 1
    batch = x[None, :] if single else x
    w = upstream[None, :] if single else upstream
    ev = BatchEvaluator(net, batch)
    ev.forward(net.inner_coeffs, net.outer_coeffs)
    grad_inner, grad_outer = ev.backward(net.outer_coeffs, w)
    return np.concatenate([grad_inner.ravel(), grad_outer.ravel()])


def get_params(net: KanNetwork) -> Array:
    return np.concatenate([net.inner_coeffs.ravel(), net.outer_coeffs.ravel()])


def set_params(net: KanNetwork, vec: Array) -> None:
    """Copy ``vec`` into the network's coefficients, in parameter order.

    The arrays keep their memory, so ``flat_view``s of them stay live.  A
    vector of the wrong length or with a non-finite entry raises
    ``ValueError`` and leaves the network unchanged.
    """
    vec = np.asarray(vec, dtype=np.float64)
    n_in = net.inner_coeffs.size
    if vec.shape != (net.n_params,):
        raise ValueError(f"expected {net.n_params} parameters, got {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ValueError("parameters must be finite")
    net.inner_coeffs[...] = vec[:n_in].reshape(net.inner_coeffs.shape)
    net.outer_coeffs[...] = vec[n_in:].reshape(net.outer_coeffs.shape)


def to_document(net: KanNetwork) -> dict:
    """Plain-dict model document; all arrays as nested lists."""
    return {
        "version": MODEL_VERSION,
        "d_in": net.d_in,
        "N": net.hidden,
        "d_out": net.d_out,
        "k": net.degree,
        "G": net.intervals,
        "input_range": np.column_stack([net.input_lo, net.input_hi]).tolist(),
        "hidden_range": [net.hidden_lo, net.hidden_hi],
        "inner_coeffs": net.inner_coeffs.tolist(),
        "outer_coeffs": net.outer_coeffs.tolist(),
    }


def serialize(net: KanNetwork) -> str:
    """JSON model document (numbers printed exactly round-trippable)."""
    return json.dumps(to_document(net), indent=1)


_INTEGER_KEYS = ("version", "d_in", "N", "d_out", "k", "G")
_ARRAY_KEYS = ("input_range", "hidden_range", "inner_coeffs", "outer_coeffs")
_DOCUMENT_KEYS = {*_INTEGER_KEYS, *_ARRAY_KEYS}


def deserialize(text: str) -> KanNetwork:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not a valid model document: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    missing = _DOCUMENT_KEYS - set(doc)
    if missing:
        raise ModelFormatError(f"model document is missing keys: {sorted(missing)}")
    extra = set(doc) - _DOCUMENT_KEYS
    if extra:
        raise ModelFormatError(f"model document has unknown keys: {sorted(extra)}")
    # exactly int: bool subclasses int, and a float or a string is no count
    not_int = [key for key in _INTEGER_KEYS if type(doc[key]) is not int]
    if not_int:
        raise ModelFormatError(f"model document fields {not_int} must be JSON integers")
    if doc["version"] != MODEL_VERSION:
        raise ModelVersionError(
            f"unsupported model version {doc['version']!r}, expected {MODEL_VERSION}"
        )
    d_in, n, d_out, k, g = (doc[key] for key in _INTEGER_KEYS[1:])
    try:
        arrays = [np.asarray(doc[key], dtype=object) for key in _ARRAY_KEYS]
        # exactly int or float: a float64 conversion would read "1" and true as numbers
        not_numbers = [key for key, a in zip(_ARRAY_KEYS, arrays)
                       if not set(map(type, a.flat)) <= {int, float}]
        if not_numbers:
            raise TypeError(f"{not_numbers} must hold only JSON numbers")
        input_range, hidden_range, inner, outer = (a.astype(np.float64) for a in arrays)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"model document has malformed fields: {exc}") from None
    if input_range.shape != (d_in, 2) or hidden_range.shape != (2,):
        raise ModelFormatError("model ranges do not match the declared dimensions")
    if inner.shape != (n, d_in, g + k) or outer.shape != (d_out, n, g + k):
        raise ModelFormatError("coefficient arrays do not match the declared shape")
    try:
        return KanNetwork(
            basis=make_basis(k, g), input_lo=input_range[:, 0], input_hi=input_range[:, 1],
            hidden_lo=float(hidden_range[0]), hidden_hi=float(hidden_range[1]),
            inner_coeffs=inner, outer_coeffs=outer,
        )
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None


def save_model(net: KanNetwork, path) -> None:
    with open(path, "w") as fh:
        fh.write(serialize(net))
        fh.write("\n")


def load_model(path) -> KanNetwork:
    with open(path) as fh:
        return deserialize(fh.read())
