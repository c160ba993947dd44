"""Spline-network tests.

Forward evaluation is checked against a naive per-sample, per-edge loop,
gradients against central finite differences, the sparse batch passes
against dense basis tables, and the JSON model format against exact
round trips and a catalogue of malformed documents.
"""
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import numpy.testing as npt
import pytest

from kanlmm import kan
from kanlmm.bspline import eval_basis, eval_basis_derivative


def naive_forward(net: kan.KanNetwork, x: np.ndarray) -> np.ndarray:
    """Straight-line reimplementation of the network with scalar loops."""
    out = np.zeros(net.d_out)
    z = np.zeros(net.hidden)
    for j in range(net.hidden):
        for i in range(net.d_in):
            xh = (x[i] - net.input_lo[i]) / (net.input_hi[i] - net.input_lo[i])
            xh = min(max(xh, 0.0), 1.0)
            b = eval_basis(net.basis, np.array([xh]))[0]
            z[j] += float(net.inner_coeffs[j, i] @ b)
    for m in range(net.d_out):
        for j in range(net.hidden):
            zh = (z[j] - net.hidden_lo) / (net.hidden_hi - net.hidden_lo)
            zh = min(max(zh, 0.0), 1.0)
            b = eval_basis(net.basis, np.array([zh]))[0]
            out[m] += float(net.outer_coeffs[m, j] @ b)
    return out


def random_net(rng, d_in, d_out, hidden, degree, intervals):
    lo = rng.uniform(-2.0, 0.0, d_in)
    hi = lo + rng.uniform(0.5, 2.0, d_in)
    return kan.init_network(d_in, d_out, hidden, degree, intervals,
                            input_range=np.column_stack([lo, hi]),
                            seed=int(rng.integers(1 << 31)))


@pytest.mark.parametrize("d_in,d_out,hidden,degree,intervals", [
    (1, 1, 1, 1, 1),
    (1, 2, 3, 2, 3),
    (2, 2, 5, 3, 8),
    (3, 1, 4, 3, 5),
    (2, 3, 2, 4, 4),
])
def test_forward_matches_naive_loop(d_in, d_out, hidden, degree, intervals):
    rng = np.random.default_rng(d_in * 100 + d_out * 10 + hidden)
    net = random_net(rng, d_in, d_out, hidden, degree, intervals)
    # include points well outside the declared input range
    x = rng.uniform(-4.0, 4.0, size=(12, d_in))
    got = kan.forward(net, x)
    expected = np.array([naive_forward(net, xi) for xi in x])
    npt.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
    for xi, row in zip(x, expected):
        npt.assert_allclose(kan.forward(net, xi), row, rtol=1e-12, atol=1e-12)


def test_single_point_forward_shape():
    net = kan.init_network(2, 3, hidden=4, seed=5)
    y = kan.forward(net, np.array([0.3, 0.7]))
    assert y.shape == (3,)
    batch = kan.forward(net, np.array([[0.3, 0.7]]))
    npt.assert_array_equal(batch[0], y)


@pytest.mark.parametrize("seed", range(6))
def test_gradient_matches_central_differences(seed):
    rng = np.random.default_rng(seed)
    d_in = int(rng.integers(1, 4))
    net = random_net(rng, d_in, int(rng.integers(1, 4)),
                     int(rng.integers(1, 5)), 3, int(rng.integers(2, 6)))
    x = rng.uniform(-1.5, 1.0, size=(7, d_in))
    upstream = rng.standard_normal((7, net.d_out))
    grad = kan.gradient(net, x, upstream)

    params = kan.get_params(net)
    eps = 1e-6
    fd = np.empty_like(grad)
    for i in range(params.size):
        for sign, slot in ((1.0, 0), (-1.0, 1)):
            p = params.copy()
            p[i] += sign * eps
            kan.set_params(net, p)
            val = float(np.sum(upstream * kan.forward(net, x)))
            if slot == 0:
                up = val
            else:
                down = val
        fd[i] = (up - down) / (2 * eps)
    kan.set_params(net, params)
    rel = np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad)))
    assert rel <= 1e-6


def test_zero_coefficients_give_zero_output():
    net = kan.init_network(2, 2, hidden=3, seed=0)
    kan.set_params(net, np.zeros(net.n_params))
    x = np.random.default_rng(0).uniform(0, 1, size=(5, 2))
    npt.assert_array_equal(kan.forward(net, x), np.zeros((5, 2)))


def test_constant_outer_coefficients_sum_to_hidden_width():
    # with every outer coefficient equal to c, partition of unity makes
    # each output exactly hidden * c regardless of the input
    net = kan.init_network(2, 2, hidden=7, seed=3)
    net = replace(net, outer_coeffs=np.full_like(net.outer_coeffs, 0.25))
    x = np.random.default_rng(1).uniform(-3, 3, size=(9, 2))
    npt.assert_allclose(kan.forward(net, x), 7 * 0.25, rtol=1e-13)


def test_output_is_linear_in_outer_coefficients():
    net = kan.init_network(2, 1, hidden=3, seed=2)
    rng = np.random.default_rng(4)
    a = rng.standard_normal(net.outer_coeffs.shape)
    b = rng.standard_normal(net.outer_coeffs.shape)
    x = rng.uniform(0, 1, size=(6, 2))
    ya = kan.forward(replace(net, outer_coeffs=a), x)
    yb = kan.forward(replace(net, outer_coeffs=b), x)
    npt.assert_allclose(kan.forward(replace(net, outer_coeffs=a + b), x), ya + yb,
                        rtol=1e-12, atol=1e-13)


def test_field_is_forward_at_one_point():
    net = kan.init_network(2, 3, hidden=4, seed=5,
                           input_range=np.array([[0.0, 1.0], [-1.0, 2.0]]))
    f = kan.field(net)
    # inside the box, outside it, and on its top edge
    for y in ([0.3, 0.7], [-5.0, 9.0], [1.0, 2.0], [0.5, 2.0]):
        y = np.array(y)
        assert f(y).tobytes() == kan.forward(net, y).tobytes()


def test_out_of_range_inputs_clamp_to_boundary_values():
    net = kan.init_network(2, 2, hidden=3, seed=7,
                           input_range=np.array([[0.0, 1.0], [-1.0, 2.0]]))
    at_corner = kan.forward(net, np.array([0.0, 2.0]))
    far_out = kan.forward(net, np.array([-50.0, 99.0]))
    npt.assert_array_equal(far_out, at_corner)
    # continuity approaching the boundary from inside
    near = kan.forward(net, np.array([1e-9, 2.0 - 1e-9]))
    npt.assert_allclose(near, at_corner, atol=1e-6)


class TestInit:
    def test_defaults(self):
        net = kan.init_network(3, seed=0)
        assert (net.d_in, net.d_out, net.hidden) == (3, 3, 7)
        assert net.degree == 3 and net.intervals == 64
        npt.assert_array_equal(net.input_lo, np.zeros(3))
        npt.assert_array_equal(net.input_hi, np.ones(3))

    def test_coefficient_bounds(self):
        net = kan.init_network(2, 2, hidden=5, seed=11)
        s_in = np.sqrt(6.0 / 4.0)
        s_out = np.sqrt(6.0 / 5.0)
        assert np.max(np.abs(net.inner_coeffs)) <= s_in
        assert np.max(np.abs(net.outer_coeffs)) <= s_out
        # uniform draws should come close to the bound
        assert np.max(np.abs(net.inner_coeffs)) > 0.9 * s_in

    def test_edges_start_affine_inside_bound(self):
        net = kan.init_network(3, 2, hidden=6, degree=3, intervals=9, seed=4)
        u = np.linspace(0.0, 1.0, 11)
        for coeffs, bound in ((net.inner_coeffs, np.sqrt(6.0 / 5.0)),
                              (net.outer_coeffs, np.sqrt(6.0 / 6.0))):
            assert np.max(np.abs(coeffs)) <= bound
            # Greville abscissae are evenly spaced away from the clamped
            # ends, so coefficients on a line have zero second differences
            npt.assert_allclose(np.diff(coeffs[..., 2:-2], n=2, axis=-1), 0.0, atol=1e-14)
            # and every edge function is affine in its rescaled input
            edge_vals = coeffs @ eval_basis(net.basis, u).T
            npt.assert_allclose(np.diff(edge_vals, n=2, axis=-1), 0.0, atol=1e-14)

    def test_seed_determinism(self):
        a = kan.init_network(2, 2, hidden=4, seed=9)
        b = kan.init_network(2, 2, hidden=4, seed=9)
        npt.assert_array_equal(a.inner_coeffs, b.inner_coeffs)
        npt.assert_array_equal(a.outer_coeffs, b.outer_coeffs)
        assert (a.hidden_lo, a.hidden_hi) == (b.hidden_lo, b.hidden_hi)
        c = kan.init_network(2, 2, hidden=4, seed=10)
        assert not np.array_equal(a.inner_coeffs, c.inner_coeffs)

    def test_hidden_range_covers_probe_outputs(self):
        net = kan.init_network(2, 2, hidden=4, seed=13)
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(256, 2))
        z = kan.BatchEvaluator(net, x).hidden_sums(net.inner_coeffs)
        frac_inside = np.mean((z >= net.hidden_lo) & (z <= net.hidden_hi))
        assert frac_inside > 0.99

    @pytest.mark.parametrize("d_in", [1, 2, 3, 4])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("intervals", [1, 4, 16])
    def test_hidden_range_is_padded_corner_span(self, d_in, degree, intervals):
        bits = (np.arange(2 ** d_in)[:, None] >> np.arange(d_in)) & 1
        for seed in range(3):
            rng = np.random.default_rng(seed)
            lo = rng.uniform(-2.0, 1.0, d_in)
            hi = lo + rng.uniform(0.5, 3.0, d_in)
            net = kan.init_network(d_in, hidden=5, degree=degree, intervals=intervals,
                                   input_range=np.column_stack([lo, hi]), seed=seed)
            corners = np.where(bits == 1, hi, lo)
            z = kan.BatchEvaluator(net, corners).hidden_sums(net.inner_coeffs)
            span = z.max() - z.min()
            # the hidden sums are affine, so they reach their extremes at the corners
            t = rng.uniform(size=(50, d_in))
            inside = kan.BatchEvaluator(net, lo + t * (hi - lo)).hidden_sums(net.inner_coeffs)
            npt.assert_allclose(inside, z[0] + t @ (z[2 ** np.arange(d_in)] - z[0]),
                                rtol=0, atol=1e-12 * span)
            assert net.hidden_lo == pytest.approx(z.min() - 0.1 * span, abs=1e-12 * span)
            assert net.hidden_hi == pytest.approx(z.max() + 0.1 * span, abs=1e-12 * span)

    def test_validation(self):
        with pytest.raises(ValueError):
            kan.init_network(0)
        with pytest.raises(ValueError):
            kan.init_network(2, hidden=0)
        with pytest.raises(ValueError):
            kan.init_network(2, input_range=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            kan.init_network(1, input_range=np.array([[1.0, 1.0]]))


class TestParams:
    def test_round_trip_and_layout(self):
        net = kan.init_network(2, 1, hidden=3, seed=1)
        vec = kan.get_params(net)
        assert vec.shape == (net.n_params,)
        npt.assert_array_equal(vec[: net.inner_coeffs.size],
                               net.inner_coeffs.ravel())
        npt.assert_array_equal(vec[net.inner_coeffs.size:],
                               net.outer_coeffs.ravel())
        kan.set_params(net, vec * 2.0)
        npt.assert_array_equal(kan.get_params(net), vec * 2.0)

    def test_set_params_copies(self):
        net = kan.init_network(1, 1, hidden=1, seed=0)
        vec = np.zeros(net.n_params)
        kan.set_params(net, vec)
        vec[:] = 5.0
        assert np.all(kan.get_params(net) == 0.0)

    def test_wrong_length_rejected(self):
        net = kan.init_network(1, 1, hidden=1, seed=0)
        with pytest.raises(ValueError):
            kan.set_params(net, np.zeros(net.n_params + 1))

    def test_set_params_is_the_only_writer(self):
        net = kan.init_network(2, 2, hidden=3, seed=0)
        before = kan.get_params(net)
        with pytest.raises(FrozenInstanceError):
            net.outer_coeffs = np.full_like(net.outer_coeffs, np.nan)
        with pytest.raises(FrozenInstanceError):
            net.hidden_lo = 0.0
        flat = kan.flat_view(net.inner_coeffs)
        bad = before.copy()
        bad[-1] = np.nan
        with pytest.raises(ValueError):
            kan.set_params(net, bad)
        npt.assert_array_equal(kan.get_params(net), before)
        # a flat view taken before set_params sees the new values
        kan.set_params(net, before + 1.0)
        npt.assert_array_equal(flat, net.inner_coeffs.transpose(1, 2, 0).ravel())
        npt.assert_array_equal(kan.get_params(net), before + 1.0)

    def test_input_ranges_are_read_only_copies(self):
        lo, hi = np.array([-1.0, 0.0]), np.array([1.0, 2.0])
        net = kan.init_network(2, 1, hidden=3, seed=0, input_range=np.column_stack([lo, hi]))
        with pytest.raises(ValueError):
            net.input_lo[0] = np.nan
        with pytest.raises(ValueError):
            net.input_hi[:] = 0.0
        assert np.all(np.isfinite(kan.forward(net, np.array([0.5, 1.0]))))
        moved = replace(net, input_lo=net.input_lo - 1.0)
        npt.assert_array_equal(moved.input_lo, [-2.0, -1.0])
        assert not moved.input_lo.flags.writeable
        npt.assert_array_equal(net.input_lo, [-1.0, 0.0])
        # the caller's own array is copied, not frozen
        direct = replace(net, input_hi=hi)
        hi[0] = 5.0
        assert direct.input_hi[0] == 1.0


def assert_output_minor(net: kan.KanNetwork) -> None:
    """Each layer's memory is (inputs * size, outputs) in C order, and flat_view is a view of it."""
    for coeffs in (net.inner_coeffs, net.outer_coeffs):
        flat = kan.flat_view(coeffs)
        assert np.shares_memory(flat, coeffs)
        npt.assert_array_equal(flat, coeffs.transpose(1, 2, 0).ravel())


class TestLayout:
    # shapes whose single output or hidden unit makes several layouts coincide
    SHAPES = [(1, 1, 1), (2, 1, 3), (1, 3, 1), (3, 2, 4)]

    @pytest.mark.parametrize("d_in,d_out,hidden", SHAPES)
    def test_networks_are_output_minor(self, d_in, d_out, hidden):
        net = kan.init_network(d_in, d_out, hidden=hidden, degree=2, intervals=3, seed=4)
        assert_output_minor(net)
        assert_output_minor(kan.deserialize(kan.serialize(net)))
        kan.set_params(net, np.arange(net.n_params, dtype=float))
        assert_output_minor(net)
        npt.assert_array_equal(kan.get_params(net), np.arange(net.n_params))

    @pytest.mark.parametrize("d_in,d_out,hidden", SHAPES)
    def test_network_shares_no_memory_with_its_arguments(self, d_in, d_out, hidden):
        net = kan.init_network(d_in, d_out, hidden=hidden, degree=2, intervals=3, seed=4)
        # C order, and the output-minor layout itself
        for inner, outer in ((net.inner_coeffs.copy(), net.outer_coeffs.copy()),
                             (net.inner_coeffs, net.outer_coeffs)):
            built = kan.KanNetwork(net.basis, net.input_lo, net.input_hi,
                                   net.hidden_lo, net.hidden_hi, inner, outer)
            assert not np.shares_memory(built.inner_coeffs, inner)
            assert not np.shares_memory(built.outer_coeffs, outer)
            assert_output_minor(built)
            npt.assert_array_equal(kan.get_params(built), kan.get_params(net))

    @pytest.mark.parametrize("d_in,d_out,hidden", SHAPES)
    def test_backward_gradients_are_output_minor(self, d_in, d_out, hidden):
        rng = np.random.default_rng(6)
        net = random_net(rng, d_in, d_out, hidden, 3, 5)
        x = rng.uniform(-2.0, 2.0, size=(7, d_in))
        ev = kan.BatchEvaluator(net, x)
        ev.forward(net.inner_coeffs, net.outer_coeffs)
        grads = ev.backward(net.outer_coeffs, rng.normal(size=(7, d_out)))
        for grad, coeffs in zip(grads, (net.inner_coeffs, net.outer_coeffs)):
            assert grad.shape == coeffs.shape
            assert np.shares_memory(kan.flat_view(grad), grad)

    def test_flat_view_rejects_other_layouts(self):
        net = kan.init_network(2, 2, hidden=3, seed=0)
        with pytest.raises(ValueError, match="output-minor"):
            kan.flat_view(np.ascontiguousarray(net.inner_coeffs))


class TestOneBasis:
    def test_one_basis_field(self):
        assert [f.name for f in fields(kan.KanNetwork)] == [
            "basis", "input_lo", "input_hi", "hidden_lo", "hidden_hi",
            "inner_coeffs", "outer_coeffs"]

    @pytest.mark.parametrize("build", ["init_network", "deserialize", "direct"])
    def test_layers_share_the_basis_and_round_trip(self, build):
        net = kan.init_network(2, 3, hidden=4, degree=2, intervals=5, seed=8)
        if build == "deserialize":
            net = kan.deserialize(kan.serialize(net))
        elif build == "direct":
            net = kan.KanNetwork(net.basis, net.input_lo, net.input_hi, net.hidden_lo,
                                 net.hidden_hi, net.inner_coeffs, net.outer_coeffs)
        assert net.inner_basis is net.outer_basis is net.basis
        assert (net.degree, net.intervals) == (2, 5)
        text = kan.serialize(net)
        assert kan.serialize(kan.deserialize(text)) == text

    def test_coefficients_must_match_the_basis(self):
        net = kan.init_network(2, 2, hidden=3, degree=3, intervals=4, seed=0)
        wider = np.zeros((2, 3, 10))  # a degree-2, G = 8 outer layer
        with pytest.raises(ValueError, match="basis size"):
            replace(net, outer_coeffs=wider)
        with pytest.raises(ValueError, match="basis size"):
            replace(net, inner_coeffs=np.zeros((3, 2, 10)))


class TestSerialization:
    def test_round_trip_is_exact(self):
        net = kan.init_network(2, 2, hidden=3, degree=2, intervals=5, seed=21,
                               input_range=np.array([[-1.3, 0.7], [0.0, 2.0]]))
        text = kan.serialize(net)
        back = kan.deserialize(text)
        npt.assert_array_equal(back.inner_coeffs, net.inner_coeffs)
        npt.assert_array_equal(back.outer_coeffs, net.outer_coeffs)
        npt.assert_array_equal(back.input_lo, net.input_lo)
        assert (back.hidden_lo, back.hidden_hi) == (net.hidden_lo, net.hidden_hi)
        assert kan.serialize(back) == text
        x = np.random.default_rng(2).uniform(-1, 2, size=(4, 2))
        npt.assert_array_equal(kan.forward(back, x), kan.forward(net, x))

    def test_file_round_trip(self, tmp_path):
        net = kan.init_network(1, 2, hidden=2, seed=3)
        path = tmp_path / "model.json"
        kan.save_model(net, path)
        back = kan.load_model(path)
        npt.assert_array_equal(kan.get_params(back), kan.get_params(net))

    def test_rejects_garbage(self):
        with pytest.raises(kan.ModelFormatError):
            kan.deserialize("not json at all {")
        with pytest.raises(kan.ModelFormatError):
            kan.deserialize("[1, 2, 3]")

    def test_rejects_missing_and_unknown_keys(self):
        doc = kan.to_document(kan.init_network(1, 1, hidden=1, seed=0))
        import json
        broken = dict(doc)
        del broken["inner_coeffs"]
        with pytest.raises(kan.ModelFormatError, match="missing"):
            kan.deserialize(json.dumps(broken))
        extra = dict(doc, note="hello")
        with pytest.raises(kan.ModelFormatError, match="unknown"):
            kan.deserialize(json.dumps(extra))

    def test_rejects_wrong_version(self):
        import json
        doc = kan.to_document(kan.init_network(1, 1, hidden=1, seed=0))
        doc["version"] = 99
        with pytest.raises(kan.ModelVersionError):
            kan.deserialize(json.dumps(doc))

    def test_rejects_shape_mismatch(self):
        import json
        doc = kan.to_document(kan.init_network(2, 2, hidden=2, seed=0))
        doc["N"] = 3
        with pytest.raises(kan.ModelFormatError, match="declared shape"):
            kan.deserialize(json.dumps(doc))

    def test_rejects_malformed_numbers(self):
        import json
        doc = kan.to_document(kan.init_network(1, 1, hidden=1, seed=0))
        doc["inner_coeffs"] = "zero"
        with pytest.raises(kan.ModelFormatError):
            kan.deserialize(json.dumps(doc))

    @pytest.mark.parametrize("path,value", [
        (("hidden_range",), "12"), (("hidden_range",), [True, 2]),
        (("input_range",), [["0", "1"]]), (("inner_coeffs", 0, 0, 5), "0.5"),
        (("outer_coeffs", 0, 0, 66), True),
    ])
    def test_rejects_strings_and_booleans_as_numbers(self, path, value):
        # float64 conversion reads "12" as (1, 2), "0.5" as 0.5 and true as 1
        import json
        doc = kan.to_document(kan.init_network(1, 1, hidden=1, seed=0))
        entry = doc
        for i in path[:-1]:
            entry = entry[i]
        entry[path[-1]] = value
        with pytest.raises(kan.ModelFormatError, match=f"{path[0]}.*must hold only JSON numbers"):
            kan.deserialize(json.dumps(doc))


def dense_reference(net: kan.KanNetwork, x: np.ndarray, upstream: np.ndarray):
    """Forward values and both gradients from dense basis tables and einsum."""
    xhat = np.clip((x - net.input_lo) / (net.input_hi - net.input_lo), 0.0, 1.0)
    inner_vals = eval_basis(net.basis, xhat.ravel()).reshape(*x.shape, -1)
    z = np.einsum("biq,jiq->bj", inner_vals, net.inner_coeffs)
    zraw = ((z - net.hidden_lo) / (net.hidden_hi - net.hidden_lo)).ravel()
    # eval_basis clamps, and eval_basis_derivative is zero outside [0, 1]
    outer_vals = eval_basis(net.basis, zraw).reshape(*z.shape, -1)
    outer_derivs = eval_basis_derivative(net.basis, zraw).reshape(*z.shape, -1)
    u = np.einsum("bjq,mjq->bm", outer_vals, net.outer_coeffs)
    grad_outer = np.einsum("bm,bjq->mjq", upstream, outer_vals)
    dz = np.einsum("bm,mjq,bjq->bj", upstream, net.outer_coeffs, outer_derivs)
    grad_inner = np.einsum("bj,biq->jiq", dz / (net.hidden_hi - net.hidden_lo), inner_vals)
    return zraw, u, grad_inner, grad_outer


def assert_close_relative(got, expected):
    npt.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("degree", [1, 3])
@pytest.mark.parametrize("seed", range(3))
def test_batch_passes_match_dense_reference(degree, seed):
    rng = np.random.default_rng(seed)
    net = kan.init_network(3, 2, hidden=5, degree=degree, intervals=8, seed=seed)
    # a narrow hidden range and inputs beyond [0, 1] clamp both layers
    net = replace(net, inner_coeffs=rng.uniform(-1.0, 1.0, net.inner_coeffs.shape),
                  outer_coeffs=rng.uniform(-1.0, 1.0, net.outer_coeffs.shape),
                  hidden_lo=-0.5, hidden_hi=0.5)
    x = rng.uniform(-0.5, 1.5, size=(200, 3))
    upstream = rng.standard_normal((200, 2))
    zraw, u, grad_inner, grad_outer = dense_reference(net, x, upstream)
    assert np.any(zraw < 0.0) and np.any(zraw > 1.0) and np.any((zraw > 0.0) & (zraw < 1.0))

    ev = kan.BatchEvaluator(net, x)
    assert_close_relative(ev.forward(net.inner_coeffs, net.outer_coeffs), u)
    got_inner, got_outer = ev.backward(net.outer_coeffs, upstream)
    assert_close_relative(got_inner, grad_inner)
    assert_close_relative(got_outer, grad_outer)


class TestBatchEvaluator:
    def test_rejects_bad_batches(self):
        net = kan.init_network(2, 2, hidden=2, seed=0)
        with pytest.raises(ValueError):
            kan.BatchEvaluator(net, np.zeros((3, 5)))
        with pytest.raises(ValueError):
            kan.BatchEvaluator(net, np.array([[0.1, np.nan]]))

    def test_backward_requires_forward(self):
        net = kan.init_network(1, 1, hidden=1, seed=0)
        ev = kan.BatchEvaluator(net, np.zeros((2, 1)))
        with pytest.raises(RuntimeError):
            ev.backward(net.outer_coeffs, np.ones((2, 1)))

    def test_basis_major_views_give_identical_bits(self):
        rng = np.random.default_rng(5)
        net = random_net(rng, 3, 2, 4, 3, 6)
        inner = rng.normal(size=net.inner_coeffs.shape)
        outer = rng.normal(size=net.outer_coeffs.shape)
        x = rng.uniform(-2.5, 0.5, size=(40, 3))
        upstream = rng.normal(size=(40, 2))

        def basis_major(coeffs):  # as training stores them: (rest, leading axis) in C order
            flat = np.ascontiguousarray(coeffs.reshape(coeffs.shape[0], -1).T)
            view = flat.T.reshape(coeffs.shape)
            assert not view.flags.c_contiguous and np.shares_memory(view, flat)
            return view

        passes = []
        for inner_view, outer_view in ((inner, outer), (basis_major(inner), basis_major(outer))):
            ev = kan.BatchEvaluator(net, x)
            passes.append((ev.forward(inner_view, outer_view),
                           *ev.backward(outer_view, upstream)))
        for c_order, bm in zip(*passes):
            npt.assert_array_equal(bm, c_order)

    @pytest.mark.parametrize("budget", [1, 7, None])
    @pytest.mark.parametrize("d_in,d_out,hidden,degree,intervals,n", [
        (3, 2, 4, 1, 5, 7),
        (2, 1, 5, 3, 8, 13),
        (7, 7, 15, 5, 16, 33),
        (1, 3, 2, 3, 3, 1),
    ])
    def test_blocked_gather_matches_one_block(self, d_in, d_out, hidden, degree, intervals,
                                              n, budget, monkeypatch):
        rng = np.random.default_rng(n)
        net = random_net(rng, d_in, d_out, hidden, degree, intervals)
        x = rng.uniform(-3.0, 1.0, size=(n, d_in))
        upstream = rng.normal(size=(n, d_out))
        # a hidden range inside the span of the sums clamps units at both ends
        z = kan.BatchEvaluator(net, x).hidden_sums(net.inner_coeffs)
        net = replace(net, hidden_lo=np.percentile(z, 25), hidden_hi=np.percentile(z, 75))
        zraw = (z - net.hidden_lo) / (net.hidden_hi - net.hidden_lo)
        assert np.any(zraw < 0.0) and np.any(zraw > 1.0)

        def gradients():
            ev = kan.BatchEvaluator(net, x)
            ev.forward(net.inner_coeffs, net.outer_coeffs)
            return ev.backward(net.outer_coeffs, upstream)

        if budget is not None:  # blocks that split the samples unevenly
            monkeypatch.setattr(kan, "GATHER_BLOCK", budget)
        blocked = gradients()
        monkeypatch.setattr(kan, "GATHER_BLOCK", 1 << 62)
        for got, expected in zip(blocked, gradients()):
            npt.assert_array_equal(got, expected)

    def test_backward_peak_memory_at_opinion_scale(self):
        # d = 50, hidden 101, G = 64, 101 samples: one gather of every
        # sample's outer coefficients would take 16 MB on its own
        rng = np.random.default_rng(0)
        net = kan.init_network(50, 50, hidden=101, intervals=64, seed=0)
        ev = kan.BatchEvaluator(net, rng.uniform(0.0, 1.0, size=(101, 50)))
        ev.forward(net.inner_coeffs, net.outer_coeffs)
        upstream = rng.normal(size=(101, 50))
        tracemalloc.start()
        try:
            grads = ev.backward(net.outer_coeffs, upstream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * sum(g.nbytes for g in grads)

    @staticmethod
    def warm_criterion7_evaluator():
        # the criterion-7 shape: d = 2, hidden 16, G = 64, k = 3, 1001 samples
        rng = np.random.default_rng(0)
        net = kan.init_network(2, 2, hidden=16, intervals=64, seed=0)
        ev = kan.BatchEvaluator(net, rng.uniform(0.0, 1.0, size=(1001, 2)))
        upstream = rng.normal(size=(1001, 2))
        ev.forward(net.inner_coeffs, net.outer_coeffs)
        ev.backward(net.outer_coeffs, upstream)
        return net, ev, upstream, 2 * 1001 * 16 * 8

    def test_forward_peak_memory_at_criterion7_scale(self):
        # the outer basis matrix and eval_local's scratch are refilled in
        # place, so a warm pass allocates little beyond the hidden sums
        net, ev, _, budget = self.warm_criterion7_evaluator()
        tracemalloc.start()
        try:
            ev.forward(net.inner_coeffs, net.outer_coeffs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= budget

    def test_backward_peak_memory_at_criterion7_scale(self):
        net, ev, upstream, budget = self.warm_criterion7_evaluator()
        ev.forward(net.inner_coeffs, net.outer_coeffs)
        tracemalloc.start()
        try:
            grads = ev.backward(net.outer_coeffs, upstream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= budget + sum(g.nbytes for g in grads)

    def test_refilled_passes_match_fresh_evaluators(self):
        # One evaluator refills its outer basis in place.  Hidden sums at
        # the top knot, on edge pieces and clamped at both ends, then all
        # on cardinal pieces, or the other way round, must leave nothing
        # behind: every pass equals a fresh evaluator's, bit for bit.
        rng = np.random.default_rng(8)
        degree, intervals = 3, 8
        net = replace(kan.init_network(2, 2, hidden=4, degree=degree, intervals=intervals,
                                       seed=0), hidden_lo=0.0, hidden_hi=1.0)
        # the last rows sit at the top of the input box, where the inner
        # basis is exactly (0, .., 0, 1) and z is the sum of last coefficients
        x = np.vstack([rng.uniform(-0.2, 1.2, size=(40, 2)), np.ones((3, 2))])
        upstream = rng.normal(size=(43, 2))
        outer = rng.normal(size=net.outer_coeffs.shape)
        edges = rng.uniform(-0.3, 0.3, size=net.inner_coeffs.shape)
        edges[:, :, -1] = [[0.5, 0.5], [1.0, 1.0], [-1.0, -1.0], [0.03, 0.02]]
        interior = rng.uniform(0.23, 0.27, size=net.inner_coeffs.shape)

        def zraw(inner):
            return kan.BatchEvaluator(net, x).hidden_sums(inner)

        lo_edge, hi_edge = (degree - 1) / intervals, (intervals - degree + 1) / intervals
        z = zraw(edges)
        assert np.any(z == 1.0) and np.any(z > 1.0) and np.any(z < 0.0)
        assert np.any((z > 0.0) & (z < lo_edge)) and np.any((z > hi_edge) & (z < 1.0))
        z = zraw(interior)
        assert np.all((z >= lo_edge) & (z < hi_edge))

        def passes(ev, inner):
            return ev.forward(inner, outer), *ev.backward(outer, upstream)

        for order in ((edges, interior, edges), (interior, edges, interior)):
            ev = kan.BatchEvaluator(net, x)
            for inner in order:
                for got, expected in zip(passes(ev, inner), passes(kan.BatchEvaluator(net, x), inner)):
                    npt.assert_array_equal(got, expected)

    def test_nan_coefficients_give_nan_outputs(self):
        # NaN hidden sums reach the outer basis; they must propagate, not index out of range
        net = kan.init_network(2, 2, hidden=3, seed=0)
        inner = net.inner_coeffs.copy()
        inner[0, 0] = np.nan
        with np.errstate(invalid="ignore"):
            out = kan.BatchEvaluator(net, np.full((4, 2), 0.5)).forward(inner, net.outer_coeffs)
        assert np.all(np.isnan(out))

    def test_gradient_rejects_nonfinite_upstream(self):
        net = kan.init_network(1, 1, hidden=1, seed=0)
        with pytest.raises(ValueError):
            kan.gradient(net, np.zeros((2, 1)), np.array([[np.inf], [0.0]]))
