import struct
import tracemalloc

import numpy as np
import pytest

from vpfa.errors import FormatError
from vpfa.vpnet import (
    BACKWARD_GROUPS,
    LN_EPS,
    TENSOR_ORDER,
    ForwardTrace,
    VPParams,
    _layernorm,
    backward,
    forward,
    init_params,
    load_params,
    parameter_count,
    save_params,
    tensor_shapes,
)


def loss_and_grad(params, z, target):
    zhat, trace = forward(params, z)
    diff = zhat - target
    grads, grad_input = backward(params, trace, 2.0 * diff)
    return float(np.sum(diff * diff)), grads, grad_input


def numeric_grad(params, z, target, name, index, h=1e-5):
    """Central finite difference on one parameter entry."""
    tensor = getattr(params, name)
    orig = tensor[index]
    tensor[index] = orig + h
    up, _ = forward(params, z)
    tensor[index] = orig - h
    down, _ = forward(params, z)
    tensor[index] = orig
    loss_up = float(np.sum((up - target) ** 2))
    loss_down = float(np.sum((down - target) ** 2))
    return (loss_up - loss_down) / (2 * h)


class TestInit:
    def test_zero_std_forward_is_exact_identity(self):
        params = init_params(6, 4, init_std=0.0, seed=0)
        z = np.random.default_rng(1).standard_normal((1, 6))
        zhat, _ = forward(params, z)
        np.testing.assert_array_equal(zhat, z)

    def test_same_seed_identical(self):
        a = init_params(5, 3, seed=9)
        b = init_params(5, 3, seed=9)
        for name in TENSOR_ORDER:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_weights_drawn_in_layer_order(self):
        p = init_params(5, 3, init_std=0.25, seed=4)
        rng = np.random.default_rng(4)
        for name in ("w1", "w2", "w3", "w4"):
            expected = 0.25 * rng.standard_normal(getattr(p, name).shape)
            assert getattr(p, name).tobytes() == expected.tobytes()

    def test_affine_and_bias_initialization(self):
        p = init_params(4, 3, init_std=0.5, seed=2)
        for name in ("b1", "b2", "b3", "b4", "beta1", "beta2", "beta3"):
            assert not np.any(getattr(p, name))
        for name in ("gamma1", "gamma2", "gamma3"):
            np.testing.assert_array_equal(getattr(p, name), np.ones(3))

    @pytest.mark.parametrize("init_std, message", [
        (float("nan"), "init_std must be finite and non-negative, got nan"),
        (float("inf"), "init_std must be finite and non-negative, got inf"),
        (-1.0, "init_std must be finite and non-negative, got -1.0"),
    ])
    def test_init_std_must_be_finite_and_non_negative(self, init_std, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            init_params(4, 3, init_std=init_std)

    @pytest.mark.parametrize("dim, hidden, message", [
        (0, 3, "dim must be positive, got 0"), (4, 0, "hidden must be positive, got 0"),
    ])
    def test_sizes_must_be_positive(self, dim, hidden, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            init_params(dim, hidden)

    def test_init_seed_must_be_non_negative(self):
        with pytest.raises(ValueError, match="^init seed must be non-negative, got -1$"):
            init_params(4, 3, seed=-1)

    def test_parameter_count_formula(self):
        # by hand: two dim x hidden mats, two hidden x hidden mats,
        # three hidden biases, six layernorm vectors, one dim bias
        d, h = 3840, 2048
        expected = 2 * d * h + 2 * h * h + 9 * h + d
        assert parameter_count(d, h) == expected
        assert abs(parameter_count(d, h) - 24.14e6) <= 0.01 * 24.14e6

    def test_count_matches_actual_tensors(self):
        p = init_params(7, 5)
        total = sum(getattr(p, name).size for name in TENSOR_ORDER)
        assert total == parameter_count(7, 5) == p.flat.size


class TestFlatLayout:
    def test_tensors_are_views_of_flat_in_order(self):
        p = init_params(5, 3, init_std=0.1, seed=2)
        for tensor in p.tensors().values():
            assert np.shares_memory(tensor, p.flat)
        joined = np.concatenate([t.ravel() for t in p.tensors().values()])
        assert joined.tobytes() == p.flat.tobytes()
        p.flat[:] = np.arange(p.flat.size)
        assert p.w1[0, 0] == 0.0 and p.b4[-1] == p.flat.size - 1

    def test_layout_order_is_the_file_format(self):
        assert TENSOR_ORDER == ("w1", "b1", "gamma1", "beta1", "w2", "b2", "gamma2", "beta2",
                                "w3", "b3", "gamma3", "beta3", "w4", "b4")

    def test_equal_when_dims_and_every_byte_of_flat_match(self):
        p = init_params(3, 2, init_std=0.5, seed=4)
        q = init_params(3, 2, init_std=0.5, seed=4)
        assert p == q and not p != q and p is not q
        q.b4[1] = np.nextafter(q.b4[1], 1.0)
        assert p != q
        zero = init_params(3, 2, init_std=0.0)
        negative_zero = VPParams(3, 2, zero.flat.copy())
        negative_zero.b1[0] = -0.0  # equal as a number, another byte pattern
        assert zero != negative_zero
        with pytest.raises(TypeError, match="unhashable"):
            hash(p)

    @pytest.mark.parametrize("dim, hidden", [(2, 3), (3, 3), (4, 2)])
    def test_other_dims_are_unequal(self, dim, hidden):
        p = init_params(3, 2, init_std=0.0)
        q = init_params(dim, hidden, init_std=0.0)
        assert p != q and q != p and p != p.flat

    def test_same_flat_bytes_under_other_dims_are_unequal(self):
        assert parameter_count(3, 2) == parameter_count(10, 1) == 41
        flat = np.zeros(41)
        assert VPParams(3, 2, flat) != VPParams(10, 1, flat.copy())

    def test_flat_size_must_match_dims(self):
        with pytest.raises(ValueError, match="shape"):
            VPParams(4, 3, np.zeros(parameter_count(4, 3) + 1))

    def test_gradients_written_into_given_params(self):
        rng = np.random.default_rng(6)
        p = init_params(5, 4, init_std=0.3, seed=9)
        _, trace = forward(p, rng.standard_normal((3, 5)))
        grad_out = rng.standard_normal((3, 5))
        fresh, fresh_input = backward(p, trace, grad_out)
        assert isinstance(fresh, VPParams) and (fresh.dim, fresh.hidden) == (5, 4)
        fresh_flat = fresh.flat.copy()
        buf = np.full(p.flat.size, np.nan)
        out = VPParams(5, 4, buf)
        grads, grad_input = backward(p, trace, grad_out, out=out)
        assert grads is out and grads.flat is buf
        assert buf.tobytes() == fresh_flat.tobytes()
        joined = np.concatenate([t.ravel() for t in grads.tensors().values()])
        assert joined.tobytes() == buf.tobytes()
        assert grad_input.tobytes() == fresh_input.tobytes()

    @pytest.mark.parametrize("dim, hidden", [(5, 3), (4, 4), (6, 4)])
    def test_gradients_of_other_dims_rejected(self, dim, hidden):
        p = init_params(5, 4, init_std=0.3, seed=9)
        _, trace = forward(p, np.ones((2, 5)))
        out = VPParams(dim, hidden, np.zeros(parameter_count(dim, hidden)))
        with pytest.raises(ValueError, match="do not fit"):
            backward(p, trace, np.ones((2, 5)), out=out)
        assert not np.any(out.flat)


def layernorm(x, gamma, beta, eps=LN_EPS):
    """The network's LayerNorm of ``x`` over its last axis, on fresh buffers."""
    y = np.array(x, dtype=np.float64)
    _layernorm(y, gamma, beta, eps, np.empty_like(y), np.empty(y.shape[:-1] + (1,)),
               np.empty_like(y))
    return y


class TestLayerNorm:
    def test_constant_input_maps_to_zero(self):
        y = layernorm(np.full(8, 3.7), np.ones(8), np.zeros(8))
        np.testing.assert_allclose(y, 0.0, atol=1e-12)

    def test_symmetric_pair_is_fixed_point_at_zero_eps(self):
        y = layernorm(np.array([1.0, -1.0]), np.ones(2), np.zeros(2), eps=0.0)
        np.testing.assert_allclose(y, [1.0, -1.0], atol=1e-12)

    def test_moments_of_normalized_output(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(8)
        y = layernorm(x, np.ones(8), np.zeros(8))
        assert abs(y.mean()) < 1e-12
        var = x.var()
        np.testing.assert_allclose(y.var(), var / (var + LN_EPS), atol=1e-12)

    def test_affine_applied_after_normalization(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(6)
        gamma = rng.uniform(0.5, 2.0, 6)
        beta = rng.standard_normal(6)
        base = layernorm(x, np.ones(6), np.zeros(6))
        np.testing.assert_allclose(
            layernorm(x, gamma, beta), gamma * base + beta, atol=1e-12
        )


class TestForward:
    def test_hand_traced_small_network(self):
        # identity weights, zero biases, unit gains, z = [1, -1]; expected
        # output computed step by step with plain floats before the build
        p = init_params(2, 2, init_std=0.0)
        p.w1[:] = np.eye(2)
        p.w2[:] = np.eye(2)
        p.w3[:] = np.eye(2)
        p.w4[:] = np.eye(2)
        zhat, _ = forward(p, np.array([[1.0, -1.0]]))
        np.testing.assert_allclose(
            zhat, [[1.7615857562570025, -1.0]], rtol=0, atol=1e-12
        )

    def test_correction_strictly_bounded_by_one(self):
        rng = np.random.default_rng(5)
        p = init_params(6, 8, init_std=2.0, seed=1)
        z = 10.0 * rng.standard_normal((20, 6))
        zhat, _ = forward(p, z)
        assert np.max(np.abs(zhat - z)) < 1.0

    def test_near_identity_at_default_initialization(self):
        p = init_params(64, 64, init_std=1e-3, seed=0)
        rng = np.random.default_rng(6)
        z = rng.standard_normal((100, 64))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        zhat, _ = forward(p, z)
        assert np.max(np.linalg.norm(zhat - z, axis=1) / np.linalg.norm(z, axis=1)) < 0.05

    def test_batch_matches_single_calls(self):
        p = init_params(5, 4, init_std=0.3, seed=2)
        rng = np.random.default_rng(7)
        batch = rng.standard_normal((6, 5))
        out_batch, _ = forward(p, batch)
        for i in range(6):
            single, _ = forward(p, batch[i:i + 1])
            np.testing.assert_allclose(out_batch[i:i + 1], single, atol=1e-14)

    def test_dimension_mismatch_rejected(self):
        p = init_params(4, 3)
        with pytest.raises(ValueError, match="dim"):
            forward(p, np.ones((1, 5)))

    def test_vector_input_rejected(self):
        p = init_params(4, 3)
        with pytest.raises(ValueError, match=r"input of shape \(4,\) is not a \(rows, dim\)"):
            forward(p, np.ones(4))
        _, trace = forward(p, np.ones((1, 4)))
        with pytest.raises(ValueError, match=r"grad_output shape \(4,\)"):
            backward(p, trace, np.ones(4))


class TestBackward:
    def test_zero_grad_output_gives_zero_grads(self):
        p = init_params(4, 3, init_std=0.4, seed=3)
        z = np.random.default_rng(8).standard_normal((1, 4))
        _, trace = forward(p, z)
        grads, grad_input = backward(p, trace, np.zeros((1, 4)))
        assert not np.any(grads.flat)
        assert not np.any(grad_input)

    def test_bias_gradient_at_zero_initialization(self):
        # with all weights zero the residual path is tanh(b4); for the
        # squared error to a target t the chain rule gives d/db4 = 2 (z - t)
        p = init_params(5, 3, init_std=0.0)
        rng = np.random.default_rng(9)
        z = rng.standard_normal((1, 5))
        t = rng.standard_normal((1, 5))
        loss, grads, _ = loss_and_grad(p, z, t)
        np.testing.assert_allclose(grads.b4, 2.0 * (z - t)[0], atol=1e-12)
        assert not np.any(grads.w4)  # hidden path is all zeros

    def test_every_parameter_matches_finite_differences(self):
        # relative error < 1e-5 with a 1e-8 absolute floor: gradients of
        # parameters behind dead ReLU units are ~1e-9 and sit below the
        # resolution of central differences on an O(1) loss in float64
        p = init_params(4, 3, init_std=0.5, seed=11)
        rng = np.random.default_rng(12)
        z = rng.standard_normal((1, 4))
        t = rng.standard_normal((1, 4))
        _, grads, _ = loss_and_grad(p, z, t)
        for name in TENSOR_ORDER:
            analytic = getattr(grads, name)
            for index in np.ndindex(analytic.shape):
                numeric = numeric_grad(p, z, t, name, index)
                scale = max(abs(analytic[index]), abs(numeric))
                assert abs(analytic[index] - numeric) <= 1e-8 + 1e-5 * scale, (
                    name, index,
                )

    def test_grad_input_matches_finite_differences(self):
        p = init_params(4, 3, init_std=0.5, seed=13)
        rng = np.random.default_rng(14)
        z = rng.standard_normal((1, 4))
        t = rng.standard_normal((1, 4))
        _, _, grad_input = loss_and_grad(p, z, t)
        h = 1e-6
        for i in range(4):
            zp, zm = z.copy(), z.copy()
            zp[0, i] += h
            zm[0, i] -= h
            up, _ = forward(p, zp)
            down, _ = forward(p, zm)
            numeric = (np.sum((up - t) ** 2) - np.sum((down - t) ** 2)) / (2 * h)
            scale = max(abs(grad_input[0, i]), abs(numeric), 1e-8)
            assert abs(grad_input[0, i] - numeric) / scale < 1e-5

    def test_batch_gradient_is_sum_of_singles(self):
        p = init_params(4, 3, init_std=0.4, seed=15)
        rng = np.random.default_rng(16)
        batch = rng.standard_normal((3, 4))
        gout = rng.standard_normal((3, 4))
        _, trace = forward(p, batch)
        batch_grads, _ = backward(p, trace, gout)
        summed = np.zeros_like(batch_grads.flat)
        for i in range(3):
            _, tr = forward(p, batch[i:i + 1])
            summed += backward(p, tr, gout[i:i + 1])[0].flat
        np.testing.assert_allclose(batch_grads.flat, summed, atol=1e-12)

    def test_stale_trace_rejected(self):
        p_small = init_params(4, 3)
        p_big = init_params(4, 5)
        z = np.ones((1, 4))
        _, trace = forward(p_small, z)
        with pytest.raises(ValueError, match="trace"):
            backward(p_big, trace, np.ones((1, 4)))

    def test_grad_output_shape_checked(self):
        p = init_params(4, 3)
        _, trace = forward(p, np.ones((2, 4)))
        with pytest.raises(ValueError, match="shape"):
            backward(p, trace, np.ones((3, 4)))

    def test_on_group_announces_each_group_once_in_finishing_order(self):
        p = init_params(5, 4, init_std=0.3, seed=17)
        _, trace = forward(p, np.ones((2, 5)))
        announced = []
        backward(p, trace, np.ones((2, 5)), on_group=announced.append)
        assert announced == list(BACKWARD_GROUPS) == ["4", "3", "2", "1"]

    def test_groups_cover_the_layout_from_the_end_down(self):
        groups = [name for names in reversed(BACKWARD_GROUPS.values()) for name in names]
        assert tuple(groups) == TENSOR_ORDER

    @pytest.mark.parametrize("rows", [1, 3])
    def test_announced_group_is_never_read_again(self, rows):
        # poisoning each group's parameters as it is announced changes no
        # gradient and not the input gradient: none of them reads it later
        rng = np.random.default_rng(18)
        p = init_params(5, 4, init_std=0.5, seed=19)
        z, gout = rng.standard_normal((2, rows, 5))
        want, want_input = backward(p, forward(p, z)[1], gout)
        want_input = want_input.copy()

        def poison(group):
            for name in BACKWARD_GROUPS[group]:
                getattr(p, name)[...] = np.nan

        got, got_input = backward(p, forward(p, z)[1], gout, on_group=poison)
        assert np.isnan(p.flat).all()
        assert got == want
        assert got_input.tobytes() == want_input.tobytes()



def fresh_step(p, z, gout):
    zhat, trace = forward(p, z)
    grads, grad_input = backward(p, trace, gout)
    return zhat.copy(), grads.flat.copy(), grad_input.copy()


class TestWorkspace:
    """forward/backward through a reused trace equal fresh, allocating calls."""

    def setup_method(self):
        self.p = init_params(16, 12, init_std=0.4, seed=21)
        self.rng = np.random.default_rng(22)

    def step(self, trace, rows):
        z = self.rng.standard_normal((rows, 16))
        gout = self.rng.standard_normal((rows, 16))
        zhat, got_trace = forward(self.p, z, trace)
        assert got_trace is trace and np.shares_memory(zhat, trace.zhat)
        out = VPParams(16, 12, np.empty(self.p.flat.size))
        grads, grad_input = backward(self.p, trace, gout, out=out)
        ref_zhat, ref_grads, ref_input = fresh_step(self.p, z, gout)
        assert grads is out
        assert np.array_equal(zhat, ref_zhat)
        assert np.array_equal(grads.flat, ref_grads)
        assert np.array_equal(grad_input, ref_input)

    @pytest.mark.parametrize("rows", [32, 8, 1])
    def test_reused_workspace_equals_fresh_calls(self, rows):
        trace = ForwardTrace.allocate(rows, 16, 12)
        for _ in range(3):
            self.step(trace, rows)

    def test_short_batch_after_full_reads_no_stale_rows(self):
        trace = ForwardTrace.allocate(32, 16, 12)
        short = trace.head(8)
        for rows, ws in ((32, trace), (8, short), (32, trace), (8, short)):
            self.step(ws, rows)

    def test_one_row_batch_through_one_row_workspace(self):
        trace = ForwardTrace.allocate(1, 16, 12)
        z = self.rng.standard_normal((1, 16))
        zhat, _ = forward(self.p, z, trace)
        assert zhat.shape == (1, 16)
        grads, grad_input = backward(self.p, trace, np.ones((1, 16)))
        ref_zhat, ref_grads, ref_input = fresh_step(self.p, z, np.ones((1, 16)))
        assert np.array_equal(zhat, ref_zhat) and np.array_equal(grad_input, ref_input)
        assert np.array_equal(grads.flat, ref_grads)

    def test_mismatched_workspace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            forward(self.p, np.ones((4, 16)), ForwardTrace.allocate(8, 16, 12))
        with pytest.raises(ValueError, match="trace"):
            forward(self.p, np.ones((8, 16)), ForwardTrace.allocate(8, 16, 7))

    def test_step_through_workspace_allocates_no_buffers(self):
        rows, dim, hidden = 256, 64, 128
        p = init_params(dim, hidden, init_std=0.1, seed=3)
        trace = ForwardTrace.allocate(rows, dim, hidden)
        z = self.rng.standard_normal((rows, dim))
        gout, grads = np.ones((rows, dim)), VPParams(dim, hidden, np.empty(p.flat.size))
        backward(p, forward(p, z, trace)[1], gout, out=grads)
        tracemalloc.start()
        try:
            backward(p, forward(p, z, trace)[1], gout, out=grads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # numpy's broadcasting ufuncs take an iterator buffer of at most
        # 8192 elements; a step allocating activations would take many
        # (rows, hidden) arrays
        assert peak < rows * hidden * 8 // 2


class TestForwardOnly:
    """The inference workspace: shared buffers, the full trace's output bits."""

    @pytest.mark.parametrize("rows, dim, hidden", [(5, 6, 9), (5, 9, 6), (1, 7, 7)])
    def test_output_equals_a_full_trace(self, rows, dim, hidden):
        p = init_params(dim, hidden, init_std=0.4, seed=rows + dim)
        ws = ForwardTrace.forward_only(rows, dim, hidden)
        z = np.random.default_rng(hidden).standard_normal((rows, dim))
        for _ in range(2):  # a reused workspace keeps no state between calls
            zhat, got = forward(p, z, ws)
            assert got is ws and np.shares_memory(zhat, ws.residual)
            assert zhat.tobytes() == forward(p, z)[0].tobytes()
        one, _ = forward(p, z[:1], ForwardTrace.forward_only(1, dim, hidden))
        assert one.shape == (1, dim) and one.tobytes() == forward(p, z[:1])[0].tobytes()

    def test_buffers_are_shared_and_backward_ones_absent(self):
        ws = ForwardTrace.forward_only(4, 6, 5)
        assert ws.xhat1 is ws.xhat2 is ws.xhat3 and ws.inv1 is ws.inv2 is ws.inv3
        assert ws.a1 is ws.a3 and not np.shares_memory(ws.a1, ws.a2)
        assert ws.zhat is ws.residual and ws.zhat.shape == (4, 6)
        assert ws.col is ws.da is ws.du is ws.mask is ws.dz is None
        distinct = (ws.xhat1, ws.a1, ws.a2, ws.hid)
        assert all(b.shape == (4, 5) for b in distinct)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(distinct)
                       for b in distinct[i + 1:])

    def test_backward_rejects_it(self):
        p = init_params(6, 5, init_std=0.4, seed=1)
        ws = ForwardTrace.forward_only(3, 6, 5)
        forward(p, np.ones((3, 6)), ws)
        with pytest.raises(ValueError, match="forward-only workspace"):
            backward(p, ws, np.ones((3, 6)))

    def test_mismatched_workspace_rejected(self):
        p = init_params(6, 5, init_std=0.4, seed=1)
        with pytest.raises(ValueError, match="trace"):
            forward(p, np.ones((3, 6)), ForwardTrace.forward_only(4, 6, 5))
        with pytest.raises(ValueError, match="trace"):
            forward(p, np.ones((3, 6)), ForwardTrace.forward_only(3, 6, 4))


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        p = init_params(6, 4, init_std=0.7, seed=17)
        path = tmp_path / "net.vpnp"
        save_params(p, path)
        q = load_params(path)
        assert (q.dim, q.hidden) == (6, 4)
        for name in TENSOR_ORDER:
            assert getattr(q, name).tobytes() == getattr(p, name).tobytes()
        assert q.flat.tobytes() == p.flat.tobytes()

    def test_file_is_header_then_flat_buffer(self, tmp_path):
        p = init_params(6, 4, init_std=0.7, seed=17)
        path = tmp_path / "net.vpnp"
        save_params(p, path)
        header = struct.pack("<4sIII", b"VPNP", 1, 6, 4)
        assert path.read_bytes() == header + p.flat.astype("<f8").tobytes()

    def test_save_writes_from_the_vector_without_a_copy(self, tmp_path):
        p = init_params(64, 128, init_std=0.1, seed=5)
        path = tmp_path / "net.vpnp"
        tracemalloc.start()
        try:
            save_params(p, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < p.flat.nbytes // 4
        assert path.read_bytes()[16:] == p.flat.tobytes()

    @pytest.mark.parametrize("dim, hidden", [(0, 0), (0, 3), (4, 0)])
    def test_non_positive_dims_rejected(self, tmp_path, dim, hidden):
        path = tmp_path / "net.vpnp"
        size = parameter_count(dim, hidden)
        path.write_bytes(struct.pack("<4sIII", b"VPNP", 1, dim, hidden) + bytes(8 * size))
        with pytest.raises(FormatError, match="non-positive"):
            load_params(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values_rejected(self, tmp_path, bad):
        p = init_params(4, 3, init_std=0.1)
        p.gamma2[1] = bad
        path = tmp_path / "net.vpnp"
        save_params(p, path)
        with pytest.raises(FormatError, match=r"net\.vpnp: non-finite"):
            load_params(path)

    def test_finiteness_check_builds_no_mask_of_the_parameters(self, tmp_path):
        path = tmp_path / "net.vpnp"
        save_params(init_params(256, 256, init_std=0.1), path)
        count = parameter_count(256, 256)
        tracemalloc.start()
        try:
            load_params(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the parameter vector; a bool mask of it would add a byte per value
        assert peak < 8 * count + count // 4

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "net.vpnp"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(FormatError, match="magic"):
            load_params(path)

    def test_truncated_file_rejected(self, tmp_path):
        p = init_params(4, 3)
        path = tmp_path / "net.vpnp"
        save_params(p, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="size mismatch"):
            load_params(path)

    def test_shapes_follow_declared_dims(self):
        shapes = tensor_shapes(6, 4)
        p = init_params(6, 4)
        for name in TENSOR_ORDER:
            assert getattr(p, name).shape == shapes[name]
