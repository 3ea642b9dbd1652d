import struct

import numpy as np
import pytest

from vpfa.errors import FormatError
from vpfa.vpnet import (
    LN_EPS,
    TENSOR_ORDER,
    ForwardTrace,
    VPParams,
    backward,
    forward,
    init_params,
    layernorm_forward,
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
        z = np.random.default_rng(1).standard_normal(6)
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

    def test_flat_size_must_match_dims(self):
        with pytest.raises(ValueError, match="shape"):
            VPParams(4, 3, np.zeros(parameter_count(4, 3) + 1))

    def test_gradients_written_into_given_buffer(self):
        rng = np.random.default_rng(6)
        p = init_params(5, 4, init_std=0.3, seed=9)
        _, trace = forward(p, rng.standard_normal((3, 5)))
        grad_out = rng.standard_normal((3, 5))
        fresh, fresh_input = backward(p, trace, grad_out)
        buf = np.full(p.flat.size, np.nan)
        grads, grad_input = backward(p, trace, grad_out, out=buf)
        joined = np.concatenate([fresh[name].ravel() for name in TENSOR_ORDER])
        assert buf.tobytes() == joined.tobytes()
        assert grad_input.tobytes() == fresh_input.tobytes()
        for name in TENSOR_ORDER:
            assert np.shares_memory(grads[name], buf)
        with pytest.raises(ValueError, match="shape"):
            backward(p, trace, grad_out, out=np.zeros(p.flat.size - 1))


class TestLayerNorm:
    def test_constant_input_maps_to_zero(self):
        y = layernorm_forward(np.full(8, 3.7), np.ones(8), np.zeros(8))
        np.testing.assert_allclose(y, 0.0, atol=1e-12)

    def test_symmetric_pair_is_fixed_point_at_zero_eps(self):
        y = layernorm_forward(np.array([1.0, -1.0]), np.ones(2), np.zeros(2), eps=0.0)
        np.testing.assert_allclose(y, [1.0, -1.0], atol=1e-12)

    def test_moments_of_normalized_output(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(8)
        y = layernorm_forward(x, np.ones(8), np.zeros(8))
        assert abs(y.mean()) < 1e-12
        var = x.var()
        np.testing.assert_allclose(y.var(), var / (var + LN_EPS), atol=1e-12)

    def test_affine_applied_after_normalization(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(6)
        gamma = rng.uniform(0.5, 2.0, 6)
        beta = rng.standard_normal(6)
        base = layernorm_forward(x, np.ones(6), np.zeros(6))
        np.testing.assert_allclose(
            layernorm_forward(x, gamma, beta), gamma * base + beta, atol=1e-12
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
        zhat, _ = forward(p, np.array([1.0, -1.0]))
        np.testing.assert_allclose(
            zhat, [1.7615857562570025, -1.0], rtol=0, atol=1e-12
        )

    def test_correction_strictly_bounded_by_one(self):
        rng = np.random.default_rng(5)
        p = init_params(6, 8, init_std=2.0, seed=1)
        for _ in range(20):
            z = 10.0 * rng.standard_normal(6)
            zhat, _ = forward(p, z)
            assert np.max(np.abs(zhat - z)) < 1.0

    def test_near_identity_at_default_initialization(self):
        p = init_params(64, 64, init_std=1e-3, seed=0)
        rng = np.random.default_rng(6)
        for _ in range(100):
            z = rng.standard_normal(64)
            z /= np.linalg.norm(z)
            zhat, _ = forward(p, z)
            assert np.linalg.norm(zhat - z) / np.linalg.norm(z) < 0.05

    def test_batch_matches_single_calls(self):
        p = init_params(5, 4, init_std=0.3, seed=2)
        rng = np.random.default_rng(7)
        batch = rng.standard_normal((6, 5))
        out_batch, _ = forward(p, batch)
        for i in range(6):
            single, _ = forward(p, batch[i])
            np.testing.assert_allclose(out_batch[i], single, atol=1e-14)

    def test_dimension_mismatch_rejected(self):
        p = init_params(4, 3)
        with pytest.raises(ValueError, match="dim"):
            forward(p, np.ones(5))


class TestBackward:
    def test_zero_grad_output_gives_zero_grads(self):
        p = init_params(4, 3, init_std=0.4, seed=3)
        z = np.random.default_rng(8).standard_normal(4)
        _, trace = forward(p, z)
        grads, grad_input = backward(p, trace, np.zeros(4))
        assert all(not np.any(g) for g in grads.values())
        assert not np.any(grad_input)

    def test_bias_gradient_at_zero_initialization(self):
        # with all weights zero the residual path is tanh(b4); for the
        # squared error to a target t the chain rule gives d/db4 = 2 (z - t)
        p = init_params(5, 3, init_std=0.0)
        rng = np.random.default_rng(9)
        z = rng.standard_normal(5)
        t = rng.standard_normal(5)
        loss, grads, _ = loss_and_grad(p, z, t)
        np.testing.assert_allclose(grads["b4"], 2.0 * (z - t), atol=1e-12)
        assert not np.any(grads["w4"])  # hidden path is all zeros

    def test_every_parameter_matches_finite_differences(self):
        # relative error < 1e-5 with a 1e-8 absolute floor: gradients of
        # parameters behind dead ReLU units are ~1e-9 and sit below the
        # resolution of central differences on an O(1) loss in float64
        p = init_params(4, 3, init_std=0.5, seed=11)
        rng = np.random.default_rng(12)
        z = rng.standard_normal(4)
        t = rng.standard_normal(4)
        _, grads, _ = loss_and_grad(p, z, t)
        for name in TENSOR_ORDER:
            analytic = grads[name]
            for index in np.ndindex(analytic.shape):
                numeric = numeric_grad(p, z, t, name, index)
                scale = max(abs(analytic[index]), abs(numeric))
                assert abs(analytic[index] - numeric) <= 1e-8 + 1e-5 * scale, (
                    name, index,
                )

    def test_grad_input_matches_finite_differences(self):
        p = init_params(4, 3, init_std=0.5, seed=13)
        rng = np.random.default_rng(14)
        z = rng.standard_normal(4)
        t = rng.standard_normal(4)
        _, _, grad_input = loss_and_grad(p, z, t)
        h = 1e-6
        for i in range(4):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            up, _ = forward(p, zp)
            down, _ = forward(p, zm)
            numeric = (np.sum((up - t) ** 2) - np.sum((down - t) ** 2)) / (2 * h)
            scale = max(abs(grad_input[i]), abs(numeric), 1e-8)
            assert abs(grad_input[i] - numeric) / scale < 1e-5

    def test_batch_gradient_is_sum_of_singles(self):
        p = init_params(4, 3, init_std=0.4, seed=15)
        rng = np.random.default_rng(16)
        batch = rng.standard_normal((3, 4))
        gout = rng.standard_normal((3, 4))
        _, trace = forward(p, batch)
        batch_grads, _ = backward(p, trace, gout)
        summed = {name: np.zeros_like(batch_grads[name]) for name in TENSOR_ORDER}
        for i in range(3):
            _, tr = forward(p, batch[i])
            g, _ = backward(p, tr, gout[i])
            for name in TENSOR_ORDER:
                summed[name] += g[name]
        for name in TENSOR_ORDER:
            np.testing.assert_allclose(batch_grads[name], summed[name], atol=1e-12)

    def test_stale_trace_rejected(self):
        p_small = init_params(4, 3)
        p_big = init_params(4, 5)
        z = np.ones(4)
        _, trace = forward(p_small, z)
        with pytest.raises(ValueError, match="trace"):
            backward(p_big, trace, np.ones(4))

    def test_grad_output_shape_checked(self):
        p = init_params(4, 3)
        _, trace = forward(p, np.ones((2, 4)))
        with pytest.raises(ValueError, match="shape"):
            backward(p, trace, np.ones((3, 4)))



def fresh_step(p, z, gout):
    zhat, trace = forward(p, z)
    grads, grad_input = backward(p, trace, gout)
    return zhat.copy(), {k: v.copy() for k, v in grads.items()}, grad_input.copy()


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
        grads, grad_input = backward(self.p, trace, gout, out=np.empty(self.p.flat.size))
        ref_zhat, ref_grads, ref_input = fresh_step(self.p, z, gout)
        assert np.array_equal(zhat, ref_zhat)
        for name in TENSOR_ORDER:
            assert np.array_equal(grads[name], ref_grads[name]), name
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

    def test_single_vector_through_one_row_workspace(self):
        trace = ForwardTrace.allocate(1, 16, 12)
        z = self.rng.standard_normal(16)
        zhat, _ = forward(self.p, z, trace)
        assert zhat.shape == (16,)
        grads, grad_input = backward(self.p, trace, np.ones(16))
        ref_zhat, ref_grads, ref_input = fresh_step(self.p, z, np.ones(16))
        assert np.array_equal(zhat, ref_zhat) and np.array_equal(grad_input, ref_input)
        assert all(np.array_equal(grads[k], ref_grads[k]) for k in TENSOR_ORDER)

    def test_mismatched_workspace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            forward(self.p, np.ones((4, 16)), ForwardTrace.allocate(8, 16, 12))
        with pytest.raises(ValueError, match="trace"):
            forward(self.p, np.ones((8, 16)), ForwardTrace.allocate(8, 16, 7))

    def test_step_through_workspace_allocates_no_buffers(self):
        import tracemalloc

        rows, dim, hidden = 256, 64, 128
        p = init_params(dim, hidden, init_std=0.1, seed=3)
        trace = ForwardTrace.allocate(rows, dim, hidden)
        z = self.rng.standard_normal((rows, dim))
        gout, flat = np.ones((rows, dim)), np.empty(p.flat.size)
        backward(p, forward(p, z, trace)[1], gout, out=flat)  # views cut once
        tracemalloc.start()
        try:
            backward(p, forward(p, z, trace)[1], gout, out=flat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # numpy's broadcasting ufuncs take an iterator buffer of at most
        # 8192 elements; a step allocating activations would take many
        # (rows, hidden) arrays
        assert peak < rows * hidden * 8 // 2

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

    def test_copy_is_deep(self):
        p = init_params(3, 2, init_std=0.1, seed=18)
        q = p.copy()
        q.w1[0, 0] += 1.0
        assert p.w1[0, 0] != q.w1[0, 0]
        assert not np.shares_memory(p.flat, q.flat)
        assert q.w1.base is not None and np.shares_memory(q.w1, q.flat)
