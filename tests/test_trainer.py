import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from vpfa import embeddings, trainer, vpnet
from vpfa.embeddings import EmbeddingSet, check_lr_rates
from vpfa.errors import DataError
from vpfa.synthgen import SynthConfig, generate
from vpfa.trainer import (
    ADAM_BLOCK,
    AdamState,
    TrainConfig,
    adam_slices,
    adam_step,
    build_prototype_pairs,
    law_of_cosines_check,
    sample_training_pairs,
    train,
    training_pairs,
    vpl_loss,
)
from vpfa.vpnet import (
    TENSOR_ORDER,
    ForwardTrace,
    NetConfig,
    VPParams,
    backward,
    forward,
    init_params,
    parameter_count,
)


def tiny_set():
    """Two identities; identity 1 has a single LR sample and must be skipped."""
    matrix = [[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, 2.0], [5.0, 5.0], [5.0, 5.0], [4.0, 4.0]]
    return EmbeddingSet(matrix, [0, 0, 0, 0, 1, 1, 1], [0, 1, 0, 1, 0, 1, 0], [0, 0, 2, 2, 0, 0, 2])


def reversed_rows(eset):
    return EmbeddingSet(*(a[::-1] for a in (
        eset.matrix, eset.identity_array, eset.camera_array, eset.rate_array)))


def means(eset, groups):
    """The (K, dim) means of the row groups of ``build_prototype_pairs``."""
    return np.array([eset.matrix[rows].mean(axis=0) for rows in groups])


class TestBuildPrototypePairs:
    def test_arithmetic_means(self):
        s = tiny_set()
        ids, lr_rows, hr_rows = build_prototype_pairs(s)
        assert ids.tolist() == [0] == walk_paired(*record_groups(s))
        np.testing.assert_allclose(means(s, hr_rows), [[0.5, 0.5]])
        np.testing.assert_allclose(means(s, lr_rows), [[1.0, 1.0]])

    def test_single_lr_sample_excluded(self):
        s = tiny_set()
        hr, lr = record_groups(s)
        ids, _, _ = build_prototype_pairs(s)
        assert 1 in hr and len(lr[1]) == 1
        assert 1 not in ids.tolist()
        assert ids.tolist() == walk_paired(hr, lr)

    def test_sample_order_irrelevant(self):
        s, r = tiny_set(), reversed_rows(tiny_set())
        _, a_lr, a_hr = build_prototype_pairs(s)
        _, b_lr, b_hr = build_prototype_pairs(r)
        np.testing.assert_allclose(means(s, a_hr), means(r, b_hr))
        np.testing.assert_allclose(means(s, a_lr), means(r, b_lr))

    def test_arrays_in_sorted_identity_order(self):
        s = reversed_rows(generate(SynthConfig(dim=4, num_identities=5, samples_per_res=3,
                                               seed=2)))
        ids, lr_rows, hr_rows = build_prototype_pairs(s)
        assert ids.tolist() == list(range(5)) == walk_paired(*record_groups(s))
        assert ids.dtype == np.int64 and len(lr_rows) == len(hr_rows) == 5
        hr_means = means(s, hr_rows)
        for k, identity in enumerate(ids):
            own = s.identity_array == identity
            assert hr_means[k].tobytes() == s.matrix[own & (s.rate_array == 0)].mean(axis=0).tobytes()

    def test_rate_restriction(self):
        cfg = SynthConfig(
            dim=4, num_identities=3, samples_per_res=2,
            shift_magnitude={2: 1.0, 3: 2.0}, rates=(2, 3), seed=0,
        )
        s = generate(cfg)
        pooled_ids, pooled, _ = build_prototype_pairs(s)
        only2_ids, only2, _ = build_prototype_pairs(s, rates=[2])
        assert len(pooled_ids) == len(only2_ids) == 3
        assert not np.allclose(means(s, pooled)[0], means(s, only2)[0])

    @pytest.mark.parametrize("rates", [[0], [1], [2, 256]])
    def test_rate_outside_lr_range_rejected(self, rates):
        with pytest.raises(ValueError, match=f"^LR rate must be >= 2 and <= 255, got {rates[-1]}$"):
            build_prototype_pairs(tiny_set(), rates)

    def test_no_qualifying_identity_is_an_error(self):
        s = tiny_set()
        s = s.partition(s.identity_array == 1)
        with pytest.raises(DataError, match="two samples"):
            build_prototype_pairs(s)


def record_groups(eset, rates=None):
    """Per-identity HR and LR vectors in record order, walked one row at a time."""
    hr, lr = {}, {}
    for identity, rate, vector in zip(eset.identity_array.tolist(), eset.rate_array.tolist(),
                                      eset.matrix):
        if rate == 0:
            hr.setdefault(identity, []).append(vector)
        elif rates is None or rate in rates:
            lr.setdefault(identity, []).append(vector)
    return hr, lr


def walk_paired(hr, lr):
    """The sorted identities of ``record_groups`` with two vectors on each side."""
    return sorted(i for i in set(hr) | set(lr)
                  if len(hr.get(i, ())) >= 2 and len(lr.get(i, ())) >= 2)


class TestGroupingMatchesRecordWalk:
    """The array grouping reproduces the record-by-record lists bit for bit."""

    def setup_method(self):
        s = generate(SynthConfig(dim=16, num_identities=9, samples_per_res=5,
                                 shift_magnitude={2: 1.0, 3: 2.0}, rates=(2, 3), seed=4))
        rows = np.random.default_rng(0).permutation(len(s))[: len(s) * 4 // 5]  # shuffled, uneven
        # identity 2 keeps one LRx3 row, so rates=[3] pairs fewer identities than None
        lrx3 = rows[(s.identity_array[rows] == 2) & (s.rate_array[rows] == 3)]
        rows = np.setdiff1d(rows, lrx3[1:], assume_unique=True)
        self.set = EmbeddingSet(s.matrix[rows], s.identity_array[rows], s.camera_array[rows],
                                s.rate_array[rows])

    @pytest.mark.parametrize("rates", [None, [3], [3, 2]])
    def test_paired_rows(self, rates):
        hr, lr = record_groups(self.set, rates)
        ids, hr_rows, lr_rows = self.set.paired_rows(rates)
        assert ids == sorted(hr.keys() & lr.keys())
        for identity, hr_idx, lr_idx in zip(ids, hr_rows, lr_rows):
            assert self.set.matrix[hr_idx].tobytes() == np.stack(hr[identity]).tobytes()
            assert self.set.matrix[lr_idx].tobytes() == np.stack(lr[identity]).tobytes()

    @pytest.mark.parametrize("rates", [None, [3]])
    def test_prototype_means(self, rates):
        hr, lr = record_groups(self.set, rates)
        ids, lr_rows, hr_rows = build_prototype_pairs(self.set, rates)
        assert ids.tolist() == walk_paired(hr, lr)
        assert (2 in ids.tolist()) == (rates is None)
        for identity, lr_idx, hr_idx in zip(ids.tolist(), lr_rows, hr_rows):
            assert self.set.matrix[hr_idx].tobytes() == np.stack(hr[identity]).tobytes()
            assert self.set.matrix[lr_idx].tobytes() == np.stack(lr[identity]).tobytes()
            assert (self.set.matrix[hr_idx].mean(axis=0).tobytes()
                    == np.mean(hr[identity], axis=0).tobytes())
            assert (self.set.matrix[lr_idx].mean(axis=0).tobytes()
                    == np.mean(lr[identity], axis=0).tobytes())

    @pytest.mark.parametrize("rates", [None, [3]])
    def test_bootstrap_draws(self, rates):
        hr, lr = record_groups(self.set, rates)
        ids = np.array(walk_paired(hr, lr), dtype=np.int64)
        assert (2 in ids) == (rates is None)  # identity 2 has one LRx3 row
        cfg = TrainConfig(num_pairs=40, seed=6)
        rng = np.random.default_rng(cfg.seed)
        expected = []
        while len(expected) < cfg.num_pairs:
            for identity in rng.permutation(ids):
                if len(expected) == cfg.num_pairs:
                    break
                hs, ls = np.stack(hr[identity]), np.stack(lr[identity])
                n_h = max(2, math.ceil(cfg.bootstrap_fraction * hs.shape[0]))
                n_l = max(2, math.ceil(cfg.bootstrap_fraction * ls.shape[0]))
                pick_h = rng.choice(hs.shape[0], size=n_h, replace=False)
                pick_l = rng.choice(ls.shape[0], size=n_l, replace=False)
                expected.append((identity, ls[pick_l].mean(axis=0).tobytes(),
                                 hs[pick_h].mean(axis=0).tobytes()))
        drawn, z_lr, z_hr = sample_training_pairs(*build_prototype_pairs(self.set, rates),
                                                  self.set.matrix, cfg)
        assert (z_lr.shape, z_hr.shape) == ((40, 16), (40, 16))
        assert list(zip(drawn.tolist(), map(bytes, z_lr), map(bytes, z_hr))) == expected
        z_lr, z_hr = training_pairs(self.set, cfg, rates)
        assert list(zip(map(bytes, z_lr), map(bytes, z_hr))) == [e[1:] for e in expected]


class TestSampleTrainingPairs:
    def setup_method(self):
        self.set = generate(SynthConfig(dim=8, num_identities=7, samples_per_res=5, seed=1))
        self.pairs = build_prototype_pairs(self.set)
        self.ids, lr_rows, hr_rows = self.pairs
        self.lr_means, self.hr_means = means(self.set, lr_rows), means(self.set, hr_rows)

    def sample(self, cfg):
        return sample_training_pairs(*self.pairs, self.set.matrix, cfg)

    def test_degenerate_bootstrap_returns_full_means(self):
        cfg = TrainConfig(num_pairs=7, bootstrap_fraction=1.0, seed=3)
        drawn, z_lr, z_hr = self.sample(cfg)
        assert sorted(drawn.tolist()) == list(range(7))
        np.testing.assert_allclose(z_hr, self.hr_means[drawn])  # identity k at row k
        np.testing.assert_allclose(z_lr, self.lr_means[drawn])

    def test_same_seed_same_sequence(self):
        cfg = TrainConfig(num_pairs=20, seed=5)
        a = self.sample(cfg)
        b = self.sample(cfg)
        for xa, xb in zip(a, b):
            assert xa.tobytes() == xb.tobytes()

    def test_draw_counts_differ_by_at_most_one(self):
        cfg = TrainConfig(num_pairs=50, seed=2)
        drawn, _, _ = self.sample(cfg)
        counts = Counter(drawn.tolist())
        assert sorted(counts) == list(range(7))
        assert set(counts.values()) <= {50 // 7, 50 // 7 + 1}  # 7 or 8
        assert sum(counts.values()) == 50

    def test_bootstrap_draws_of_one_identity_differ(self):
        cfg = TrainConfig(num_pairs=14, bootstrap_fraction=0.5, seed=4)
        drawn, z_lr, z_hr = self.sample(cfg)
        for identity in range(7):
            first, second = np.flatnonzero(drawn == identity)
            # the pair as a whole must differ (either side may collide by
            # chance, both together is a different bootstrap draw)
            same_pair = np.array_equal(z_hr[first], z_hr[second]) and (
                np.array_equal(z_lr[first], z_lr[second])
            )
            assert not same_pair

    def test_no_identities_is_an_error(self):
        with pytest.raises(DataError, match="no prototype pairs"):
            sample_training_pairs(self.ids[:0], [], [], self.set.matrix, TrainConfig(num_pairs=3))


class TestVplLoss:
    def test_zero_at_target(self):
        v = np.array([1.0, -2.0])
        loss, grad = vpl_loss(v, v)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(2))

    def test_unit_basis_difference(self):
        z = np.array([0.0, 1.0, 0.0])
        loss, grad = vpl_loss(z, np.zeros(3))
        assert loss == 1.0
        np.testing.assert_array_equal(grad, 2.0 * z)

    def test_sum_of_squares_no_dimension_averaging(self):
        loss, _ = vpl_loss(np.array([1.0, 2.0]), np.zeros(2))
        assert loss == 5.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(6)
        t = rng.standard_normal(6)
        _, grad = vpl_loss(z, t)
        h = 1e-6
        for i in range(6):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            numeric = (vpl_loss(zp, t)[0] - vpl_loss(zm, t)[0]) / (2 * h)
            assert abs(grad[i] - numeric) / max(abs(numeric), 1e-8) < 1e-6


class TestLawOfCosines:
    def test_residual_tiny_for_equal_vectors(self):
        v = np.array([3.0, 4.0])
        assert law_of_cosines_check(v, v) <= 1e-12 * (1 + 2 * np.dot(v, v))

    def test_thousand_seeded_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            a = rng.standard_normal(16)
            b = rng.standard_normal(16)
            r2 = np.dot(a, a)
            big_r2 = np.dot(b, b)
            assert law_of_cosines_check(a, b) <= 1e-9 * (1 + r2 + big_r2)

    def test_zero_vector_rejected(self):
        with pytest.raises(DataError):
            law_of_cosines_check(np.zeros(3), np.ones(3))


def reference_adam_scalar(grad_fn, theta, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Trajectory of textbook Adam on a scalar, written independently."""
    m = v = 0.0
    path = []
    for t in range(1, steps + 1):
        g = grad_fn(theta)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
        path.append(theta)
    return path


def unblocked_adam(tensors, grads, m, v, lr, wd, t, beta1=0.9, beta2=0.999, eps=1e-8):
    """The whole-tensor Adam formula, with the association adam_step must keep."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, theta in tensors.items():
        g = grads[name] + wd * theta
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        theta -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)


class TestAdamStep:
    @pytest.mark.parametrize("shapes", [
        {"theta": (3 * ADAM_BLOCK + 1234,)},
        {"w": (37, ADAM_BLOCK // 16), "b": (5,), "gain": (1, 3), "empty": (0,)},
        # a tail shorter than a block joins the blocks before it
        {"one_block_and_a_tail": (2 * ADAM_BLOCK - 1,)},
        {"desk_slice": (17024,)},
        {"blocks_and_a_long_tail": (5 * ADAM_BLOCK - 3,), "exact": (2 * ADAM_BLOCK,)},
    ])
    def test_blocked_is_bit_identical_to_unblocked_formula(self, shapes):
        rng = np.random.default_rng(11)
        tensors = {k: rng.standard_normal(s) for k, s in shapes.items()}
        ref = {k: t.copy() for k, t in tensors.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        state = AdamState.zeros_like(tensors)
        for t in range(1, 4):
            grads = {k: rng.standard_normal(s) for k, s in shapes.items()}
            adam_step(tensors, grads, state, lr=3e-3, wd=1e-2, t=t)
            unblocked_adam(ref, grads, m, v, lr=3e-3, wd=1e-2, t=t)
        for k in shapes:
            assert tensors[k].tobytes() == ref[k].tobytes()
            assert state.m[k].tobytes() == m[k].tobytes()
            assert state.v[k].tobytes() == v[k].tobytes()

    @pytest.mark.parametrize("size, width", [
        (5, 5), (ADAM_BLOCK, ADAM_BLOCK), (2 * ADAM_BLOCK - 1, 2 * ADAM_BLOCK - 1),
        (17024, 17024), (5 * ADAM_BLOCK - 3, -(-(5 * ADAM_BLOCK - 3) // 4)),
    ])
    def test_scratch_grows_to_the_largest_block(self, size, width):
        # n // ADAM_BLOCK near-equal blocks: a short tail joins the blocks before it
        tensors = {"theta": np.ones(size)}
        state = AdamState.zeros_like(tensors)
        adam_step(tensors, {"theta": np.ones(size)}, state, lr=0.1)
        assert state.work.shape == (2, width)

    def test_non_contiguous_tensor_rejected(self):
        tensors = {"w": np.ones((4, 4))[:, :2]}
        with pytest.raises(ValueError, match="contiguous"):
            adam_step(tensors, {"w": np.ones((4, 2))},
                      AdamState.zeros_like(tensors), lr=0.1)

    def test_zero_gradient_zero_decay_is_identity(self):
        tensors = {"a": np.array([1.0, -2.0]), "b": np.array([[3.0]])}
        before = {k: v.copy() for k, v in tensors.items()}
        state = AdamState.zeros_like(tensors)
        adam_step(tensors, {k: np.zeros_like(v) for k, v in tensors.items()},
                  state, lr=0.1, wd=0.0, t=1)
        for k in tensors:
            np.testing.assert_array_equal(tensors[k], before[k])

    def test_first_step_scalar_value(self):
        # bias correction cancels at t=1: theta' = 1 - lr / (1 + eps)
        tensors = {"theta": np.array([1.0])}
        state = AdamState.zeros_like(tensors)
        adam_step(tensors, {"theta": np.array([1.0])}, state, lr=0.01, wd=0.0, t=1)
        assert tensors["theta"][0] == pytest.approx(1 - 0.01 / (1 + 1e-8), abs=1e-15)

    def test_matches_reference_on_quadratic(self):
        # minimize theta^2 / 2 from theta = 1 (gradient = theta)
        tensors = {"theta": np.array([1.0])}
        state = AdamState.zeros_like(tensors)
        path = []
        for t in range(1, 11):
            grads = {"theta": tensors["theta"].copy()}
            adam_step(tensors, grads, state, lr=0.1, wd=0.0, t=t)
            path.append(float(tensors["theta"][0]))
        expected = reference_adam_scalar(lambda x: x, 1.0, 0.1, 10)
        np.testing.assert_allclose(path, expected, atol=1e-14)
        magnitudes = [1.0] + [abs(x) for x in path]
        assert all(b < a for a, b in zip(magnitudes, magnitudes[1:]))

    def test_weight_decay_shrinks_parameters(self):
        tensors = {"theta": np.array([1.0])}
        state = AdamState.zeros_like(tensors)
        adam_step(tensors, {"theta": np.array([0.0])}, state, lr=0.1, wd=0.5, t=1)
        assert tensors["theta"][0] < 1.0

    def test_step_index_must_be_positive(self):
        tensors = {"theta": np.array([1.0])}
        with pytest.raises(ValueError):
            adam_step(tensors, {"theta": np.array([1.0])},
                      AdamState.zeros_like(tensors), lr=0.1, t=0)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 120
        assert cfg.learning_rate == 2e-4
        assert cfg.weight_decay == 1e-5
        assert cfg.batch_size == 32
        assert cfg.num_pairs == 5000

    def test_bad_bootstrap_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(bootstrap_fraction=0.0)

    @pytest.mark.parametrize("field", ["learning_rate", "weight_decay"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rates_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be finite and .*, got {value}$"):
            TrainConfig(**{field: value})


def reference_train(eset, net_cfg, cfg):
    """The training loop with allocating forward/backward calls, step by step."""
    _, z_lr, z_hr = sample_training_pairs(*build_prototype_pairs(eset), eset.matrix, cfg)
    params = init_params(net_cfg.dim, net_cfg.hidden, net_cfg.init_std, net_cfg.seed)
    grads = VPParams(net_cfg.dim, net_cfg.hidden, np.empty_like(params.flat))
    theta, dtheta = {"theta": params.flat}, {"theta": grads.flat}
    state = AdamState.zeros_like(theta)
    order_rng = np.random.default_rng([cfg.seed, 1])
    num = z_lr.shape[0]
    losses, t = [], 0
    for _ in range(cfg.epochs):
        perm = order_rng.permutation(num)
        total = 0.0
        for s in range(math.ceil(num / cfg.batch_size)):
            idx = perm[s * cfg.batch_size : (s + 1) * cfg.batch_size]
            zhat, trace = forward(params, z_lr[idx])
            diff = zhat - z_hr[idx]
            total += float(np.sum(diff * diff))
            backward(params, trace, (2.0 / idx.size) * diff, out=grads)
            t += 1
            adam_step(theta, dtheta, state, lr=cfg.learning_rate, wd=cfg.weight_decay, t=t)
        losses.append(total / num)
    return params, losses


class TestTrain:
    def setup_method(self):
        self.set = generate(SynthConfig(num_identities=50, seed=7))
        self.net_cfg = NetConfig(dim=64, hidden=64, seed=0)

    def test_zero_epochs_returns_init_params(self):
        cfg = TrainConfig(epochs=0, num_pairs=50, seed=1)
        params, log = train(*training_pairs(self.set, cfg), self.net_cfg, cfg)
        init = init_params(64, 64, seed=0)
        for name in TENSOR_ORDER:
            assert getattr(params, name).tobytes() == getattr(init, name).tobytes()
        assert log.epoch_loss == []

    def test_deterministic_given_seeds(self):
        cfg = TrainConfig(epochs=3, num_pairs=100, seed=2)
        p1, log1 = train(*training_pairs(self.set, cfg), self.net_cfg, cfg)
        p2, log2 = train(*training_pairs(self.set, cfg), self.net_cfg, cfg)
        for name in TENSOR_ORDER:
            assert getattr(p1, name).tobytes() == getattr(p2, name).tobytes()
        assert log1.epoch_loss == log2.epoch_loss

    def test_loss_drops_sharply_on_planted_shift(self):
        cfg = TrainConfig(epochs=15, num_pairs=500, seed=3)
        _, log = train(*training_pairs(self.set, cfg), self.net_cfg, cfg)
        assert len(log.epoch_loss) == 15
        assert log.epoch_loss[-1] < 0.1 * log.epoch_loss[0]
        assert log.wall_time > 0

    def test_dimension_mismatch_rejected(self):
        cfg = TrainConfig(epochs=1)
        with pytest.raises(ValueError, match="network dim 32 != data dim 64"):
            train(*training_pairs(self.set, cfg), NetConfig(dim=32, hidden=16), cfg)

    def test_workspace_equals_allocating_loop_with_short_last_batch(self):
        cfg = TrainConfig(epochs=3, num_pairs=70, batch_size=32, seed=4)  # last batch: 6
        params, log = train(*training_pairs(self.set, cfg), self.net_cfg, cfg)
        ref_params, ref_losses = reference_train(self.set, self.net_cfg, cfg)
        assert params.flat.tobytes() == ref_params.flat.tobytes()
        assert log.epoch_loss == ref_losses

    def test_batch_larger_than_pairs_uses_one_batch_of_all_pairs(self):
        huge = TrainConfig(epochs=2, num_pairs=64, batch_size=10**9, seed=5)
        exact = TrainConfig(epochs=2, num_pairs=64, batch_size=64, seed=5)
        p1, log1 = train(*training_pairs(self.set, huge), self.net_cfg, huge)
        p2, log2 = train(*training_pairs(self.set, exact), self.net_cfg, exact)
        assert p1.flat.tobytes() == p2.flat.tobytes()
        assert log1.epoch_loss == log2.epoch_loss

    def test_divergence_is_a_data_error(self):
        cfg = TrainConfig(epochs=2, num_pairs=64, learning_rate=1e300, seed=1)
        with pytest.raises(DataError, match="diverged"):
            train(*training_pairs(self.set, cfg), self.net_cfg, cfg)

    def test_non_finite_parameters_are_a_data_error(self, monkeypatch):
        def init_params(*args):  # init_params itself rejects a non-finite init_std
            params = vpnet_init(*args)
            params.w2[0, 0] = np.inf
            return params

        vpnet_init = vpnet.init_params
        monkeypatch.setattr(vpnet, "init_params", init_params)
        net_cfg = NetConfig(dim=64, hidden=8)
        cfg = TrainConfig(epochs=0, num_pairs=8)
        with pytest.raises(DataError, match="non-finite"):
            train(*training_pairs(self.set, cfg), net_cfg, cfg)

    @pytest.mark.parametrize("shapes", [((4, 64), (4, 63)), ((4, 64), (5, 64)), ((0, 64),) * 2,
                                        ((64,), (64,))])
    def test_pairs_of_other_shapes_rejected(self, shapes):
        z_lr, z_hr = (np.zeros(shape) for shape in shapes)
        with pytest.raises(ValueError, match="pairs must be two"):
            train(z_lr, z_hr, self.net_cfg, TrainConfig(epochs=1))


class TestAdamInsideBackward:
    """train steps Adam on slices of the parameter vector as backward
    finishes them, through one slice-sized gradient buffer."""

    @pytest.mark.parametrize("dim, hidden, want", [
        (4, 3, [("4321", 0, 73)]),  # one call per step
        (64, 64, [("4321", 0, 17024)]),  # the desk: one call of one Adam block
        (3840, 2048, [("4", 16271360, 24139520), ("3", 12070912, 16271360),
                      ("2", 7870464, 12070912), ("1", 0, 7870464)]),
    ])
    def test_slices(self, dim, hidden, want):
        assert adam_slices(dim, hidden) == want

    def test_desk_network_steps_adam_once_per_batch(self, monkeypatch):
        calls = []

        def counting_adam_step(tensors, grads, state, **kwargs):
            calls.append([t.size for t in tensors.values()])
            return adam_step(tensors, grads, state, **kwargs)

        monkeypatch.setattr(trainer, "adam_step", counting_adam_step)
        rng = np.random.default_rng(6)
        z_lr = rng.standard_normal((70, 64))
        cfg = TrainConfig(epochs=2, batch_size=32)
        train(z_lr, z_lr + 0.1, NetConfig(dim=64, hidden=64), cfg)
        assert calls == [[parameter_count(64, 64)]] * (2 * 3)

    @pytest.mark.parametrize("dim, hidden", [(1, 1), (5, 200), (300, 7), (160, 128)])
    def test_slices_tile_the_vector_from_the_end_down(self, dim, hidden):
        slices = adam_slices(dim, hidden)
        assert "".join(key for key, _, _ in slices) == "4321"
        assert slices[0][2] == parameter_count(dim, hidden) and slices[-1][1] == 0
        assert all(a[1] == b[2] for a, b in zip(slices, slices[1:]))

    def test_equals_whole_vector_adam_when_each_group_spans_blocks(self):
        # dim 160 / hidden 128: four slices of one group each, every one
        # longer than ADAM_BLOCK; 70 pairs in batches of 32 end with 6
        s = generate(SynthConfig(dim=160, num_identities=20, samples_per_res=4, seed=3))
        net_cfg = NetConfig(dim=160, hidden=128, seed=2)
        cfg = TrainConfig(epochs=2, num_pairs=70, batch_size=32, seed=4)
        slices = adam_slices(160, 128)
        assert len(slices) == 4 and min(hi - lo for _, lo, hi in slices) > ADAM_BLOCK
        params, log = train(*training_pairs(s, cfg), net_cfg, cfg)
        ref_params, ref_losses = reference_train(s, net_cfg, cfg)
        assert params == ref_params
        assert log.epoch_loss == ref_losses

    def test_peak_memory_holds_three_parameter_vectors_and_one_slice(self):
        # parameters and two moments, the largest slice's gradients, the
        # step workspace and Adam's scratch; the slack covers numpy's
        # casting buffers, far less than the gradient vector it replaces
        dim, hidden, rows = 256, 256, 8
        rng = np.random.default_rng(5)
        z_lr = rng.standard_normal((20, dim))
        z_hr = z_lr + 0.1
        trace = ForwardTrace.allocate(rows, dim, hidden)
        workspace = (sum(getattr(trace, name).nbytes for name in vars(trace)
                         if isinstance(getattr(trace, name), np.ndarray))
                     + 4 * rows * dim * 8 + 2 * ADAM_BLOCK * 8)
        largest = max(hi - lo for _, lo, hi in adam_slices(dim, hidden))
        vector = 8 * parameter_count(dim, hidden)
        assert 8 * largest + 256 * 1024 < vector / 2  # a gradient vector breaks the bound
        cfg = TrainConfig(epochs=1, batch_size=rows)
        tracemalloc.start()
        try:
            train(z_lr, z_hr, NetConfig(dim=dim, hidden=hidden), cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * vector + 8 * largest + workspace + 256 * 1024


class TestTrainingPairs:
    def test_are_the_sampled_means_of_the_paired_identities(self):
        s = generate(SynthConfig(dim=8, num_identities=6, samples_per_res=4,
                                 shift_magnitude={2: 1.0, 3: 2.0}, rates=(2, 3), seed=3))
        cfg = TrainConfig(num_pairs=20, seed=4)
        for rates in (None, [3]):
            _, want_lr, want_hr = sample_training_pairs(*build_prototype_pairs(s, rates),
                                                        s.matrix, cfg)
            z_lr, z_hr = training_pairs(s, cfg, rates)
            assert z_lr.tobytes() == want_lr.tobytes() and z_hr.tobytes() == want_hr.tobytes()

    def test_groups_the_set_once(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(EmbeddingSet, "rows_by_identity",
                            counted("rows_by_identity", EmbeddingSet.rows_by_identity))
        monkeypatch.setattr(embeddings, "check_lr_rates",
                            counted("check_lr_rates", check_lr_rates))
        s = generate(SynthConfig(dim=4, num_identities=3, samples_per_res=2, seed=0))
        training_pairs(s, TrainConfig(num_pairs=4), rates=[2])
        assert calls == {"rows_by_identity": 2, "check_lr_rates": 1}

    def test_repeated_rate_rejected(self):
        with pytest.raises(ValueError, match=r"^LR rates must be distinct, got \[2, 2\]$"):
            training_pairs(tiny_set(), TrainConfig(num_pairs=4), rates=[2, 2])


@pytest.mark.parametrize("call, message", [
    (lambda: vpl_loss(np.zeros((2, 3)), np.zeros((2, 4))), "loss operands must have equal shapes"),
    (lambda: vpl_loss(np.zeros(3), np.zeros((1, 3))), "loss operands must have equal shapes"),
    (lambda: VPParams(2, 3, np.zeros(2 * parameter_count(2, 3))[::2]),
     "flat parameters must be a contiguous float64 vector"),
    (lambda: VPParams(2, 3, np.zeros(parameter_count(2, 3), np.float32)),
     "flat parameters must be a contiguous float64 vector"),
], ids=["loss-columns", "loss-rank", "params-strided", "params-float32"])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
