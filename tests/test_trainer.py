import math
from collections import Counter

import numpy as np
import pytest

from vpfa.embeddings import EmbeddingRecord, EmbeddingSet, Resolution
from vpfa.errors import DataError
from vpfa.synthgen import SynthConfig, generate
from vpfa.trainer import (
    ADAM_BLOCK,
    AdamState,
    TrainConfig,
    adam_step,
    build_prototype_pairs,
    law_of_cosines_check,
    sample_training_pairs,
    train,
    vpl_loss,
)
from vpfa.vpnet import TENSOR_ORDER, NetConfig, backward, forward, init_from_config


def tiny_set():
    """Two identities; identity 1 has a single LR sample and must be skipped."""
    hr = Resolution(0)
    lr = Resolution(2)
    records = [
        EmbeddingRecord(0, 0, hr, np.array([1.0, 0.0])),
        EmbeddingRecord(0, 1, hr, np.array([0.0, 1.0])),
        EmbeddingRecord(0, 0, lr, np.array([2.0, 0.0])),
        EmbeddingRecord(0, 1, lr, np.array([0.0, 2.0])),
        EmbeddingRecord(1, 0, hr, np.array([5.0, 5.0])),
        EmbeddingRecord(1, 1, hr, np.array([5.0, 5.0])),
        EmbeddingRecord(1, 0, lr, np.array([4.0, 4.0])),
    ]
    return EmbeddingSet(2, records)


class TestBuildPrototypePairs:
    def test_arithmetic_means(self):
        pairs, skipped = build_prototype_pairs(tiny_set())
        assert len(pairs) == 1 and skipped == 1
        np.testing.assert_allclose(pairs[0].hr_mean, [0.5, 0.5])
        np.testing.assert_allclose(pairs[0].lr_mean, [1.0, 1.0])

    def test_single_lr_sample_excluded(self):
        pairs, skipped = build_prototype_pairs(tiny_set())
        assert all(p.identity != 1 for p in pairs)
        assert skipped == 1

    def test_sample_order_irrelevant(self):
        s = tiny_set()
        reordered = EmbeddingSet(2, list(reversed(s.records)))
        a, _ = build_prototype_pairs(s)
        b, _ = build_prototype_pairs(reordered)
        np.testing.assert_allclose(a[0].hr_mean, b[0].hr_mean)
        np.testing.assert_allclose(a[0].lr_mean, b[0].lr_mean)

    def test_rate_restriction(self):
        cfg = SynthConfig(
            dim=4, num_identities=3, samples_per_res=2,
            shift_magnitude={2: 1.0, 3: 2.0}, rates=(2, 3), seed=0,
        )
        s = generate(cfg)
        pooled, _ = build_prototype_pairs(s)
        only2, _ = build_prototype_pairs(s, rates=[2])
        assert len(pooled) == len(only2) == 3
        assert not np.allclose(pooled[0].lr_mean, only2[0].lr_mean)

    def test_no_qualifying_identity_is_an_error(self):
        s = tiny_set().partition(lambda r: r.identity == 1)
        with pytest.raises(DataError, match="two samples"):
            build_prototype_pairs(s)


def record_groups(eset, rates=None):
    """Per-identity HR and LR vectors in record order, walked one record at a time."""
    hr, lr = {}, {}
    for rec in eset.records:
        if rec.resolution.is_hr:
            hr.setdefault(rec.identity, []).append(rec.vector)
        elif rates is None or rec.resolution.rate in rates:
            lr.setdefault(rec.identity, []).append(rec.vector)
    return hr, lr


class TestGroupingMatchesRecordWalk:
    """The array grouping reproduces the record-by-record lists bit for bit."""

    def setup_method(self):
        s = generate(SynthConfig(dim=16, num_identities=9, samples_per_res=5,
                                 shift_magnitude={2: 1.0, 3: 2.0}, rates=(2, 3), seed=4))
        rows = np.random.default_rng(0).permutation(len(s))[: len(s) * 4 // 5]  # shuffled, uneven
        self.set = EmbeddingSet.from_arrays(s.matrix[rows], s.identity_array[rows],
                                            s.camera_array[rows], s.rate_array[rows])
        self.hr, self.lr = record_groups(self.set)

    @pytest.mark.parametrize("rates", [None, [3]])
    def test_prototype_means(self, rates):
        hr, lr = record_groups(self.set, rates)
        pairs, skipped = build_prototype_pairs(self.set, rates)
        assert len(pairs) + skipped == len(set(hr) | set(lr))
        for p in pairs:
            assert p.hr_mean.tobytes() == np.mean(hr[p.identity], axis=0).tobytes()
            assert p.lr_mean.tobytes() == np.mean(lr[p.identity], axis=0).tobytes()

    def test_bootstrap_draws(self):
        pairs, _ = build_prototype_pairs(self.set)
        cfg = TrainConfig(num_pairs=40, seed=6)
        rng = np.random.default_rng(cfg.seed)
        ids = np.array([p.identity for p in pairs])
        expected = []
        while len(expected) < cfg.num_pairs:
            for identity in rng.permutation(ids):
                if len(expected) == cfg.num_pairs:
                    break
                hs, ls = np.stack(self.hr[identity]), np.stack(self.lr[identity])
                n_h = max(2, math.ceil(cfg.bootstrap_fraction * hs.shape[0]))
                n_l = max(2, math.ceil(cfg.bootstrap_fraction * ls.shape[0]))
                pick_h = rng.choice(hs.shape[0], size=n_h, replace=False)
                pick_l = rng.choice(ls.shape[0], size=n_l, replace=False)
                expected.append((identity, ls[pick_l].mean(axis=0).tobytes(),
                                 hs[pick_h].mean(axis=0).tobytes()))
        got = [(p.identity, p.lr_mean.tobytes(), p.hr_mean.tobytes())
               for p in sample_training_pairs(pairs, self.set, cfg)]
        assert got == expected


class TestSampleTrainingPairs:
    def setup_method(self):
        self.set = generate(SynthConfig(dim=8, num_identities=7, samples_per_res=5, seed=1))
        self.pairs, _ = build_prototype_pairs(self.set)

    def test_degenerate_bootstrap_returns_full_means(self):
        cfg = TrainConfig(num_pairs=7, bootstrap_fraction=1.0, seed=3)
        sampled = sample_training_pairs(self.pairs, self.set, cfg)
        assert sorted(p.identity for p in sampled) == list(range(7))
        by_id = {p.identity: p for p in self.pairs}
        for p in sampled:
            np.testing.assert_allclose(p.hr_mean, by_id[p.identity].hr_mean)
            np.testing.assert_allclose(p.lr_mean, by_id[p.identity].lr_mean)

    def test_same_seed_same_sequence(self):
        cfg = TrainConfig(num_pairs=20, seed=5)
        a = sample_training_pairs(self.pairs, self.set, cfg)
        b = sample_training_pairs(self.pairs, self.set, cfg)
        for pa, pb in zip(a, b):
            assert pa.identity == pb.identity
            np.testing.assert_array_equal(pa.hr_mean, pb.hr_mean)

    def test_draw_counts_differ_by_at_most_one(self):
        cfg = TrainConfig(num_pairs=50, seed=2)
        sampled = sample_training_pairs(self.pairs, self.set, cfg)
        counts = Counter(p.identity for p in sampled)
        assert sorted(counts) == list(range(7))
        assert set(counts.values()) <= {50 // 7, 50 // 7 + 1}  # 7 or 8
        assert sum(counts.values()) == 50

    def test_bootstrap_draws_of_one_identity_differ(self):
        cfg = TrainConfig(num_pairs=14, bootstrap_fraction=0.5, seed=4)
        sampled = sample_training_pairs(self.pairs, self.set, cfg)
        for identity in range(7):
            draws = [p for p in sampled if p.identity == identity]
            assert len(draws) == 2
            # the pair as a whole must differ (either side may collide by
            # chance, both together is a different bootstrap draw)
            same_pair = np.array_equal(draws[0].hr_mean, draws[1].hr_mean) and (
                np.array_equal(draws[0].lr_mean, draws[1].lr_mean)
            )
            assert not same_pair


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
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(**{field: value})


def reference_train(eset, net_cfg, cfg):
    """The training loop with allocating forward/backward calls, step by step."""
    pairs, _ = build_prototype_pairs(eset)
    sampled = sample_training_pairs(pairs, eset, cfg)
    z_lr = np.stack([p.lr_mean for p in sampled])
    z_hr = np.stack([p.hr_mean for p in sampled])
    params = init_from_config(net_cfg)
    theta, grads = {"theta": params.flat}, {"theta": np.empty_like(params.flat)}
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
            backward(params, trace, (2.0 / idx.size) * diff, out=grads["theta"])
            t += 1
            adam_step(theta, grads, state, lr=cfg.learning_rate, wd=cfg.weight_decay, t=t)
        losses.append(total / num)
    return params, losses


class TestTrain:
    def setup_method(self):
        self.set = generate(SynthConfig(num_identities=50, seed=7))
        self.net_cfg = NetConfig(dim=64, hidden=64, seed=0)

    def test_zero_epochs_returns_init_params(self):
        cfg = TrainConfig(epochs=0, num_pairs=50, seed=1)
        params, log = train(self.set, self.net_cfg, cfg)
        init = init_from_config(self.net_cfg)
        for name in TENSOR_ORDER:
            assert getattr(params, name).tobytes() == getattr(init, name).tobytes()
        assert log.epoch_loss == []

    def test_deterministic_given_seeds(self):
        cfg = TrainConfig(epochs=3, num_pairs=100, seed=2)
        p1, log1 = train(self.set, self.net_cfg, cfg)
        p2, log2 = train(self.set, self.net_cfg, cfg)
        for name in TENSOR_ORDER:
            assert getattr(p1, name).tobytes() == getattr(p2, name).tobytes()
        assert log1.epoch_loss == log2.epoch_loss

    def test_loss_drops_sharply_on_planted_shift(self):
        cfg = TrainConfig(epochs=15, num_pairs=500, seed=3)
        _, log = train(self.set, self.net_cfg, cfg)
        assert len(log.epoch_loss) == 15
        assert log.epoch_loss[-1] < 0.1 * log.epoch_loss[0]
        assert log.wall_time > 0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            train(self.set, NetConfig(dim=32, hidden=16), TrainConfig(epochs=1))

    def test_workspace_equals_allocating_loop_with_short_last_batch(self):
        cfg = TrainConfig(epochs=3, num_pairs=70, batch_size=32, seed=4)  # last batch: 6
        params, log = train(self.set, self.net_cfg, cfg)
        ref_params, ref_losses = reference_train(self.set, self.net_cfg, cfg)
        assert params.flat.tobytes() == ref_params.flat.tobytes()
        assert log.epoch_loss == ref_losses

    def test_batch_larger_than_pairs_uses_one_batch_of_all_pairs(self):
        huge = TrainConfig(epochs=2, num_pairs=64, batch_size=10**9, seed=5)
        exact = TrainConfig(epochs=2, num_pairs=64, batch_size=64, seed=5)
        p1, log1 = train(self.set, self.net_cfg, huge)
        p2, log2 = train(self.set, self.net_cfg, exact)
        assert p1.flat.tobytes() == p2.flat.tobytes()
        assert log1.epoch_loss == log2.epoch_loss

    def test_divergence_is_a_data_error(self):
        cfg = TrainConfig(epochs=2, num_pairs=64, learning_rate=1e300, seed=1)
        with pytest.raises(DataError, match="diverged"):
            train(self.set, self.net_cfg, cfg)

    def test_non_finite_parameters_are_a_data_error(self):
        net_cfg = NetConfig(dim=64, hidden=8, init_std=float("inf"))
        with pytest.raises(DataError, match="non-finite"):
            train(self.set, net_cfg, TrainConfig(epochs=0, num_pairs=8))
