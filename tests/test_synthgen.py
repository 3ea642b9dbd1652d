import numpy as np
import pytest

from vpfa.embeddings import EmbeddingSet, save_set
from vpfa.synthgen import SynthConfig, generate, planted_direction


def brute_force_centroids(eset):
    """Per-identity centroids recomputed by plain iteration over records."""
    hr, lr = {}, {}
    for rec in eset.records:
        box = hr if rec.resolution.is_hr else lr
        box.setdefault(rec.identity, []).append(rec.vector)
    hr_cent = {i: np.mean(v, axis=0) for i, v in hr.items()}
    lr_cent = {i: np.mean(v, axis=0) for i, v in lr.items()}
    return hr_cent, lr_cent


def reference_generate(cfg):
    """The generator as one record per draw: the draw order and arithmetic
    that ``generate`` must reproduce byte for byte."""
    rng = np.random.default_rng(cfg.seed)
    rng.standard_normal(cfg.dim)
    direction = planted_direction(cfg)
    rows = []  # (identity, camera, rate, vector)
    for identity in range(cfg.num_identities):
        prototype = cfg.id_spread * rng.standard_normal(cfg.dim)
        for j in range(cfg.samples_per_res):
            vec = prototype + cfg.sample_noise * rng.standard_normal(cfg.dim)
            rows.append((identity, j % cfg.cameras, 0, vec))
        for rate in cfg.rates:
            shift = cfg.shift_magnitude[rate] * direction
            for j in range(cfg.samples_per_res):
                base = prototype + cfg.sample_noise * rng.standard_normal(cfg.dim)
                vec = base - shift + cfg.shift_noise * rng.standard_normal(cfg.dim)
                rows.append((identity, j % cfg.cameras, rate, vec))
    identity, camera, rate, vectors = zip(*rows)
    return EmbeddingSet(np.stack(vectors), identity, camera, rate)


class TestConfigValidation:
    def test_needs_two_samples_per_resolution(self):
        with pytest.raises(ValueError):
            SynthConfig(samples_per_res=1)

    @pytest.mark.parametrize("rates, message", [
        ((1,), "LR rate must be >= 2 and <= 255, got 1"),
        ((2, 256), "LR rate must be >= 2 and <= 255, got 256"),
        ((2, 3, 2), r"LR rates must be distinct, got \[2, 3, 2\]"),
    ])
    def test_rates_are_distinct_lr_rates(self, rates, message):
        with pytest.raises(ValueError, match=message):
            SynthConfig(rates=rates, shift_magnitude={r: 1.0 for r in rates})

    def test_every_rate_needs_a_shift(self):
        with pytest.raises(ValueError, match="rate 3"):
            SynthConfig(rates=(2, 3), shift_magnitude={2: 1.0})

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(sample_noise=-0.1)

    @pytest.mark.parametrize("field", ["id_spread", "sample_noise", "shift_noise"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.5])
    def test_scales_must_be_finite_and_non_negative(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be finite and non-negative, "
                                             rf"got {value}$"):
            SynthConfig(**{field: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_shift_magnitudes_must_be_finite_and_non_negative(self, value):
        with pytest.raises(ValueError, match=rf"^shift_magnitude\[3\] must be finite and "
                                             rf"non-negative, got {value}$"):
            SynthConfig(rates=(2, 3), shift_magnitude={2: 1.0, 3: value})

    @pytest.mark.parametrize("field", ["seed", "direction_seed"])
    def test_seeds_must_be_non_negative(self, field):
        with pytest.raises(ValueError, match=rf"^{field} must be non-negative, got -1$"):
            SynthConfig(**{field: -1})


class TestGenerate:
    def test_noise_free_lr_equals_hr(self):
        cfg = SynthConfig(
            dim=8, num_identities=3, samples_per_res=2, id_spread=1.0,
            sample_noise=0.0, shift_noise=0.0, shift_magnitude={2: 0.0},
            rates=(2,), seed=3,
        )
        s = generate(cfg)
        for identity in s.identities():
            own = s.identity_array == identity
            hr = s.matrix[own & (s.rate_array == 0)]
            lr = s.matrix[own & (s.rate_array == 2)]
            for h, l in zip(hr, lr):
                np.testing.assert_array_equal(h, l)

    def test_same_seed_bitwise_identical(self, tmp_path):
        cfg = SynthConfig(dim=16, num_identities=5, samples_per_res=3, seed=42)
        p1, p2 = tmp_path / "a.vpfa", tmp_path / "b.vpfa"
        save_set(generate(cfg), p1, "bin")
        save_set(generate(cfg), p2, "bin")
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("cfg", [
        SynthConfig(dim=16, num_identities=7, samples_per_res=3, seed=4),
        SynthConfig(dim=1, num_identities=3, samples_per_res=5, cameras=3, rates=(4, 2, 9),
                    shift_magnitude={2: 0.5, 4: 1.0, 9: 3.0}, seed=8, direction_seed=1),
        SynthConfig(dim=8, num_identities=2, samples_per_res=2, sample_noise=0.0,
                    shift_noise=0.0, rates=(), seed=2),
    ])
    def test_equals_the_record_loop_byte_for_byte(self, cfg):
        got, want = generate(cfg), reference_generate(cfg)
        for name in ("matrix", "identity_array", "camera_array", "rate_array"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_record_order_and_cameras(self):
        cfg = SynthConfig(
            dim=4, num_identities=2, samples_per_res=3, cameras=2,
            rates=(2, 4), shift_magnitude={2: 1.0, 4: 2.0}, seed=0,
        )
        s = generate(cfg)
        # per identity: 3 HR, then 3 LRx2, then 3 LRx4
        expected = []
        for identity in range(2):
            for rate in (0, 2, 4):
                for j in range(3):
                    expected.append((identity, j % 2, rate))
        got = [(r.identity, r.camera, r.resolution.rate) for r in s.records]
        assert got == expected

    @pytest.mark.parametrize("cameras", [4, 2**63 - 1, 2**63, 2**64])
    def test_cameras_beyond_the_samples_cycle_no_further(self, cameras):
        cfg = SynthConfig(dim=2, num_identities=2, samples_per_res=4, rates=(2, 3),
                          shift_magnitude={2: 1.0, 3: 2.0}, cameras=cameras, seed=1)
        got, want = generate(cfg), reference_generate(cfg)
        assert got.camera_array.tolist() == want.camera_array.tolist() == [0, 1, 2, 3] * 6
        assert got.matrix.tobytes() == want.matrix.tobytes()

    def test_exact_shift_when_noise_free(self):
        cfg = SynthConfig(
            dim=32, num_identities=4, samples_per_res=2, id_spread=1.0,
            sample_noise=0.0, shift_noise=0.0,
            shift_magnitude={2: 1.0, 3: 2.5}, rates=(2, 3), seed=9,
        )
        s = generate(cfg)
        d = planted_direction(cfg)
        hr_cent, _ = brute_force_centroids(s)
        for rate, alpha in [(2, 1.0), (3, 2.5)]:
            for identity in s.identities():
                own = (s.identity_array == identity) & (s.rate_array == rate)
                lr_mean = s.matrix[own].mean(axis=0)
                np.testing.assert_allclose(
                    hr_cent[identity] - lr_mean, alpha * d, atol=1e-12
                )

    def test_mean_shift_recovers_planted_direction(self):
        # noisy setting: empirical mean HR-LR shift, via brute-force centroids,
        # must match the planted magnitude within 10% and direction cosine >= 0.99
        cfg = SynthConfig(
            dim=64, num_identities=200, samples_per_res=10, id_spread=1.0,
            sample_noise=0.3, shift_noise=0.1, shift_magnitude={2: 1.5},
            rates=(2,), seed=7,
        )
        s = generate(cfg)
        hr_cent, lr_cent = brute_force_centroids(s)
        diffs = [hr_cent[i] - lr_cent[i] for i in sorted(hr_cent)]
        mean_diff = np.mean(diffs, axis=0)
        norm = np.linalg.norm(mean_diff)
        assert abs(norm - 1.5) <= 0.15
        d = planted_direction(cfg)
        assert float(mean_diff @ d) / norm >= 0.99


class TestPlantedDirection:
    def test_unit_norm(self):
        for seed in range(5):
            d = planted_direction(SynthConfig(dim=48, seed=seed))
            assert abs(np.linalg.norm(d) - 1.0) <= 1e-12

    def test_deterministic(self):
        cfg = SynthConfig(dim=32, seed=11)
        np.testing.assert_array_equal(planted_direction(cfg), planted_direction(cfg))

    def test_direction_seed_shares_direction_across_sets(self):
        a = SynthConfig(dim=32, seed=7)
        b_shared = SynthConfig(dim=32, seed=11, direction_seed=7)
        b_own = SynthConfig(dim=32, seed=11)
        np.testing.assert_array_equal(planted_direction(a), planted_direction(b_shared))
        assert abs(planted_direction(a) @ planted_direction(b_own)) < 0.9

    def test_direction_seed_leaves_body_draws_unchanged(self):
        base = SynthConfig(dim=8, num_identities=3, samples_per_res=2,
                           sample_noise=0.0, shift_noise=0.0,
                           shift_magnitude={2: 0.0}, seed=11)
        overridden = SynthConfig(dim=8, num_identities=3, samples_per_res=2,
                                 sample_noise=0.0, shift_noise=0.0,
                                 shift_magnitude={2: 0.0}, seed=11,
                                 direction_seed=5)
        # zero shift magnitude: records must be identical, the prototype
        # stream cannot depend on the direction override
        for ra, rb in zip(generate(base).records, generate(overridden).records):
            np.testing.assert_array_equal(ra.vector, rb.vector)
