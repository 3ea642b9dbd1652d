import numpy as np
import pytest

from vpfa.embeddings import EmbeddingRecord, EmbeddingSet, Resolution, half_split_identities
from vpfa.errors import DataError
from vpfa.stats import (
    CcaEntry,
    PearsonEntry,
    SplitCosineEntry,
    _pca_reduce,
    analyze_set,
    cca_top_k,
    cca_with_random_baseline,
    cosine,
    grouped_pearson,
    lr_rates,
    pearson,
    split_cosine,
)
from vpfa.synthgen import SynthConfig, generate


def reference_cca(X, Y, k, eps):
    """Independent route: generalized eigenproblem with explicit solves.

    Canonical correlations are the square roots of the eigenvalues of
    Cxx^-1 Cxy Cyy^-1 Cyx (both blocks ridge-regularized).
    """
    n = X.shape[0]
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    cxx = Xc.T @ Xc / (n - 1) + eps * np.eye(X.shape[1])
    cyy = Yc.T @ Yc / (n - 1) + eps * np.eye(Y.shape[1])
    cxy = Xc.T @ Yc / (n - 1)
    m = np.linalg.solve(cxx, cxy @ np.linalg.solve(cyy, cxy.T))
    eigs = np.sort(np.real(np.linalg.eigvals(m)))[::-1]
    return np.sqrt(np.clip(eigs[:k], 0.0, 1.0))


class TestCosine:
    def test_self_is_one(self):
        v = np.array([1.0, -2.0, 0.5])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis_vectors(self):
        assert cosine([1, 0, 0], [0, 1, 0]) == pytest.approx(0.0, abs=1e-15)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.standard_normal(12)
            b = rng.standard_normal(12)
            lam, mu = rng.uniform(0.01, 100, size=2)
            assert cosine(lam * a, mu * b) == pytest.approx(cosine(a, b), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((2, 9))
        assert cosine(a, b) == pytest.approx(cosine(b, a), abs=1e-15)

    def test_zero_norm_rejected(self):
        with pytest.raises(DataError, match="zero-norm"):
            cosine([0, 0], [1, 1])


class TestPearson:
    def test_identical_is_one(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)

    def test_negated_is_minus_one(self):
        assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_value(self):
        # direct formula: cov 6.5, variances 5 and 8.75 -> 6.5/sqrt(43.75)
        expected = 6.5 / np.sqrt(43.75)
        got = pearson([1, 2, 3, 4], [1, 2, 3, 5])
        assert got == pytest.approx(expected, abs=1e-12)
        assert round(got, 4) == 0.9827

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.standard_normal(15)
            b = rng.standard_normal(15)
            lam, mu = rng.uniform(0.1, 10, size=2)
            c, d = rng.uniform(-5, 5, size=2)
            assert pearson(lam * a + c, mu * b + d) == pytest.approx(
                pearson(a, b), abs=1e-12
            )

    def test_zero_variance_rejected(self):
        with pytest.raises(DataError, match="zero-variance"):
            pearson([1, 1, 1], [1, 2, 3])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])


class TestCcaTopK:
    def test_self_correlation_near_one(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 5))
        corrs = cca_top_k(x, x, 3, eps=1e-6)
        assert np.all(corrs >= 0.999)

    def test_independent_gaussians_stay_low(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((200, 10))
        y = rng.standard_normal((200, 10))
        corrs = cca_top_k(x, y, 3, eps=1e-6)
        assert corrs[0] < 0.5
        np.testing.assert_allclose(corrs, reference_cca(x, y, 3, 1e-6), atol=1e-8)

    def test_matches_reference_on_correlated_data(self):
        rng = np.random.default_rng(4)
        latent = rng.standard_normal((80, 3))
        x = latent @ rng.standard_normal((3, 6)) + 0.1 * rng.standard_normal((80, 6))
        y = latent @ rng.standard_normal((3, 7)) + 0.1 * rng.standard_normal((80, 7))
        np.testing.assert_allclose(
            cca_top_k(x, y, 3, 1e-6), reference_cca(x, y, 3, 1e-6), atol=1e-8
        )

    def test_output_in_unit_interval_descending(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 4))
        y = rng.standard_normal((30, 6))
        corrs = cca_top_k(x, y, 4, eps=1e-4)
        assert np.all((corrs >= 0) & (corrs <= 1))
        assert np.all(np.diff(corrs) <= 1e-15)

    def test_k_padding_when_fewer_directions_exist(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((20, 2))
        y = rng.standard_normal((20, 2))
        corrs = cca_top_k(x, y, 3, eps=1e-6)
        assert corrs.shape == (3,)
        assert corrs[2] == 0.0

    def test_correlations_grow_as_eps_shrinks(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((60, 5))
        tops = [cca_top_k(x, x, 1, eps)[0] for eps in (1e-1, 1e-3, 1e-6)]
        assert tops[0] < tops[1] < tops[2]
        assert tops[2] > 0.999999

    def test_zero_eps_on_rank_deficient_is_an_error(self):
        x = np.random.default_rng(8).standard_normal((10, 3))
        deficient = np.hstack([x, x[:, :1]])  # duplicated column
        with pytest.raises(DataError, match="rank-deficient"):
            cca_top_k(deficient, x, 2, eps=0.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, -1e-9])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_or_negative_eps_rejected(self, eps):
        x = np.random.default_rng(9).standard_normal((10, 3))
        with pytest.raises(ValueError, match="eps must be finite and non-negative"):
            cca_top_k(x, x, 2, eps=eps)
        with pytest.raises(ValueError, match="eps"):
            analyze_set(planted_set(num_identities=4), cca_eps=eps, num_identities=4)

    def test_single_row_rejected(self):
        with pytest.raises(DataError):
            cca_top_k(np.ones((1, 3)), np.ones((1, 3)), 1)


def planted_set(**overrides):
    base = dict(
        dim=64, num_identities=100, samples_per_res=10, id_spread=1.0,
        sample_noise=0.3, shift_noise=0.1, shift_magnitude={2: 1.5},
        rates=(2,), seed=7,
    )
    base.update(overrides)
    return generate(SynthConfig(**base))


def brute_force_split_shift(eset, rate, ids):
    """Recompute a half's mean-shift vector by explicit loops."""
    hr_means, lr_means = [], []
    for identity in ids:
        hr = [r.vector for r in eset.records
              if r.identity == identity and r.resolution.is_hr]
        lr = [r.vector for r in eset.records
              if r.identity == identity and r.resolution.rate == rate]
        hr_means.append(np.mean(hr, axis=0))
        lr_means.append(np.mean(lr, axis=0))
    return np.mean(hr_means, axis=0) - np.mean(lr_means, axis=0)


class TestSplitCosine:
    def test_noise_free_shift_gives_cosine_one(self):
        s = planted_set(sample_noise=0.0, shift_noise=0.0, num_identities=10)
        entry = split_cosine(s, 2)
        assert entry.cosine == pytest.approx(1.0, abs=1e-9)
        assert entry.half_sizes == (5, 5)

    def test_planted_set_agrees_with_brute_force(self):
        s = planted_set()
        entry = split_cosine(s, 2)
        assert entry.cosine >= 0.95
        ids = sorted({r.identity for r in s.records})
        first, second = ids[:50], ids[50:]
        v1 = brute_force_split_shift(s, 2, first)
        v2 = brute_force_split_shift(s, 2, second)
        expected = float(v1 @ v2 / (np.linalg.norm(v1) * np.linalg.norm(v2)))
        assert entry.cosine == pytest.approx(expected, abs=1e-12)

    def test_record_order_within_identity_is_irrelevant(self):
        s = planted_set(num_identities=8)
        entry = split_cosine(s, 2)
        shuffled = EmbeddingSet(
            s.dim, sorted(s.records, key=lambda r: (r.identity, r.camera)), "x"
        )
        assert split_cosine(shuffled, 2).cosine == pytest.approx(
            entry.cosine, abs=1e-12
        )

    def test_too_few_identities_rejected(self):
        s = planted_set(num_identities=1)
        with pytest.raises(DataError, match="identities"):
            split_cosine(s, 2)

    def test_missing_rate_rejected(self):
        s = planted_set(num_identities=4)
        with pytest.raises(DataError):
            split_cosine(s, 3)


class TestCcaWithRandomBaseline:
    def test_planted_cross_beats_random(self):
        s = planted_set()
        for rows in ("per_sample", "identity_mean"):
            entry = cca_with_random_baseline(s, 2, eps=1e-6, seed=0, rows=rows)
            assert entry.cross_res[0] > entry.random_baseline[0]

    def test_triples_are_descending_and_bounded(self):
        entry = cca_with_random_baseline(planted_set(num_identities=30), 2)
        for triple in (entry.cross_res, entry.random_baseline):
            assert len(triple) == 3
            assert all(0 <= c <= 1 for c in triple)
            assert triple[0] >= triple[1] >= triple[2]

    def test_agrees_with_reference_route(self):
        s = planted_set(num_identities=40)
        entry = cca_with_random_baseline(s, 2, eps=1e-6, seed=3, rows="per_sample")
        # rebuild the same paired matrices and cross-check via the
        # generalized-eigenproblem oracle
        hr_rows, lr_rows = [], []
        for identity in sorted({r.identity for r in s.records}):
            hrs = [r.vector for r in s.records
                   if r.identity == identity and r.resolution.is_hr]
            lrs = [r.vector for r in s.records
                   if r.identity == identity and r.resolution.rate == 2]
            for h, l in zip(hrs, lrs):
                hr_rows.append(h)
                lr_rows.append(l)
        ref = reference_cca(np.stack(hr_rows), np.stack(lr_rows), 3, 1e-6)
        np.testing.assert_allclose(entry.cross_res, ref, atol=1e-8)

    def test_identity_mean_reduces_dimensions_when_needed(self):
        s = planted_set(num_identities=10, dim=32)
        entry = cca_with_random_baseline(s, 2, rows="identity_mean")
        assert entry.rows == 10
        assert entry.components == 9

    def test_deterministic_given_seed(self):
        s = planted_set(num_identities=20)
        a = cca_with_random_baseline(s, 2, seed=5)
        b = cca_with_random_baseline(s, 2, seed=5)
        assert a == b


class TestGroupedPearson:
    def test_identical_diffs_give_perfect_correlation(self):
        s = planted_set(sample_noise=0.0, shift_noise=0.0, num_identities=10)
        entry = grouped_pearson(s, 2, num_identities=10, group_size=2, seed=0)
        assert entry.mean_r == pytest.approx(1.0, abs=1e-9)
        assert entry.std_r == pytest.approx(0.0, abs=1e-9)
        assert entry.proportion_above == 1.0
        assert entry.group_count == 50  # 10 ids x 10 diffs / groups of 2

    def test_larger_gap_correlates_more(self):
        cfg = SynthConfig(
            dim=64, num_identities=60, samples_per_res=10, id_spread=1.0,
            sample_noise=0.3, shift_noise=0.1,
            shift_magnitude={2: 1.0, 4: 2.0}, rates=(2, 4), seed=5,
        )
        s = generate(cfg)
        at2 = grouped_pearson(s, 2, num_identities=50, seed=0)
        at4 = grouped_pearson(s, 4, num_identities=50, seed=0)
        assert at4.mean_r >= at2.mean_r
        assert at4.proportion_above >= at2.proportion_above

    def test_agrees_with_numpy_corrcoef(self):
        s = planted_set(num_identities=6, samples_per_res=4)
        entry = grouped_pearson(s, 2, num_identities=6, group_size=2, seed=9)
        # same grouping, correlation recomputed independently
        diffs = []
        for identity in sorted({r.identity for r in s.records}):
            hrs = [r.vector for r in s.records
                   if r.identity == identity and r.resolution.is_hr]
            lrs = [r.vector for r in s.records
                   if r.identity == identity and r.resolution.rate == 2]
            diffs += [h - l for h, l in zip(hrs, lrs)]
        g = np.mean(diffs, axis=0)
        order = np.random.default_rng(9).permutation(len(diffs))
        rs = []
        for i in range(len(diffs) // 2):
            members = order[2 * i : 2 * i + 2]
            mean_vec = np.mean([diffs[j] for j in members], axis=0)
            rs.append(np.corrcoef(mean_vec, g)[0, 1])
        assert entry.mean_r == pytest.approx(np.mean(rs), abs=1e-12)
        assert entry.std_r == pytest.approx(np.std(rs), abs=1e-12)

    def test_insufficient_identities_rejected(self):
        s = planted_set(num_identities=5)
        with pytest.raises(DataError, match="identities"):
            grouped_pearson(s, 2, num_identities=50)

    def test_deterministic_given_seed(self):
        s = planted_set(num_identities=12)
        a = grouped_pearson(s, 2, num_identities=12, seed=4)
        b = grouped_pearson(s, 2, num_identities=12, seed=4)
        assert a == b


def walk_groups(eset, rate):
    """HR and LR-at-rate vectors per identity, walked one record at a time."""
    hr, lrs = {}, {}
    for rec in eset.records:
        if rec.resolution.is_hr:
            hr.setdefault(rec.identity, []).append(rec.vector)
        elif rec.resolution == Resolution(rate):
            lrs.setdefault(rec.identity, []).append(rec.vector)
    return hr, lrs, sorted(set(hr) & set(lrs))


def walk_means(hr, lrs, ids):
    return (np.stack([np.mean(hr[i], axis=0) for i in ids]),
            np.stack([np.mean(lrs[i], axis=0) for i in ids]))


def walk_pairs(hr, lrs, ids):
    pairs = [(h, l) for i in ids for h, l in zip(hr[i], lrs[i])]
    return np.stack([h for h, _ in pairs]), np.stack([l for _, l in pairs])


def walk_split_cosine(eset, rate):
    hr, lrs, ids = walk_groups(eset, rate)
    halves = half_split_identities(ids)
    shifts = [np.subtract(*(m.mean(axis=0) for m in walk_means(hr, lrs, h))) for h in halves]
    return SplitCosineEntry(cosine(*shifts), tuple(len(h) for h in halves))


def walk_cca(eset, rate, k=3, eps=1e-6, seed=0, rows="per_sample"):
    hr, lrs, ids = walk_groups(eset, rate)
    hr_mat, lr_mat = (walk_means if rows == "identity_mean" else walk_pairs)(hr, lrs, ids)
    n, dim = hr_mat.shape
    components = min(n - 1, dim)
    if dim > n - 1:
        hr_mat, lr_mat = _pca_reduce(hr_mat, components), _pca_reduce(lr_mat, components)
    rng = np.random.default_rng(seed)
    baseline = cca_top_k(rng.standard_normal(hr_mat.shape), rng.standard_normal(lr_mat.shape),
                         k, eps)
    return CcaEntry(tuple(cca_top_k(hr_mat, lr_mat, k, eps)), tuple(baseline), n, components)


def walk_pearson(eset, rate, num_identities, group_size, seed, threshold=0.4):
    hr, lrs, ids = walk_groups(eset, rate)
    diffs = {i: [h - l for h, l in zip(hr[i], lrs[i])] for i in ids}
    global_shift = np.mean([d for i in ids for d in diffs[i]], axis=0)
    pool = [d for i in ids[:num_identities] for d in diffs[i]]
    order = np.random.default_rng(seed).permutation(len(pool))
    num_groups = len(pool) // group_size
    rs = np.array([pearson(np.mean([pool[j] for j in order[g * group_size:(g + 1) * group_size]],
                                   axis=0), global_shift) for g in range(num_groups)])
    return PearsonEntry(float(rs.mean()), float(rs.std()), float(np.mean(rs > threshold)),
                        num_groups, threshold)


class TestEqualsTheRecordWalk:
    """Each analysis equals (==) the record-by-record grouping it replaced, on a
    shuffled set with uneven HR/LR counts per identity."""

    def setup_method(self):
        s = planted_set(dim=16, num_identities=12, samples_per_res=5,
                        shift_magnitude={2: 1.0, 3: 2.0}, rates=(2, 3), seed=3)
        rng = np.random.default_rng(5)
        drop = ((s.identity_array == 0) & (s.rate_array == 0)).nonzero()[0][:2]  # id 0: 3 HR, 5 LR
        others = rng.choice(np.flatnonzero(s.identity_array != 0), 25)  # uneven elsewhere
        keep = np.setdiff1d(np.arange(len(s)), np.concatenate([drop, others]))
        rows = rng.permutation(keep)
        self.set = EmbeddingSet.from_arrays(s.matrix[rows], s.identity_array[rows],
                                            s.camera_array[rows], s.rate_array[rows])
        own = self.set.identity_array == 0
        assert np.count_nonzero(own & (self.set.rate_array == 0)) == 3
        assert np.count_nonzero(own & (self.set.rate_array == 2)) == 5

    @pytest.mark.parametrize("rate", [2, 3])
    def test_split_cosine(self, rate):
        assert split_cosine(self.set, rate) == walk_split_cosine(self.set, rate)

    @pytest.mark.parametrize("rows", ["per_sample", "identity_mean"])
    @pytest.mark.parametrize("rate", [2, 3])
    def test_cca(self, rows, rate):
        got = cca_with_random_baseline(self.set, rate, eps=1e-4, seed=2, rows=rows)
        assert got == walk_cca(self.set, rate, eps=1e-4, seed=2, rows=rows)

    @pytest.mark.parametrize("num_ids, group_size", [(12, 2), (7, 3), (1, 1)])
    def test_grouped_pearson(self, num_ids, group_size):
        got = grouped_pearson(self.set, 2, num_ids, group_size, seed=4)
        assert got == walk_pearson(self.set, 2, num_ids, group_size, seed=4)

    def test_rate_0_pairs_no_lr_rows(self):
        with pytest.raises(DataError, match="got 0"):
            split_cosine(self.set, 0)
        with pytest.raises(DataError, match="no identities"):
            cca_with_random_baseline(self.set, 0)

    def test_lr_rates(self):
        assert lr_rates(self.set) == [2, 3]
        assert lr_rates(self.set.partition(self.set.rate_array == 0)) == []


class TestAnalyzeSet:
    def test_covers_all_present_rates(self):
        cfg = SynthConfig(
            dim=32, num_identities=60, samples_per_res=4,
            shift_magnitude={2: 1.0, 3: 1.5}, rates=(2, 3), seed=1,
        )
        s = generate(cfg)
        assert lr_rates(s) == [2, 3]
        report = analyze_set(s)
        assert sorted(report.split_cosine) == [2, 3]
        assert sorted(report.cca) == [2, 3]
        assert sorted(report.pearson) == [2, 3]

    def test_set_without_lr_rejected(self):
        s = planted_set(num_identities=4).partition(lambda r: r.resolution.is_hr)
        with pytest.raises(DataError, match="no LR"):
            analyze_set(s)
